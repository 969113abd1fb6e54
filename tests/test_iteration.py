import math

import numpy as np
import pytest

from majorfix import (
    BoundViolationError,
    CertificationRecord,
    ConstantModulus,
    InadmissibleStartError,
    MajorantProfile,
    NoExistenceError,
    OperatorHandle,
    PowerSumModulus,
    StoppingRule,
    ZoneReport,
    analyze,
    build_self_majorizing,
    certify_trace,
    check_admissible_start,
    combine_moduli,
    iterate,
    make_operator,
)

from helpers import reference_check

QUAD = MajorantProfile(0.1875, PowerSumModulus(((2.0, 1.0),)), 1.0)


def handmade_report(r_conv=0.25, r_uni=0.75, closed=False):
    return ZoneReport(
        inner_radius=0.16,
        convergence_radius=r_conv,
        uniqueness_radius=r_uni,
        uniqueness_radius_closed=closed,
        degenerate=False,
        contraction_radius=0.5,
    )


class TestAdmissibleStart:
    def test_inside_annulus(self):
        assert check_admissible_start(handmade_report(), 0.5)

    def test_center(self):
        assert check_admissible_start(handmade_report(), 0.0)

    def test_open_boundary_excluded(self):
        assert not check_admissible_start(handmade_report(), 0.75)

    def test_closed_boundary_included(self):
        assert check_admissible_start(handmade_report(closed=True), 0.75)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("rho0,admissible", [
        (0.16, True),                           # inner radius
        (0.25, True),                           # convergence radius
        (math.nextafter(0.25, 1.0), True),      # just into the annulus
        (math.nextafter(0.75, 0.0), True),      # just below the uniqueness radius
        (math.nextafter(0.75, 1.0), False),     # just past it
        (1.0, False),
    ])
    def test_region_is_ball_then_annulus(self, closed, rho0, admissible):
        assert check_admissible_start(handmade_report(closed=closed), rho0) is admissible

    def test_convergence_radius_admissible_at_open_tangency(self):
        # degenerate: the uniqueness zone [0, 0.5) is open at the convergence
        # radius, which is admissible all the same
        report = handmade_report(r_conv=0.5, r_uni=0.5)
        assert not report.uniqueness_zone.contains(0.5)
        assert check_admissible_start(report, 0.5)
        assert not check_admissible_start(report, math.nextafter(0.5, 1.0))

    def test_uncertified_report_rejected(self):
        report = analyze(MajorantProfile(0.5, PowerSumModulus(((2.0, 1.0),)), 1.0))
        with pytest.raises(ValueError):
            check_admissible_start(report, 0.0)


class TestIterate:
    def test_self_majorizing_from_center_is_tight(self):
        op = build_self_majorizing(QUAD)
        x, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-10, max_steps=500))
        assert trace.status == "converged"
        assert x[0] == pytest.approx(0.25, abs=1e-9)
        # the operator equals its own majorant: step norms match the
        # envelope increments to rounding
        for rec in trace.steps:
            envelope_step = QUAD.upper(rec.envelope_center) - rec.envelope_center
            assert rec.step_norm == pytest.approx(envelope_step, abs=1e-14)
            assert rec.envelope_start == rec.envelope_center

    @pytest.mark.parametrize("profile", [
        QUAD,
        MajorantProfile(0.1, ConstantModulus(0.5), 1.0),
        MajorantProfile(0.05, PowerSumModulus(((0.3, 0.5), (1.5, 2.0))), 1.0),
    ])
    @pytest.mark.parametrize("offset", [0.0, 0.1])
    def test_envelopes_are_upper_applied_step_by_step(self, profile, offset):
        op = build_self_majorizing(profile)
        _, trace = iterate(op, np.array([offset]),
                           StoppingRule(bound_tol=1e-12, max_steps=200))
        assert trace.steps
        r, rho = 0.0, offset
        for rec in trace.steps:
            assert rec.envelope_center.hex() == r.hex()
            assert rec.envelope_start.hex() == rho.hex()
            r, rho = profile.upper(r), profile.upper(rho)

    def test_decreasing_branch_from_above(self):
        op = build_self_majorizing(QUAD)
        x, trace = iterate(op, np.array([0.5]),
                           StoppingRule(bound_tol=1e-10, max_steps=500))
        assert x[0] == pytest.approx(0.25, abs=1e-9)
        first = trace.steps[0]
        assert first.envelope_start == 0.5
        assert trace.steps[1].envelope_start == pytest.approx(0.4375, abs=1e-15)
        starts = [rec.envelope_start for rec in trace.steps]
        assert all(b <= a for a, b in zip(starts, starts[1:]))

    def test_zero_displacement_returns_center_immediately(self):
        profile = MajorantProfile(0.0, ConstantModulus(0.5), 1.0)
        op = build_self_majorizing(profile)
        x, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-12))
        assert trace.status == "converged"
        assert trace.steps == []
        assert x[0] == 0.0
        assert trace.final_bound == 0.0

    def test_envelopes_monotone_and_ordered(self):
        op = build_self_majorizing(QUAD)
        _, trace = iterate(op, np.array([0.6]),
                           StoppingRule(bound_tol=1e-10, max_steps=500))
        centers = [rec.envelope_center for rec in trace.steps]
        assert all(b >= a for a, b in zip(centers, centers[1:]))
        for rec in trace.steps:
            assert rec.envelope_start >= rec.envelope_center - 1e-15

    def test_inadmissible_start(self):
        op = build_self_majorizing(QUAD)
        with pytest.raises(InadmissibleStartError):
            iterate(op, np.array([0.9]), StoppingRule())

    def test_no_existence_propagates(self):
        profile = MajorantProfile(0.5, PowerSumModulus(((2.0, 1.0),)), 1.0)
        op = OperatorHandle(lambda x: 0.5 + x**2, np.zeros(1),
                            lambda v: float(np.max(np.abs(v))), profile)
        with pytest.raises(NoExistenceError):
            iterate(op, np.zeros(1), StoppingRule())

    def test_iterate_leaving_its_envelope_is_a_violation(self):
        # a = 0.1, k = 0.5: from 0.1 off the center, rho_1 = 0.15 and the
        # step bound is 0.25; a step of 0.1 keeps within the bound but lands
        # 0.2 from the center
        profile = MajorantProfile(0.1, ConstantModulus(0.5), 10.0)
        good = build_self_majorizing(profile)
        drifting = OperatorHandle(lambda x: x + 0.1, good.center, good.norm, profile)
        with pytest.raises(BoundViolationError, match="drifted to distance") as excinfo:
            iterate(drifting, np.array([0.1]),
                    StoppingRule(bound_tol=1e-10, max_steps=100))
        record = excinfo.value.record
        assert record.index == 0 and record.step_norm <= record.step_bound
        assert excinfo.value.trace.status == "bound_violated"

    def test_corrupted_modulus_violates_at_first_biting_step(self):
        good = build_self_majorizing(QUAD)
        corrupted = MajorantProfile(QUAD.center_shift,
                                    combine_moduli([QUAD.modulus], [0.5]), QUAD.radius)
        bad = OperatorHandle(good.apply, good.center, good.norm, corrupted)
        with pytest.raises(BoundViolationError) as excinfo:
            iterate(bad, np.zeros(1), StoppingRule(bound_tol=1e-10, max_steps=100))
        assert excinfo.value.record.index == 1
        assert excinfo.value.trace.status == "bound_violated"

    def test_max_steps_status(self):
        op = build_self_majorizing(QUAD)
        _, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-10, max_steps=3))
        assert trace.status == "max_steps"
        assert len(trace.steps) == 3

    def test_uniqueness_across_starts(self):
        op = build_self_majorizing(QUAD)
        rule = StoppingRule(bound_tol=1e-11, max_steps=1000)
        x_center, trace_center = iterate(op, np.zeros(1), rule)
        x_above, trace_above = iterate(op, np.array([0.6]), rule)
        tolerance = trace_center.final_bound + trace_above.final_bound
        assert abs(x_center[0] - x_above[0]) <= tolerance


class TestCertifyTrace:
    def test_reference_certification_tight(self):
        op = build_self_majorizing(QUAD)
        _, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-9, max_steps=500))
        record = certify_trace(trace)
        assert record.step_ok
        assert record.worst_step_excess <= 1e-12
        worst_ref, failures = reference_check(trace, np.array([0.25]), op.norm)
        assert failures == []
        assert worst_ref <= 1e-12

    def test_single_step_trace(self):
        op = build_self_majorizing(QUAD)
        _, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-10, max_steps=1))
        assert len(trace.steps) == 1
        first = trace.steps[0]
        assert first.step_norm == pytest.approx(QUAD.center_shift, abs=1e-15)
        assert first.step_bound == pytest.approx(
            QUAD.upper(0.0) + 0.0 - 0.0, abs=1e-15)
        assert certify_trace(trace).step_ok

    def test_empty_trace_passes(self):
        from majorfix import IterationTrace
        record = certify_trace(IterationTrace([], "converged", None, 0.0))
        assert record == CertificationRecord(0, True, 0.0)

    # iterate compares with ">", which a NaN step norm never satisfies
    def test_nan_step_norm_fails_certification(self):
        norm = lambda v: float(np.max(np.abs(v)))
        op = make_operator(lambda x: 0.1 + 0.5 * x if x[0] < 0.15 else np.full(1, np.nan),
                           np.zeros(1), norm, ConstantModulus(0.5), 1.0)
        solution, trace = iterate(op, np.zeros(1), StoppingRule())
        assert np.isnan(solution[0])
        assert not certify_trace(trace).step_ok

    def test_corrupted_bounds_fail_certification(self):
        op = build_self_majorizing(QUAD)
        _, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-9, max_steps=500))
        _, failures = reference_check(trace, np.array([0.75]), op.norm)
        assert failures


class TestMakeOperator:
    def test_center_shift_is_measured(self):
        apply = lambda x: 0.1875 + x**2
        norm = lambda v: float(np.max(np.abs(v)))
        modulus = PowerSumModulus(((2.0, 1.0),))
        op = make_operator(apply, np.zeros(1), norm, modulus, 1.0)
        assert op.profile.center_shift == pytest.approx(0.1875, abs=1e-15)

    def test_self_majorizing_handle_carries_its_profile(self):
        op = build_self_majorizing(QUAD)
        assert op.profile is QUAD
        assert op.apply(op.center)[0] == QUAD.center_shift
