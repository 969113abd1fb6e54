import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import (Grid, KernelTable, MajorantProfile, PowerSumModulus, cli,
                      eval_majorants)
from majorfix.cli import main
from majorfix.errors import ConfigError
from majorfix.presets import (FORCINGS, KERNELS, LP_NONLINEARITIES, NONLINEARITIES,
                              URYSOHN_KERNELS, get_preset, preset_names)

BETA = (1.0 - math.sqrt(0.9)) / 0.05
DATA = Path(__file__).parent / "data"


def run_cli(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def run_json(args):
    code, out = run_cli(args)
    return code, json.loads(out) if out.strip() else None


class TestAnalyzeCommand:
    def test_quadratic_preset(self):
        code, doc = run_json(["analyze", "--preset", "quadratic"])
        assert code == 0
        radii = doc["radii"]
        assert radii["inner_radius"] == pytest.approx(0.161437827766, abs=1e-9)
        assert radii["convergence_radius"] == pytest.approx(0.25, abs=1e-10)
        assert radii["contraction_radius"] == pytest.approx(0.5, abs=1e-10)
        assert radii["uniqueness_radius"] == pytest.approx(0.75, abs=1e-10)
        assert not radii["uniqueness_radius_closed"]
        zone = doc["zones"]["contraction_zone"]
        assert zone["lo"] == pytest.approx(0.25, abs=1e-10)
        assert zone["hi"] == pytest.approx(0.5, abs=1e-10)

    def test_supercritical_multilinear_certificate(self, tmp_path):
        config = {"kind": "multilinear", "dimension": 1, "degree": 2,
                  "coefficient": 1.0, "constant": 0.5, "radius": 1.0}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["analyze", "--config", str(path)])
        assert code == 0          # a certified no-existence is success
        assert not doc["existence_certified"]
        assert doc["multilinear"]["critical_shift"] == pytest.approx(0.25, abs=1e-12)
        assert not doc["multilinear"]["solvable"]
        assert doc["gap_witness"]["gap"] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("seed", [7, "x"])
    def test_multilinear_seed_key_is_ignored(self, tmp_path, seed):
        config = get_preset("multilinear-2d")
        del config["operator_norm"]
        config["seed"] = seed
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["analyze", "--config", str(path)])
        assert code == 0
        tensor = np.asarray(config["tensor"])
        norm_c = min(np.linalg.norm(np.moveaxis(tensor, k, 0).reshape(2, 4), 2)
                     for k in range(3))
        assert doc["multilinear"]["critical_shift"] == pytest.approx(
            1.0 / (4.0 * norm_c), rel=1e-14)

    def test_zero_displacement(self, tmp_path):
        config = {"kind": "scalar_profile", "center_shift": 0.0,
                  "modulus": {"type": "constant", "value": 0.5}, "radius": 1.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["analyze", "--config", str(path)])
        assert code == 0
        assert doc["radii"]["inner_radius"] == 0.0
        assert doc["radii"]["convergence_radius"] == 0.0
        assert doc["radii"]["uniqueness_radius"] == 1.0
        assert doc["radii"]["uniqueness_radius_closed"]


    def test_lp_kernel_sampled_once(self, monkeypatch):
        # the Zaanen estimate and the build share one sampled kernel table
        sampled = []
        sample = KernelTable.from_function

        def counted(cls, *args):
            sampled.append(args)
            return sample(*args)

        monkeypatch.setattr(KernelTable, "from_function", classmethod(counted))
        code, doc = run_json(["analyze", "--preset", "hammerstein-lp"])
        assert code == 0 and doc["existence_certified"]
        assert len(sampled) == 1

    @pytest.mark.parametrize("source", ["kernel_csv", "kernel_csv_triples", "inline"])
    def test_lp_tabulated_kernel_shared_by_estimate_and_build(
            self, tmp_path, monkeypatch, source):
        # a CSV (dense or triples) or inline kernel reaches the Zaanen
        # estimate and the build as one table, and certifies exactly as the
        # named kernel it tabulates
        config = {"kind": "hammerstein_lp", "interval": [0.0, 1.0],
                  "lambda": 0.3, "p": 2.0, "grid": {"rule": "simpson", "n": 21},
                  "radius": 2.0, "forcing": "identity",
                  "terms": [{"kernel": "product", "nonlinearity": "linear"}]}
        named = tmp_path / "named.json"
        named.write_text(json.dumps(config))
        grid = Grid.simpson(0.0, 1.0, 21)
        values = KernelTable.from_function(grid, lambda t, s: t * s).values
        term = config["terms"][0]
        del term["kernel"]
        if source == "kernel_csv":
            path = tmp_path / "kernel.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n"
                                    for row in values.tolist()))
            term["kernel_csv"] = str(path)
        elif source == "kernel_csv_triples":
            path = tmp_path / "kernel.csv"
            nodes, rows = grid.nodes.tolist(), values.tolist()
            path.write_text("t,s,value\n" + "".join(
                f"{t!r},{s!r},{rows[i][j]!r}\n" for i, t in enumerate(nodes)
                for j, s in enumerate(nodes)))
            term["kernel_csv"] = str(path)
        else:
            term["kernel"] = values.tolist()
        tabulated = tmp_path / "tabulated.json"
        tabulated.write_text(json.dumps(config))

        seen = []
        estimate, build = cli.zaanen_norm_estimate, cli.build_hammerstein_lp
        monkeypatch.setattr(cli, "zaanen_norm_estimate",
                            lambda table, *a: seen.append(table) or estimate(table, *a))
        monkeypatch.setattr(cli, "build_hammerstein_lp",
                            lambda spec, *a, **k: seen.append(spec.terms[0].kernel)
                            or build(spec, *a, **k))
        code, doc = run_json(["analyze", "--config", str(tabulated)])
        assert code == 0 and len(seen) == 2 and seen[0] is seen[1]
        assert np.array_equal(seen[0].values, values)
        assert doc == run_json(["analyze", "--config", str(named)])[1]

    @pytest.mark.parametrize("interval", [[0.0, 2.0], [0.0, 1.0 + 1e-6]])
    def test_kernel_csv_triples_off_the_config_grid_are_config_error(
            self, tmp_path, capsys, interval):
        # the triples name the nodes of simpson(0, 1, 5); the config grid is
        # another one with 5 nodes
        grid_nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
        path = tmp_path / "kernel.csv"
        path.write_text("t,s,value\n" + "".join(
            f"{t!r},{s!r},{t * s!r}\n" for t in grid_nodes for s in grid_nodes))
        config = {"kind": "hammerstein_c", "interval": interval,
                  "lambda": 0.1, "grid": {"rule": "simpson", "n": 5},
                  "radius": 1.0, "forcing": "identity",
                  "terms": [{"kernel_csv": str(path), "nonlinearity": "square"}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(bad)]) == (2, "")
        assert "kernel coordinates are not the 5 nodes" in capsys.readouterr().err
        config["interval"] = [0.0, 1.0]
        bad.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(bad)])[0] == 0

    def test_lp_q_defaults_to_p(self):
        config = get_preset("hammerstein-lp")
        assert config["terms"][0]["q"] == config["p"]
        explicit = cli.run_analyze(config)
        del config["terms"][0]["q"]
        assert cli.run_analyze(config) == explicit

    def test_inline_kernel_rows_stay_the_callers(self):
        from majorfix.cli import run_analyze
        rows = [np.full(5, 0.2) for _ in range(5)]
        config = {"kind": "hammerstein_c", "interval": [0.0, 1.0],
                  "lambda": 0.1, "grid": {"rule": "simpson", "n": 5},
                  "radius": 1.0, "forcing": "identity",
                  "terms": [{"kernel": rows, "nonlinearity": "square"}]}
        run_analyze(config)
        assert all(row.flags.writeable for row in rows)

    def test_inline_kernel_of_wrong_shape_is_config_error(self, tmp_path):
        config = {"kind": "hammerstein_c", "interval": [0.0, 1.0],
                  "lambda": 0.1, "grid": {"rule": "simpson", "n": 5},
                  "radius": 1.0, "forcing": "identity",
                  "terms": [{"kernel": [[0.0] * 5] * 4, "nonlinearity": "square"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(path)])[0] == 2


class TestRegistrySweep:
    """Every named kernel, nonlinearity and forcing builds and analyzes:
    each is called on arrays, so one that only takes scalars fails here."""

    @staticmethod
    def analyze(tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"interval": [0.0, 1.0], "lambda": 0.1,
                                    "grid": {"rule": "simpson", "n": 21},
                                    "radius": 1.0, **config}))
        code, doc = run_json(["analyze", "--config", str(path)])
        assert code == 0 and doc["grid"] == {"rule": "simpson", "n": 21}

    @pytest.mark.parametrize("forcing", sorted(FORCINGS))
    @pytest.mark.parametrize("nonlinearity", sorted(NONLINEARITIES))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_hammerstein_c(self, tmp_path, kernel, nonlinearity, forcing):
        self.analyze(tmp_path, {"kind": "hammerstein_c", "forcing": forcing, "terms": [
            {"kernel": kernel, "nonlinearity": nonlinearity}]})

    @pytest.mark.parametrize("nonlinearity", sorted(LP_NONLINEARITIES))
    def test_hammerstein_lp(self, tmp_path, nonlinearity):
        self.analyze(tmp_path, {"kind": "hammerstein_lp", "p": 2.0, "terms": [
            {"kernel": "product", "nonlinearity": nonlinearity}]})


class TestSolveCommand:
    def test_hammerstein_preset_within_ring(self, tmp_path):
        out = tmp_path / "trace.json"
        code, _ = run_cli(["solve", "--preset", "hammerstein-separable",
                           "--bound-tol", "1e-8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged"
        sup = max(abs(v) for v in doc["solution"])
        assert abs(sup - BETA) < 1e-6
        assert doc["radii"]["inner_radius"] <= sup <= doc["radii"]["convergence_radius"]
        assert doc["certification"]["step_ok"]

    def test_scalar_trace_steps_match_envelope_increments(self):
        code, doc = run_json(["solve", "--preset", "quadratic",
                              "--bound-tol", "1e-9"])
        assert code == 0
        profile = MajorantProfile(0.1875, PowerSumModulus(((2.0, 1.0),)), 1.0)
        for step in doc["steps"]:
            increment = profile.upper(step["envelope_center"]) - step["envelope_center"]
            assert step["step_norm"] == pytest.approx(increment, abs=1e-13)

    def test_zero_displacement_zero_steps(self, tmp_path):
        config = {"kind": "scalar_profile", "center_shift": 0.0,
                  "modulus": {"type": "constant", "value": 0.5}, "radius": 1.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["solve", "--config", str(path)])
        assert code == 0
        assert doc["steps"] == []
        assert doc["final_bound"] == 0.0
        assert doc["certification"] == {"steps_checked": 0, "step_ok": True,
                                         "worst_step_excess": 0.0}


class TestForcingSamples:
    # the named forcing "identity" is t itself, so its node values are the
    # grid's nodes
    @pytest.mark.parametrize("command", ["analyze", "solve"])
    @pytest.mark.parametrize("preset", ["hammerstein-separable", "hammerstein-lp"])
    def test_node_values_match_the_named_forcing(self, tmp_path, preset, command):
        config = get_preset(preset)
        assert config["forcing"] == "identity"
        named, sampled = tmp_path / "named.json", tmp_path / "sampled.json"
        named.write_text(json.dumps(config))
        config["forcing"] = Grid.simpson(0.0, 1.0, config["grid"]["n"]).nodes.tolist()
        sampled.write_text(json.dumps(config))
        documents = []
        for path in (named, sampled):
            out = tmp_path / f"{path.stem}.out.json"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]

    def test_wrong_length_is_config_error(self, tmp_path, capsys):
        config = get_preset("hammerstein-separable")
        config["forcing"] = [0.0] * (config["grid"]["n"] - 1)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(path)]) == (2, "")
        assert "forcing array length" in capsys.readouterr().err


class TestReentrantMain:
    def test_parser_built_once_and_left_as_it_was(self, tmp_path):
        out = tmp_path / "document.json"
        assert main(["solve", "--preset", "quadratic", "--max-steps", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "max_steps"
        # the default max-steps of 1000 is back on the next call
        assert main(["solve", "--preset", "quadratic", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "quadratic.solve.json").read_bytes()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["solve", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in err.getvalue()
        assert main(["analyze", "--preset", "quadratic", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "quadratic.analyze.json").read_bytes()
        assert cli._build_parser() is cli._build_parser()


STEP_KEYS = ("n", "step_norm", "envelope_center", "envelope_start",
             "apriori_bound", "step_bound", "center_bound")
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300)
NUMBERS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), st.integers())
STEP = st.fixed_dictionaries({key: NUMBERS for key in STEP_KEYS})
# records the row renderer must hand back to json.dumps: mixed keys,
# strings with ", ", nested lists, booleans and null
ODD_VALUES = st.one_of(NUMBERS, st.text(), st.booleans(), st.none(),
                       st.lists(NUMBERS, max_size=2))
ODD_RECORDS = st.lists(st.dictionaries(st.text(max_size=4), ODD_VALUES, max_size=3),
                       max_size=3)
STEPS = st.one_of(st.just([]), st.lists(STEP, min_size=1, max_size=1),
                  st.lists(STEP, min_size=2, max_size=40), ODD_RECORDS)
RADII = st.fixed_dictionaries({
    "inner_radius": NUMBERS, "convergence_radius": NUMBERS,
    "uniqueness_radius": st.one_of(st.none(), NUMBERS),
    "uniqueness_radius_closed": st.booleans(), "degenerate": st.booleans(),
    "contraction_radius": st.one_of(st.none(), NUMBERS), "domain_radius": NUMBERS})
SOLVED = st.fixed_dictionaries({
    "kind": st.sampled_from(cli.KINDS), "radii": RADII, "start_offset": NUMBERS,
    "status": st.sampled_from(["converged", "max_steps"]), "steps": STEPS,
    "final_bound": NUMBERS, "solution": st.lists(NUMBERS, max_size=3),
    "certification": st.fixed_dictionaries({
        "steps_checked": st.integers(0, 1000), "step_ok": st.booleans(),
        "worst_step_excess": NUMBERS})})
VIOLATED = st.fixed_dictionaries({
    "kind": st.sampled_from(cli.KINDS), "radii": RADII, "start_offset": NUMBERS,
    "status": st.just("bound_violated"), "steps": STEPS, "final_bound": st.none(),
    "solution": st.none(), "certification": st.none(),
    "diagnostic": st.fixed_dictionaries({
        "message": st.text(), "step": STEP, "observed_step_norm": NUMBERS,
        "certified_step_bound": NUMBERS})})


class TestDocumentText:
    @given(st.one_of(SOLVED, VIOLATED))
    @settings(max_examples=300, deadline=None)
    def test_equals_indented_json_dumps(self, document):
        assert cli._document_text(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize("steps", [
        [{"a%s": 1.0, "b": 2}],
        [{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}],
        [{"a": 1.0}, {"a": 1.0, "b": 2}],
        [{"a": "x, y"}, {"a": 1.0}],
        [{"a": [1.0]}],
        [{}],
        [{1: 1.0}],
        [[1.0, 2.0]],
        [{"a": np.float64(0.1), "b": True}, {"a": np.float64(np.nan), "b": 3}],
    ])
    def test_irregular_records(self, steps):
        document = {"kind": "scalar_profile", "steps": steps, "final_bound": 0.0}
        assert cli._document_text(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize("solution", [
        [], [1.0], list(EDGE_FLOATS) * 40, [1, 2.0], [True, 1.0], [np.float64(0.1)],
        [[1.0]], ["x, y"], [None], (1.0, 2.0), None,
    ])
    def test_solutions(self, solution):
        document = {"kind": "hammerstein_c", "steps": [], "solution": solution,
                    "certification": None}
        assert cli._document_text(document) == json.dumps(document, indent=2)


class TestZonesCommand:
    def test_round_trip_reproduces_majorants(self, tmp_path):
        out = tmp_path / "zones.csv"
        code, _ = run_cli(["zones", "--preset", "quadratic",
                           "--out", str(out), "--samples", "101"])
        assert code == 0
        profile = MajorantProfile(0.1875, PowerSumModulus(((2.0, 1.0),)), 1.0)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        for row in rows:
            r = float(row["r"])
            upper, lower = eval_majorants(profile, r)
            assert abs(float(row["a_plus"]) - upper) <= 1e-12
            assert abs(float(row["a_minus"]) - lower) <= 1e-12
            assert float(row["bisectrix"]) == r
        mid = [row for row in rows if float(row["r"]) == 0.5]
        assert mid and float(mid[0]["a_plus"]) == 0.4375

    def test_tangency_markers_coincide(self, tmp_path):
        out = tmp_path / "zones.csv"
        code, _ = run_cli(["zones", "--preset", "tangency", "--out", str(out)])
        assert code == 0
        markers_path = out.with_name("zones.markers.csv")
        with markers_path.open() as fh:
            markers = {row["name"]: row for row in csv.DictReader(fh)}
        for name in ("convergence_radius", "contraction_radius", "uniqueness_radius"):
            assert float(markers[name]["value"]) == pytest.approx(0.5, abs=1e-10)
        assert markers["uniqueness_radius"]["boundary"] == "open"

    def test_zero_displacement_row(self, tmp_path):
        config = {"kind": "scalar_profile", "center_shift": 0.0,
                  "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
                  "radius": 1.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "zones.csv"
        code, _ = run_cli(["zones", "--config", str(path), "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            first = next(csv.DictReader(fh))
        assert float(first["r"]) == 0.0
        assert float(first["a_plus"]) == 0.0

    def test_multilinear_family_sweep(self, tmp_path):
        out = tmp_path / "zones.csv"
        code, _ = run_cli(["zones", "--preset", "multilinear-quadratic",
                           "--out", str(out), "--samples", "51"])
        assert code == 0
        family_path = out.with_name("zones.family.csv")
        with family_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        header = rows[0].keys()
        shifts = [float(name.split("=")[1]) for name in header if name != "r"]
        assert len(shifts) == 4
        # the family brackets the critical shift 0.25 from both sides
        assert min(shifts) < 0.25 <= max(shifts)
        for row in rows[:5]:
            r = float(row["r"])
            for name, shift in zip([n for n in header if n != "r"], shifts):
                assert float(row[name]) == pytest.approx(shift + r * r, abs=1e-12)


class TestCompareCommand:
    def test_tangency_banach_inapplicable(self):
        code, doc = run_json(["compare", "--preset", "tangency"])
        assert code == 0
        assert doc["banach_applicable"] is False
        assert doc["majorization_strictly_wider"] is True
        assert doc["contraction_zone"]["empty"]

    def test_contraction_reduction(self):
        code, doc = run_json(["compare", "--preset", "contraction"])
        assert code == 0
        assert doc["banach_applicable"] is True
        assert doc["uniqueness_zone"]["hi"] == 10.0
        assert doc["uniqueness_zone"]["hi_closed"]

    def test_zero_displacement_both_apply(self, tmp_path):
        config = {"kind": "scalar_profile", "center_shift": 0.0,
                  "modulus": {"type": "constant", "value": 0.5}, "radius": 1.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["compare", "--config", str(path)])
        assert code == 0
        assert doc["banach_applicable"] is True
        assert doc["contraction_zone"]["lo"] == 0.0


class TestExitCodes:
    def test_success(self):
        code, _ = run_cli(["analyze", "--preset", "quadratic"])
        assert code == 0

    def test_config_error_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nope"}))
        code, _ = run_cli(["analyze", "--config", str(path)])
        assert code == 2

    def test_config_error_missing_file(self):
        code, _ = run_cli(["analyze", "--config", "/nonexistent/x.json"])
        assert code == 2

    def test_config_error_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(["analyze", "--config", str(path)])
        assert code == 2

    def test_config_error_nonfinite_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "scalar_profile", "center_shift": NaN, '
                        '"modulus": {"type": "constant", "value": 0.5}, "radius": 1.0}')
        code, _ = run_cli(["analyze", "--config", str(path)])
        assert code == 2

    def test_config_error_both_sources(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        code, _ = run_cli(["analyze", "--preset", "quadratic",
                           "--config", str(path)])
        assert code == 2

    def test_config_error_unknown_preset(self):
        code, _ = run_cli(["analyze", "--preset", "does-not-exist"])
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "solve", "zones", "compare"])
    def test_tol_is_not_an_option(self, capsys, command):
        # the finders' resolution is fixed; argparse rejects the old flag
        code, out = run_cli([command, "--preset", "quadratic", "--tol", "1e-3"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    def test_config_error_zones_without_out(self):
        code, _ = run_cli(["zones", "--preset", "quadratic"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--max-steps=0", "--max-steps=-3",
                                      "--bound-tol=-1", "--bound-tol=0",
                                      "--bound-tol=nan"])
    def test_config_error_solve_flag(self, flag, capsys):
        code, out = run_cli(["solve", "--preset", "quadratic", flag])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("kind,nonlinearity", [("hammerstein_c", "square"),
                                                   ("hammerstein_lp", "linear")])
    @pytest.mark.parametrize("bad", [[], ["x"]], ids=["only", "second"])
    def test_config_error_term_not_object(self, tmp_path, kind, nonlinearity, bad):
        terms = [1] if not bad else [{"kernel": "product",
                                      "nonlinearity": nonlinearity}] + bad
        config = {"kind": kind, "lambda": 0.1, "p": 2.0, "radius": 1.0,
                  "terms": terms}
        path = tmp_path / "terms.json"
        path.write_text(json.dumps(config))
        code, _ = run_cli(["analyze", "--config", str(path)])
        assert code == 2

    @pytest.mark.parametrize("preset,term,changes", [
        ("multilinear-2d", False, {"operator_norm": "x"}),
        ("multilinear-2d", False, {"tensor": None}),
        ("multilinear-quadratic", False, {"constant": "ab"}),
        ("multilinear-quadratic", False, {"dimension": 0}),
        ("hammerstein-separable", False, {"x0": "abc"}),
        ("hammerstein-separable", False, {"x0": [0.0, 1.0]}),
        ("hammerstein-separable", True, {"kernel_csv": 3}),
        ("hammerstein-separable", True, {"nonlinearity": ["a"]}),
        ("hammerstein-lp", True, {"zaanen_norm": -1}),
        ("hammerstein-lp", True, {"zaanen_norm": "x"}),
        ("hammerstein-lp", True, {"q": "x"}),
        ("hammerstein-lp", True, {"pairs": [[1]]}),
        ("urysohn", False, {"grid": {"rule": "simpson", "n": -1}}),
        ("urysohn", False, {"grid": {"rule": "simpson", "n": 10}}),
        ("urysohn", False, {"interval": [1.0, 0.0]}),
        ("urysohn", False, {"kernel": ["a"]}),
        ("quadratic", False, {"modulus": {"type": "tabulated", "abscissae": [0, 1],
                                          "ordinates": [1, "x"]}}),
        # numeric fields given as strings or booleans
        ("hammerstein-lp", True, {"q": "2"}),
        ("hammerstein-lp", True, {"q": True}),
        ("hammerstein-lp", True, {"zaanen_norm": "0.5"}),
        ("hammerstein-lp", True, {"pairs": [["1", "0"]]}),
        ("quadratic", False, {"modulus": {"type": "power_sum", "terms": [["2", "1"]]}}),
        ("quadratic", False, {"modulus": {"type": "tabulated", "abscissae": ["0", "1"],
                                          "ordinates": [0, 2]}}),
        ("quadratic", False, {"modulus": {"type": "tabulated", "abscissae": [0, 1],
                                          "ordinates": ["0", "2"]}}),
        ("hammerstein-separable", False, {"x0": "0.5"}),
        ("hammerstein-separable", False, {"forcing": ["0.5"] * 201}),
        ("hammerstein-separable", True, {"kernel": [["1"] * 201] * 201}),
        ("multilinear-2d", False, {"constant": ["0.05", "0.08"]}),
        ("multilinear-2d", False, {"operator_norm": True}),
        ("multilinear-quadratic", False, {"dimension": True}),
        ("urysohn", False, {"interval": [False, True]}),
    ])
    def test_config_error_malformed_field(self, tmp_path, capsys, preset, term,
                                          changes):
        # None deletes the field; term=True edits the first term
        config = get_preset(preset)
        target = config["terms"][0] if term else config
        for key, value in changes.items():
            if value is None:
                target.pop(key, None)
            else:
                target[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("config error: ")

    # a key that nothing reads, in the grid, a modulus of each type, a sup
    # term (an L_p term's key) and an L_p term
    @pytest.mark.parametrize("preset,where,key", [
        ("urysohn", "grid", "nn"),
        ("quadratic", "modulus", "value"),
        ("contraction", "modulus", "terms"),
        ("tabulated", "modulus", "shape"),
        ("hammerstein-separable", "terms", "q"),
        ("hammerstein-lp", "terms", "kernal"),
    ])
    def test_config_error_unknown_nested_key(self, tmp_path, capsys, preset, where,
                                             key):
        if preset == "tabulated":
            config = get_preset("quadratic")
            config["modulus"] = {"type": "tabulated", "abscissae": [0.0, 1.0],
                                 "ordinates": [0.0, 2.0]}
        else:
            config = get_preset(preset)
        target = config["terms"][0] if where == "terms" else config[where]
        target[key] = 1001
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(path)]) == (2, "")
        assert f"unknown key {key!r}" in capsys.readouterr().err
        del target[key]
        path.write_text(json.dumps(config))
        assert run_cli(["analyze", "--config", str(path)])[0] == 0

    # a boolean exponent is named as such, not read as q = 1.0
    def test_config_error_boolean_q(self):
        config = get_preset("hammerstein-lp")
        config["terms"][0]["q"] = True
        with pytest.raises(ConfigError, match="field 'q' must be a number"):
            cli.run_analyze(config)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_config_error_lp_exponent_at_most_one(self, tmp_path, capsys, p):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**get_preset("hammerstein-lp"), "p": p}))
        assert run_cli(["analyze", "--config", str(path)]) == (2, "")
        assert "p must be > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,term,key", [
        ("hammerstein-separable", True, "nonlinearity"),
        ("urysohn", False, "kernel"),
    ])
    def test_config_error_name_not_a_string(self, preset, term, key):
        config = get_preset(preset)
        (config["terms"][0] if term else config)[key] = ["a"]
        with pytest.raises(ConfigError, match=r"unknown .*\['a'\]; available: \["):
            cli.run_analyze(config)

    @pytest.mark.parametrize("text", ['"interval": [0.0, NaN]',
                                      '"interval": [0.0, Infinity]'])
    @pytest.mark.parametrize("preset", ["hammerstein-separable", "urysohn"])
    def test_config_error_non_finite_interval(self, tmp_path, capsys, preset, text):
        path = tmp_path / "interval.json"
        path.write_text(json.dumps(get_preset(preset)).replace(
            '"interval": [0.0, 1.0]', text))
        code, out = run_cli(["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert "grid bounds, nodes and weights must be finite" in capsys.readouterr().err

    # finite bounds whose difference overflows are rejected before numpy
    # computes with the length (no RuntimeWarning)
    @pytest.mark.parametrize("preset", ["hammerstein-separable", "urysohn"])
    def test_config_error_overflowing_interval_length(self, tmp_path, capsys, preset):
        path = tmp_path / "interval.json"
        path.write_text(json.dumps({**get_preset(preset), "interval": [-1e308, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert "has no finite length" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", [
        {"radius": 1e200},                              # K(R) overflows
        {"radius": 10**400},                            # beyond float range
        {"center_shift": 10**400},
        {"modulus": {"type": "power_sum", "terms": [[10**400, 1.0]]}},
    ])
    def test_config_error_out_of_float_range(self, tmp_path, capsys, changes):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**get_preset("quadratic"), **changes}))
        code, out = run_cli(["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("config error: ")

    def test_fault_in_modulus_build_propagates(self, monkeypatch):
        def broken(terms):
            raise RuntimeError("modulus bug")

        monkeypatch.setattr(cli, "PowerSumModulus", broken)
        with pytest.raises(RuntimeError, match="modulus bug"):
            main(["analyze", "--preset", "quadratic"])

    def test_every_kind_has_a_preset(self):
        assert set(cli.KINDS) <= {get_preset(name)["kind"] for name in preset_names()}

    def test_inadmissible_start(self):
        code, _ = run_cli(["solve", "--preset", "quadratic",
                           "--start-offset", "0.9"])
        assert code == 3

    def test_solve_on_supercritical(self):
        code, _ = run_cli(["solve", "--preset", "supercritical"])
        assert code == 3

    def test_gap_past_tangency_is_refuted(self, tmp_path, capsys):
        # 9e-13 above tangency: below the bracket resolution, above float noise
        config = {"kind": "scalar_profile", "center_shift": 0.25 + 9e-13,
                  "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
                  "radius": 1.0}
        path = tmp_path / "past_tangency.json"
        path.write_text(json.dumps(config))
        code, doc = run_json(["analyze", "--config", str(path)])
        assert code == 0 and doc["existence_certified"] is False
        assert doc["gap_witness"]["gap"] == pytest.approx(9.0e-13, rel=1e-4)
        assert doc["radii"]["convergence_radius"] is None
        code, out = run_cli(["solve", "--config", str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("cannot iterate: ")

    @staticmethod
    def tabulated_config(tmp_path, abscissae, ordinates):
        path = tmp_path / "tabulated.json"
        path.write_text(json.dumps({
            "kind": "scalar_profile", "center_shift": 0.1, "radius": 1,
            "modulus": {"type": "tabulated", "abscissae": abscissae,
                        "ordinates": ordinates}}))
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "solve"])
    @pytest.mark.parametrize("abscissae,ordinates", [
        ([0, 5e-324, 1], [0, 0.5, 1e300]),
        ([0, 1e-320, 1], [0, 1e-5, 0.6]),
    ])
    def test_config_error_tabulated_slope_overflow(self, tmp_path, capsys, command,
                                                    abscissae, ordinates):
        # solve once exited 0, converged in 0 steps with final_bound 0.0,
        # though A(0) = 0.1 and the gap is positive on [0, 1]
        path = self.tabulated_config(tmp_path, abscissae, ordinates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli([command, "--config", path])
        assert code == 2 and out == ""
        assert "slope overflows" in capsys.readouterr().err

    def test_tabulated_subnormal_spacing_with_finite_slopes_solves(self, tmp_path):
        path = self.tabulated_config(tmp_path, [0, 1e-320, 1], [0, 1e-320, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(["solve", "--config", path])
        # k(r) = 0.6 r on [1e-320, 1]: the fixed point of 0.1 + 0.3 r^2
        assert code == 0 and doc["status"] == "converged" and doc["steps"]
        assert doc["radii"]["convergence_radius"] == pytest.approx(
            (1.0 - math.sqrt(1.0 - 0.12)) / 0.6, abs=1e-11)

    def test_callback_fault_after_first_call_propagates(self, monkeypatch):
        calls = []

        def u_modulus(t, s, r):
            calls.append(np.shape(r))
            if len(calls) > 1:
                raise ValueError("bug on the second chunk")
            return 0.2 * s * r + 0.0 * t

        monkeypatch.setitem(URYSOHN_KERNELS["mixed_quadratic"], "u_modulus", u_modulus)
        with pytest.raises(RuntimeError, match="u_modulus raised ValueError") as info:
            main(["analyze", "--preset", "urysohn"])
        assert isinstance(info.value.__cause__, ValueError)
        assert len(calls) == 2

    def test_callback_fault_on_every_call_propagates(self, monkeypatch):
        def u_modulus(t, s, r):
            raise TypeError("bug on every call")

        monkeypatch.setitem(URYSOHN_KERNELS["mixed_quadratic"], "u_modulus", u_modulus)
        # the first call, on arrays, fails; it is not retried on scalars
        with pytest.raises(RuntimeError, match="u_modulus raised TypeError") as info:
            main(["analyze", "--preset", "urysohn"])
        assert isinstance(info.value.__cause__, TypeError)

    def test_bound_violation(self, tmp_path):
        config = {"kind": "scalar_profile", "center_shift": 0.1875,
                  "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
                  "radius": 1.0, "modulus_scale": 0.5}
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "trace.json"
        code, _ = run_cli(["solve", "--config", str(path), "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["status"] == "bound_violated"
        assert doc["diagnostic"]["step"]["n"] == 1
        assert (doc["diagnostic"]["observed_step_norm"]
                > doc["diagnostic"]["certified_step_bound"])

    def test_nan_iterate_is_a_bound_violation(self, monkeypatch, tmp_path):
        # the iterate reaches t > 0.5 after one step, where h turns NaN
        _, modulus = NONLINEARITIES["square"]
        monkeypatch.setitem(NONLINEARITIES, "square",
                            (lambda u: np.where(u < 0.5, u**2, np.nan), modulus))
        out = tmp_path / "trace.json"
        code, _ = run_cli(["solve", "--preset", "hammerstein-separable", "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["status"] == "bound_violated" and doc["diagnostic"]["step"]["n"] == 1
        assert math.isnan(doc["diagnostic"]["observed_step_norm"])


class TestStartOffset:
    @pytest.mark.parametrize("offset", ["-0.1", "nan", "inf"])
    def test_negative_or_non_finite_offset_is_config_error(self, capsys, offset):
        code, out = run_cli(["solve", "--preset", "quadratic",
                             f"--start-offset={offset}"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("config error: ")

    def test_offset_realized_in_ambient_norm(self):
        code, doc = run_json(["solve", "--preset", "hammerstein-separable",
                              "--start-offset", "0.5", "--bound-tol", "1e-8"])
        assert code == 0
        assert doc["start_offset"] == pytest.approx(0.5, abs=1e-12)
        assert doc["status"] == "converged"
        sup = max(abs(v) for v in doc["solution"])
        assert abs(sup - BETA) < 1e-6
