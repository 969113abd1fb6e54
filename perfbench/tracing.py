"""Spans around the calls into each majorfix layer, for the traced run.

Nothing in majorfix is edited.  Tracer.install replaces, for the length of
the traced run, the names that majorfix.cli, majorfix.operators,
majorfix.majorant and majorfix.discretize look up at call time, the
handle's apply and norm, the profile's modulus (through a subclass that
delegates everything, domain_end included) and the preset callbacks;
uninstall puts every original back.

A span is (name, start, end, parent, problem id); spans stay in memory and
are written once, at the end.  The profile's modulus is called thousands of
times per problem, so those calls are not stored one by one: their time is
added to the enclosing span as leaf time and to per-name totals, which is
all that self time needs.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

# (module attribute, span name); layer = the part of the name before the dot
CLI_SPANS = [
    ("analyze", "majorant.analyze"),
    ("eval_majorants", "majorant.eval_majorants"),
    ("certify_trace", "iteration.certify_trace"),
    ("zaanen_norm_estimate", "discretize.zaanen_norm_estimate"),
    ("build_superposition_modulus", "operators.build_superposition_modulus"),
    ("multilinear_critical_shift", "operators.multilinear_critical_shift"),
]
BUILDERS = ["build_composition", "build_hammerstein_lp", "build_hammerstein_sup",
            "build_multilinear", "build_self_majorizing", "build_urysohn"]
OPERATOR_SPANS = [
    ("combine_moduli", "moduli.tabulate.combine_moduli"),
    ("modulus_from_samples", "moduli.tabulate.modulus_from_samples"),
    ("recenter_modulus", "moduli.tabulate.recenter_modulus"),
    ("lp_norm", "discretize.lp_norm"),
    ("make_operator", "iteration.make_operator"),
]
FINDERS = ["find_contraction_radius", "find_convergence_radius",
           "find_inner_radius", "find_uniqueness_radius"]
CALLBACK_TABLES = ["KERNELS", "NONLINEARITIES", "LP_NONLINEARITIES", "FORCINGS",
                   "URYSOHN_KERNELS", "COMPOSITION_OUTER", "COMPOSITION_INNER"]
LAYERS = ["cli", "operators", "discretize", "moduli", "majorant", "iteration"]


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.problem: list[int] = []
        self.leaf_ns: list[int] = []
        self.stack: list[int] = []
        self.problem_id = -1
        self.leaf_calls: Counter = Counter()
        self.leaf_total: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.problem.append(self.problem_id)
        self.leaf_ns.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def leaf(self, name, fn, arg):
        t0 = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            dt = time.perf_counter_ns() - t0
            self.leaf_calls[name] += 1
            self.leaf_total[name] += dt
            if self.stack:
                self.leaf_ns[self.stack[-1]] += dt

    # -- installation ------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def spanned(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def install(self, majorfix) -> None:
        cli, operators = majorfix.cli, majorfix.operators
        majorant, discretize = majorfix.majorant, majorfix.discretize
        iteration, moduli, presets = majorfix.iteration, majorfix.moduli, majorfix.presets
        tracer = self

        class TracedModulus(moduli.LipschitzModulus):
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, r):
                return tracer.leaf("moduli.k", self.inner, r)

            def primitive(self, r):
                return tracer.leaf("moduli.primitive", self.inner.primitive, r)

            def domain_end(self):
                return self.inner.domain_end()

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

        def traced_profile(profile):
            if isinstance(profile.modulus, TracedModulus):
                return profile
            return majorant.MajorantProfile(profile.center_shift,
                                            TracedModulus(profile.modulus),
                                            profile.radius)

        def traced_handle(handle):
            return iteration.OperatorHandle(
                self.spanned("operators.apply", handle.apply), handle.center,
                self.spanned("discretize.norm", handle.norm),
                traced_profile(handle.profile))

        def builder(name, fn):
            def wrapped(*args, **kwargs):
                return traced_handle(self.call(f"operators.{name}", fn, *args, **kwargs))
            return wrapped

        run_iterate = cli.iterate
        zaanen_sweeps = discretize.zaanen_sweep_objectives

        def iterate(*args, **kwargs):
            x, trace = self.call("iteration.iterate", run_iterate, *args, **kwargs)
            self.counts["iteration.steps"] += len(trace.steps)
            self.counts["iteration.trace_state_bytes"] += sum(
                rec.state.nbytes for rec in trace.steps) + trace.final_state.nbytes
            return x, trace

        def tabulate(name, fn):
            def wrapped(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                nodes = getattr(result, "abscissae", None)
                if nodes is not None:
                    self.counts["moduli.table_nodes"] += int(nodes.size)
                return result
            return wrapped

        def sweeps(*args, **kwargs):
            result = zaanen_sweeps(*args, **kwargs)
            self.counts["discretize.zaanen_sweeps"] += len(result)
            return result

        class TracedKernelTable(discretize.KernelTable):
            @classmethod
            def from_function(cls, *args):
                return tracer.call("discretize.kernel_table",
                                   discretize.KernelTable.from_function, *args)

        for attr, name in CLI_SPANS:
            self._set(cli, attr, self.spanned(name, getattr(cli, attr)))
        self._set(cli, "iterate", iterate)
        for attr in BUILDERS:
            self._set(cli, attr, builder(attr, getattr(cli, attr)))
        self._set(cli, "MajorantProfile",
                  lambda a, modulus, radius: majorant.MajorantProfile(
                      a, TracedModulus(modulus), radius))
        self._set(cli, "KernelTable", TracedKernelTable)
        self._set(operators, "KernelTable", TracedKernelTable)
        for attr, name in OPERATOR_SPANS:
            wrap = tabulate if name.startswith("moduli.") else self.spanned
            self._set(operators, attr, wrap(name, getattr(operators, attr)))
        for attr in FINDERS:
            self._set(majorant, attr, self.spanned(f"majorant.{attr}",
                                                   getattr(majorant, attr)))
        self._set(discretize, "zaanen_sweep_objectives", sweeps)
        for table_name in CALLBACK_TABLES:
            table = getattr(presets, table_name)
            for key, entry in list(table.items()):
                label = f"operators.callback.{table_name}.{key}"
                if callable(entry):
                    self._set(table, key, self._callback(label, entry))
                elif isinstance(entry, tuple):
                    self._set(table, key, (self._callback(label, entry[0]),) + entry[1:])
                else:
                    for role, fn in list(entry.items()):
                        if callable(fn):
                            self._set(entry, role, self._callback(f"{label}.{role}", fn))

    def _callback(self, name, fn):
        def wrapped(*args):
            self.counts["operators.callback_calls"] += 1
            if all(np.ndim(arg) == 0 for arg in args):
                self.counts["operators.callback_scalar_calls"] += 1
            result = self.call(name, fn, *args)
            self.counts["operators.callback_elements"] += int(np.size(result))
            return result
        return wrapped

    # -- analysis ----------------------------------------------------------

    def analyse(self) -> dict:
        """Totals by span name: count, inclusive ns and self ns; self ns by layer."""
        child = [0] * len(self.name)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        count, total, own = Counter(), Counter(), Counter()
        layer_self: dict = defaultdict(int)
        for idx, name in enumerate(self.name):
            duration = self.end[idx] - self.start[idx]
            self_ns = duration - child[idx] - self.leaf_ns[idx]
            count[name] += 1
            total[name] += duration
            own[name] += self_ns
            layer_self[name.split(".")[0]] += self_ns
        for name, ns in self.leaf_total.items():
            layer_self[name.split(".")[0]] += ns
        return {"count": count, "total": total, "self": own,
                "layer_self": layer_self}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,problem,leaf_ns\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.problem, self.leaf_ns):
                fh.write(",".join(map(str, row)) + "\n")


def layer_metrics(tracer: Tracer, problems: int) -> dict:
    """Per-layer figures per problem (per analyze call for finder counts)."""
    s = tracer.analyse()
    count, total, own = s["count"], s["total"], s["self"]
    ms = 1e-6 / problems

    def total_of(prefix):
        return sum(v for k, v in total.items() if k.startswith(prefix))

    analyses = max(count["majorant.analyze"], 1)
    layer_total = sum(s["layer_self"].values()) or 1
    out = {
        "cli.self_ms": own["cli.main"] * ms,
        "cli.output_kib": tracer.counts["cli.output_bytes"] / 1024 / problems,
        "operators.build_ms": total_of("operators.build_") * ms,
        "operators.callback_calls": tracer.counts["operators.callback_calls"] / problems,
        "operators.callback_elements": tracer.counts["operators.callback_elements"] / problems,
        "operators.callback_scalar_calls":
            tracer.counts["operators.callback_scalar_calls"] / problems,
        "operators.callback_ms": total_of("operators.callback.") * ms,
        "operators.apply_calls": count["operators.apply"] / problems,
        "operators.apply_ms": total["operators.apply"] * ms,
        "discretize.kernel_table_ms": total["discretize.kernel_table"] * ms,
        "discretize.zaanen_ms": total["discretize.zaanen_norm_estimate"] * ms,
        "discretize.zaanen_sweeps": tracer.counts["discretize.zaanen_sweeps"] / problems,
        "discretize.norm_calls": count["discretize.norm"] / problems,
        "discretize.norm_ms": total["discretize.norm"] * ms,
        "moduli.k_evals": tracer.leaf_calls["moduli.k"] / problems,
        "moduli.primitive_evals": tracer.leaf_calls["moduli.primitive"] / problems,
        "moduli.tabulate_ms": total_of("moduli.tabulate.") * ms,
        "moduli.table_nodes": tracer.counts["moduli.table_nodes"] / problems,
        "majorant.analyze_ms": total["majorant.analyze"] * ms,
        "majorant.find_contraction_radius.calls":
            count["majorant.find_contraction_radius"] / analyses,
    }
    for finder in FINDERS:
        out[f"majorant.{finder}.ms"] = total[f"majorant.{finder}"] * ms
    out.update({
        "iteration.iterate_ms": total["iteration.iterate"] * ms,
        "iteration.steps": tracer.counts["iteration.steps"] / problems,
        "iteration.self_ms": own["iteration.iterate"] * ms,
        "iteration.trace_state_bytes": tracer.counts["iteration.trace_state_bytes"] / problems,
        "iteration.certify_ms": total["iteration.certify_trace"] * ms,
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_pct"] = 100.0 * s["layer_self"].get(layer, 0) / layer_total
    return out
