"""Workloads and metrics of the benchmark, with the reasoning behind them.

BENCHMARK.json carries the names, units, directions and bounds; it has no
room for the arrows below, so this table is where they live.  selftest.py
checks that the two agree.
"""

WORKLOADS = {
    "scalar-certify":
        "Trivial operators: time goes to the majorant radius finders, the "
        "iteration bookkeeping and cli document and CSV work. A build-side "
        "change should show no change here.",
    "nystrom-build":
        "analyze on Urysohn/composition (n 101-401), L_p Hammerstein (n 1001) "
        "and 8-d multilinear: time goes to modulus sampling and kernel/norm "
        "estimation, not analysis.",
    "nystrom-solve":
        "solve on Hammerstein n 1001/2001 with 40-400 steps: time goes to "
        "iteration driving the O(n^2) apply and norms; long traces stress "
        "per-step state copies and the trace document.",
}

# name -> (unit, better, bound)
END_TO_END = {
    "problems_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_ms": ("ms", "lower", "latency_p50_ms on scalar-certify"),
    "cli.output_kib": ("KiB", "lower", "peak_rss_mb, latency_tail_ms on nystrom-solve"),
    "operators.build_ms": ("ms", "lower", "problems_per_s on nystrom-build"),
    "operators.callback_calls": ("count", "lower", "problems_per_s on nystrom-build"),
    "operators.callback_elements": ("count", "lower", "problems_per_s on nystrom-build"),
    "operators.callback_scalar_calls": ("count", "lower", "problems_per_s on nystrom-build"),
    "operators.callback_ms": ("ms", "lower", "problems_per_s on nystrom-build"),
    "operators.apply_calls": ("count", "lower", "latency_p50_ms on nystrom-solve"),
    "operators.apply_ms": ("ms", "lower", "latency_p50_ms on nystrom-solve"),
    "discretize.kernel_table_ms": ("ms", "lower", "problems_per_s on nystrom-build"),
    "discretize.zaanen_ms": ("ms", "lower", "problems_per_s on nystrom-build"),
    "discretize.zaanen_sweeps": ("count", "lower", "problems_per_s on nystrom-build"),
    "discretize.norm_calls": ("count", "lower", "latency_p50_ms on nystrom-solve"),
    "discretize.norm_ms": ("ms", "lower", "latency_p50_ms on nystrom-solve"),
    "moduli.k_evals": ("count", "lower", "problems_per_s on scalar-certify"),
    "moduli.primitive_evals": ("count", "lower", "problems_per_s on scalar-certify"),
    "moduli.tabulate_ms": ("ms", "lower", "problems_per_s on nystrom-build"),
    "moduli.table_nodes": ("count", "lower", "problems_per_s on nystrom-build"),
    "majorant.analyze_ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "majorant.find_contraction_radius.calls":
        ("count", "lower", "problems_per_s on scalar-certify (per analyze call)"),
    "majorant.find_contraction_radius.ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "majorant.find_convergence_radius.ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "majorant.find_inner_radius.ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "majorant.find_uniqueness_radius.ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "iteration.iterate_ms": ("ms", "lower", "problems_per_s on scalar-certify and nystrom-solve"),
    "iteration.steps": ("count", "lower", "problems_per_s on scalar-certify and nystrom-solve"),
    "iteration.self_ms": ("ms", "lower", "problems_per_s on scalar-certify"),
    "iteration.trace_state_bytes": ("bytes", "lower", "peak_rss_mb on nystrom-solve (computed)"),
    "iteration.certify_ms": ("ms", "lower", "latency_p50_ms on nystrom-solve"),
    "layer.cli.self_pct": ("%", "lower", "share of self time; cli work on scalar-certify"),
    "layer.operators.self_pct": ("%", "lower", "share of self time; builds on nystrom-build"),
    "layer.discretize.self_pct": ("%", "lower", "share of self time; nystrom-build"),
    "layer.moduli.self_pct": ("%", "lower", "share of self time; scalar-certify"),
    "layer.majorant.self_pct": ("%", "lower", "share of self time; scalar-certify"),
    "layer.iteration.self_pct": ("%", "lower", "share of self time; nystrom-solve"),
    "trace.untraced_problems_per_s": ("1/s", "higher", "problems_per_s, same run"),
    "trace.traced_problems_per_s": ("1/s", "higher", "tracing overhead"),
    "trace.overhead_pct": ("%", "lower", "tracing overhead"),
}
