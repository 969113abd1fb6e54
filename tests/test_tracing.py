"""The benchmark's tracer (perfbench/tracing.py) patches majorfix names by
hand: module globals of cli, operators, majorant and discretize, and the
callback tables of presets.  A name it patches that the library renames or
deletes breaks `perfbench/run.py --trace 1`; these tests catch that, and
check that tracing changes no document and leaves nothing patched behind.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import majorfix
from majorfix import cli, discretize, iteration, majorant, moduli, operators, presets
from majorfix.cli import main
from majorfix.presets import get_preset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (cli, discretize, iteration, majorant, moduli, operators, presets)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tables):
    """Every module global and every callback-table entry, one level into
    nested role dicts, keyed by where it lives."""
    seen = {}
    for module in MODULES:
        for key, value in vars(module).items():
            seen[(module.__name__, key)] = value
    for name in tables:
        for key, entry in getattr(presets, name).items():
            seen[(name, key)] = entry
            if isinstance(entry, dict):
                for role, fn in entry.items():
                    seen[(name, key, role)] = fn
    return seen


def _scaled_config(tmp_path):
    config = dict(get_preset("hammerstein-separable"), modulus_scale=1.5)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(config))
    return ["analyze", "--config", str(path)]


def _tabulated_config(tmp_path):
    config = {"kind": "scalar_profile", "center_shift": 0.1, "radius": 1.0,
              "modulus": {"type": "tabulated", "abscissae": [0.0, 0.3, 0.7, 1.0],
                          "ordinates": [0.1, 0.25, 0.5, 0.9]}}
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps(config))
    return ["solve", "--config", str(path)]


# (arguments, combine_moduli spans, tabulated-modulus nodes) of one traced
# run;
# the urysohn and composition presets declare power-sum moduli, read
# without sampling; a tabulated scalar profile is read from its config, not tabulated,
# and the traced modulus wraps it directly; no run samples a kernel table:
# the Hammerstein presets' kernels are read through their factors, the L_p
# preset's Zaanen estimate included
@pytest.mark.parametrize("make_args,combines,table_nodes", [
    (lambda tmp_path: ["solve", "--preset", "hammerstein-separable"], 1, 0),
    (_scaled_config, 1, 0),   # combine_moduli([m], [scale]) of the wrapped modulus
    (lambda tmp_path: ["analyze", "--preset", "urysohn"], 0, 0),
    (lambda tmp_path: ["analyze", "--preset", "composition"], 0, 0),
    (_tabulated_config, 0, 0),
    (lambda tmp_path: ["solve", "--preset", "hammerstein-lp"], 1, 0),
], ids=["solve-preset", "analyze-modulus-scale", "analyze-urysohn",
        "analyze-composition", "solve-tabulated", "solve-lp"])
def test_traced_run_writes_the_untraced_document(tmp_path, make_args, combines,
                                                 table_nodes):
    tracing = _load_tracing()
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    args = make_args(tmp_path) + ["--out"]
    assert main(args + [str(plain)]) == 0

    before = _snapshot(tracing.CALLBACK_TABLES)
    tracer = tracing.Tracer()
    tracer.install(majorfix)
    try:
        assert cli.analyze is not before[("majorfix.cli", "analyze")]
        assert operators.combine_moduli is not before[("majorfix.operators",
                                                       "combine_moduli")]
        assert main(args + [str(traced)]) == 0
    finally:
        tracer.uninstall()
    after = _snapshot(tracing.CALLBACK_TABLES)

    assert traced.read_bytes() == plain.read_bytes()
    counts = tracer.analyse()["count"]
    assert counts["moduli.tabulate.combine_moduli"] == combines
    assert counts.get("discretize.kernel_table", 0) == 0
    assert tracer.counts["moduli.table_nodes"] == table_nodes
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
