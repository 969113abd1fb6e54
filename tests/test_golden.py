"""Golden documents: `analyze`, `compare`, `solve` and `zones` of every preset.

tests/data holds the documents as the CLI writes them with --out; `solve`
has one for every preset it succeeds on (exit 0).  `zones` writes
<preset>.zones.csv and <preset>.zones.markers.csv, plus
<preset>.zones.family.csv for the multilinear presets.  A change that is
meant to keep every certificate must reproduce them byte for byte.  A change
that moves a certificate on purpose regenerates them with

    PYTHONPATH=src python -c "from majorfix.cli import main; \
from majorfix.presets import preset_names; \
[main([c, '--preset', p, '--out', f'tests/data/{p}.{c}.' + \
('csv' if c == 'zones' else 'json')]) \
for p in preset_names() for c in ('analyze', 'compare', 'solve', 'zones')]"

(the `solve` of supercritical exits 3 and writes nothing) and says why in
its description.
"""

from pathlib import Path

import pytest

from majorfix.cli import main
from majorfix.presets import get_preset, preset_names

DATA = Path(__file__).parent / "data"
COMMANDS = ("analyze", "compare", "solve")
# solve exits 3 on these: their upper majorant has no fixed point
NO_SOLVE = {"supercritical"}
CASES = [(name, command) for name in preset_names() for command in COMMANDS
         if not (command == "solve" and name in NO_SOLVE)]


def _zones_files(name: str) -> list[str]:
    tables = ["zones", "zones.markers"]
    if get_preset(name)["kind"] == "multilinear":
        tables.append("zones.family")
    return [f"{name}.{table}.csv" for table in tables]


def test_every_preset_has_golden_documents():
    expected = {f"{name}.{command}.json" for name, command in CASES}
    assert {path.name for path in DATA.glob("*.json")} == expected


def test_every_preset_has_golden_zones_tables():
    expected = {file for name in preset_names() for file in _zones_files(name)}
    assert {path.name for path in DATA.glob("*.csv")} == expected


@pytest.mark.parametrize("name,command", CASES)
def test_preset_document_reproduced(tmp_path, name, command):
    out = tmp_path / "document.json"
    assert main([command, "--preset", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("name", preset_names())
def test_preset_zones_reproduced(tmp_path, name):
    assert main(["zones", "--preset", name,
                 "--out", str(tmp_path / f"{name}.zones.csv")]) == 0
    expected = _zones_files(name)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
    for file in expected:
        assert (tmp_path / file).read_bytes() == (DATA / file).read_bytes(), file


@pytest.mark.parametrize("name", sorted(NO_SOLVE))
def test_solve_without_fixed_point_writes_nothing(tmp_path, name):
    out = tmp_path / "document.json"
    assert main(["solve", "--preset", name, "--out", str(out)]) == 3
    assert not out.exists()
