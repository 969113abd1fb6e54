"""Golden documents: `analyze`, `compare` and `solve` of every shipped preset.

tests/data holds the documents as the CLI writes them with --out; `solve`
has one for every preset it succeeds on (exit 0).  A change that is meant to
keep every certificate must reproduce them byte for byte.  A change that
moves a certificate on purpose regenerates them with

    PYTHONPATH=src python -c "from majorfix.cli import main; \
from majorfix.presets import preset_names; \
[main([c, '--preset', p, '--out', f'tests/data/{p}.{c}.json']) \
for p in preset_names() for c in ('analyze', 'compare', 'solve')]"

(the `solve` of supercritical exits 3 and writes nothing) and says why in
its description.
"""

from pathlib import Path

import pytest

from majorfix.cli import main
from majorfix.presets import preset_names

DATA = Path(__file__).parent / "data"
COMMANDS = ("analyze", "compare", "solve")
# solve exits 3 on these: their upper majorant has no fixed point
NO_SOLVE = {"supercritical"}
CASES = [(name, command) for name in preset_names() for command in COMMANDS
         if not (command == "solve" and name in NO_SOLVE)]


def test_every_preset_has_golden_documents():
    expected = {f"{name}.{command}.json" for name, command in CASES}
    assert {path.name for path in DATA.glob("*.json")} == expected


@pytest.mark.parametrize("name,command", CASES)
def test_preset_document_reproduced(tmp_path, name, command):
    out = tmp_path / "document.json"
    assert main([command, "--preset", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(NO_SOLVE))
def test_solve_without_fixed_point_writes_nothing(tmp_path, name):
    out = tmp_path / "document.json"
    assert main(["solve", "--preset", name, "--out", str(out)]) == 3
    assert not out.exists()
