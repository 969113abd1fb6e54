"""Golden documents: `analyze` and `compare` of every shipped preset.

tests/data holds the documents as the CLI writes them with --out.  A change
that is meant to keep every certificate must reproduce them byte for byte.
A change that moves a certificate on purpose regenerates them with

    PYTHONPATH=src python -c "from majorfix.cli import main; \
from majorfix.presets import preset_names; \
[main([c, '--preset', p, '--out', f'tests/data/{p}.{c}.json']) \
for p in preset_names() for c in ('analyze', 'compare')]"

and says why in its description.
"""

from pathlib import Path

import pytest

from majorfix.cli import main
from majorfix.presets import preset_names

DATA = Path(__file__).parent / "data"
COMMANDS = ("analyze", "compare")


def test_every_preset_has_golden_documents():
    expected = {f"{name}.{command}.json"
                for name in preset_names() for command in COMMANDS}
    assert {path.name for path in DATA.glob("*.json")} == expected


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", preset_names())
def test_preset_document_reproduced(tmp_path, name, command):
    out = tmp_path / "document.json"
    assert main([command, "--preset", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.{command}.json").read_bytes()
