"""Every public name of majorfix has a caller inside the package."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "majorfix"


def _public_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_is_loaded_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    # console-script entry points ("module:function") are called from outside
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    exempt = set(re.findall(r':(\w+)"', scripts))
    unused = sorted(f"{module}.{name}" for module, tree in trees.items()
                    for name in _public_names(tree)
                    if name not in loaded and name not in exempt)
    assert not unused, f"public names with no caller in majorfix: {unused}"
