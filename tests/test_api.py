"""Every public name of majorfix has a caller inside the package, and every
defaulted parameter of a public function is passed somewhere."""

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


# where a default may be overridden: the package, the benchmark that drives
# main(argv), and the acceptance tests that spell out the paper's criteria
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]


def _defaulted_parameters(function):
    """(name, position) of each parameter with a default; None for keyword-only."""
    args = function.args
    positional = args.posonlyargs + args.args
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passed(call, name, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and index < len(call.args)


def test_every_default_of_a_public_function_is_passed_somewhere():
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        public = set(_public_names(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                never += [f"{node.name}.{name}"
                          for name, index in _defaulted_parameters(node)
                          if not any(_passed(call, name, index)
                                     for call in calls.get(node.name, []))]
    assert not never, f"defaults no caller overrides: {sorted(never)}"
