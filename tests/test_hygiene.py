"""Static checks on the library sources."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mckvlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# import name -> distribution name, where the two differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _third_party_imports(path: Path) -> dict[str, int]:
    """Top-level modules imported absolutely that are not in the standard library."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names:
                found.setdefault(top, node.lineno)
    return found


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("_", "-")
            for req in project["dependencies"]}


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_third_party_imports_are_declared(path):
    declared = _declared_dependencies()
    missing = [f"{path.name}:{line} {name}"
               for name, line in sorted(_third_party_imports(path).items())
               if DISTRIBUTIONS.get(name, name).lower() not in declared]
    assert missing == []


def _defined_names(path: Path) -> list[tuple[str, bool]]:
    """Module-level functions and classes of ``path`` and the methods of its
    classes, each with whether it is a method, less dunders and the CLI
    commands, whose decorators register them by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append((node.name, False))
            names += [(f.name, True) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef) and not (path.name == "cli.py"
                                                        and node.decorator_list):
            names.append((node.name, False))
    return [(n, m) for n, m in names if not (n.startswith("__") and n.endswith("__"))]


def _named_words() -> set[str]:
    """Every word of src/, tests/ and perfbench/ outside a def or class line's
    own name; the re-exports of the package's __init__ are not uses."""
    texts = [p.read_text() for top in ("src", "tests", "perfbench")
             for p in sorted((ROOT / top).rglob("*.py")) if p != SRC / "__init__.py"]
    return set(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", "", "\n".join(texts))))


def test_every_library_name_is_used_somewhere():
    # a word match, since perfbench/tracer.py names its targets in strings
    words = _named_words()
    unused = [f"{path.name} {name}" for path in MODULES for name, _ in _defined_names(path)
              if name not in words]
    assert unused == []


# The library names that library code and perfbench/ never reference, each
# with the library path that the tests check against it.
TEST_ONLY = {
    "dealiased_product": "Grid.transport_div, one axis term at a time",
    "second_derivative_matrix": "Linearisation.second_derivative_vjp",
    "eval_batch": "ObservationOperator, on one trajectory",
    "zero_mode": "the mass conservation of solve_mckv",
    "load": "Trajectory.save and Dataset.save, whose artifacts it reads back",
    "from_file": "load_yaml and ExperimentConfig, the config reader of the CLI",
    "posterior_energy": "LikelihoodEvaluator.loglik_and_grad plus the prior; "
                        "the energy of the MAP warm start (ROADMAP item 3)",
}


def _references(paths) -> tuple[set[str], set[str]]:
    """(names, attributes and string constants) of ``paths``, docstrings
    left out; a def or class statement does not reference its own name."""
    names, reached = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                reached.add(node.value)  # perfbench/tracer.py looks its targets up by name
    return names, reached


def _unreferenced(defined, paths) -> list[str]:
    """The (name, is a method) pairs of ``defined`` that ``paths`` never
    reference: a method only through an attribute or a string, since a bare
    name of its spelling, such as a local ``ok``, is another binding."""
    names, reached = _references(paths)
    return [name for name, method in defined
            if name not in reached and (method or name not in names)]


def test_no_library_name_is_reached_from_the_tests_alone():
    defined = [pair for path in MODULES for pair in _defined_names(path)]
    unreferenced = _unreferenced(defined, MODULES + PERFBENCH)
    assert [name for name in unreferenced if name not in TEST_ONLY] == []
    # an entry whose name is gone, or now has a library caller, goes too
    names = {name for name, _ in defined}
    assert sorted(name for name in TEST_ONLY
                  if name not in names or name not in unreferenced) == []


def test_a_bare_name_does_not_reference_a_method(tmp_path):
    library, caller = tmp_path / "library.py", tmp_path / "caller.py"
    library.write_text("class Report:\n    def ok(self):\n        return True\n")
    caller.write_text("ok = Report()\nprint(ok)\n")
    defined = _defined_names(library)
    assert defined == [("Report", False), ("ok", True)]
    assert _unreferenced(defined, [caller]) == ["ok"]
    caller.write_text("print(Report().ok())\n")
    assert _unreferenced(defined, [caller]) == []
