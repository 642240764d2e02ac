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


def _references(nodes, docstrings: set[int]) -> tuple[set[str], set[str]]:
    """(names, attributes and string constants) in ``nodes``, less the
    constants whose ids are in ``docstrings``; a def or class statement does
    not reference its own name."""
    names, attrs = set(), set()
    for node in (sub for n in nodes for sub in ast.walk(n)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            attrs.add(node.value)  # perfbench/tracer.py looks its targets up by name
    return names, attrs


def _parse(path: Path) -> tuple[ast.Module, set[int]]:
    """The tree of ``path`` and the ids of its docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}


def _scopes(path: Path):
    """(root, definitions) of a library module, as references.

    ``root`` is the code that runs whatever else is called: the
    module-level statements and the CLI commands, whose decorators register
    them by name.  Each definition is (name, is a method, what it references
    once reached): a module-level function, a class with its decorators,
    bases, class-level statements and dunder methods, or any other method.
    The methods of a class with a base go with the class, since the base's
    code may call them by name, as click's ``Group`` calls ``cli._Group.invoke``.
    """
    tree, docstrings = _parse(path)
    root, definitions = [], []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [] if node.bases else [
                f for f in node.body if isinstance(f, ast.FunctionDef)
                and not (f.name.startswith("__") and f.name.endswith("__"))]
            own = node.decorator_list + node.bases + node.keywords
            own += [stmt for stmt in node.body if stmt not in methods]
            definitions.append((node.name, False, _references(own, docstrings)))
            definitions += [(f.name, True, _references([f], docstrings)) for f in methods]
        elif isinstance(node, ast.FunctionDef) and not (path.name == "cli.py"
                                                        and node.decorator_list):
            definitions.append((node.name, False, _references([node], docstrings)))
        else:
            root.append(node)
    return _references(root, docstrings), definitions


def _unreached(library, roots) -> list[str]:
    """The names defined in the ``library`` modules that no reached code
    references, in definition order.

    The roots are the module-level code and CLI commands of ``library`` and
    all of ``roots``.  A definition is reached when reached code references
    it, a method only through an attribute or a string, since a bare name of
    its spelling, such as a local ``ok``, is another binding; then what it
    references is reached code too.
    """
    names, attrs = set(), set()
    unreached = []
    for path in library:
        (root_names, root_attrs), definitions = _scopes(path)
        names |= root_names
        attrs |= root_attrs
        unreached += definitions
    for path in roots:
        tree, docstrings = _parse(path)
        root_names, root_attrs = _references([tree], docstrings)
        names |= root_names
        attrs |= root_attrs
    while True:
        hit = [name in attrs or (not method and name in names)
               for name, method, _ in unreached]
        if not any(hit):
            return [name for name, _, _ in unreached]
        for (_, _, (used_names, used_attrs)), h in zip(unreached, hit):
            if h:
                names |= used_names
                attrs |= used_attrs
        unreached = [d for d, h in zip(unreached, hit) if not h]


# The library names that library code and perfbench/ never reach, each with
# the library path that the tests check against it.
TEST_ONLY = {
    "dealiased_product": "Grid.transport_div, one axis term at a time",
    "eval": "ObservationOperator and tau_table, at one point of a field, "
            "a potential or a trajectory",
    "basis_tau": "tau_table, one basis mode at a time",
    "load_field": "save_field, whose files it reads back (Trajectory.load reads through it)",
    "eval_batch": "ObservationOperator, on one trajectory",
    "zero_mode": "the mass conservation of solve_mckv",
    "load": "Trajectory.save and Dataset.save, whose artifacts it reads back",
    "from_file": "load_yaml and ExperimentConfig, the config reader of the CLI",
    "posterior_energy": "LikelihoodEvaluator.loglik_and_grad plus the prior; "
                        "the energy of the MAP warm start (ROADMAP item 3)",
    "apply_transpose": "LWOperator.solve_transpose, one state at a time, through the "
                       "kernel both share",
}


# The library names that library code never reaches and perfbench/ does, each
# with what perfbench/ runs it for.  Most go once the curvature-1d check moves
# to Linearisation (ROADMAP item 2).
PERFBENCH_ONLY = {
    "expected_neg_hessian": "the curvature-1d pass, away from W0; no CLI command calls it",
    "second_derivative_vjp": "expected_neg_hessian, the one caller",
    "from_mode_dict": "the basis directions of the curvature-1d check",
    "from_values": "the spectral.transform span of the tracer",
    "modes": "the basis modes of the curvature-1d check",
    "modes_in_ball": "PotentialVec.modes",
    "gram_matrix": "the curvature-1d check 'Gram columns vs stack'",
    "jacobian_columns": "the per-column Gram of the curvature-1d check",
    "jacobian_stack": "the stacked Gram of the curvature-1d check",
    "stack_to_trajectories": "the stacked Gram of the curvature-1d check",
    "mckv_second_derivative": "the curvature-1d check 'second derivative symmetric'",
    "solve_linear_lw": "the parabolic.solve_linear_lw span of the tracer",
}


def test_the_perfbench_only_names_are_listed():
    # both ways: an unlisted name perfbench/ alone reaches, and a listed name
    # that library code now reaches or perfbench/ no longer does, fail alike
    with_perfbench = _unreached(MODULES, PERFBENCH)
    only = {name for name in _unreached(MODULES, []) if name not in with_perfbench}
    assert sorted(only) == sorted(PERFBENCH_ONLY)


def test_no_library_name_is_reached_from_the_tests_alone():
    unreached = _unreached(MODULES, PERFBENCH)
    assert [name for name in unreached if name not in TEST_ONLY] == []
    # an entry that library code now reaches, or that no test names, goes too
    tests = [_parse(p) for p in TESTS if p.name != Path(__file__).name]
    names, attrs = _references([tree for tree, _ in tests], set().union(*(d for _, d in tests)))
    assert sorted(name for name in TEST_ONLY
                  if name not in unreached or name not in names | attrs) == []


def test_a_bare_name_does_not_reference_a_method(tmp_path):
    library, caller = tmp_path / "library.py", tmp_path / "caller.py"
    library.write_text("class Report:\n    def ok(self):\n        return True\n")
    caller.write_text("ok = Report()\nprint(ok)\n")
    assert _unreached([library], [caller]) == ["ok"]
    caller.write_text("print(Report().ok())\n")
    assert _unreached([library], [caller]) == []


def test_a_method_called_only_from_an_unreached_method_is_unreached(tmp_path):
    # a word or attribute scan finds .norm( and passes; Path.eval is never called
    library, caller = tmp_path / "library.py", tmp_path / "caller.py"
    library.write_text("class Field:\n    def norm(self):\n        return 0.0\n\n\n"
                       "class Path:\n    def eval(self):\n        return Field().norm()\n")
    caller.write_text("print(Path())\n")
    assert _unreached([library], [caller]) == ["Field", "norm", "eval"]
    caller.write_text("print(Path().eval())\n")
    assert _unreached([library], [caller]) == []
