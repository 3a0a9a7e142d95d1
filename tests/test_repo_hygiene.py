"""Repository hygiene: examples and benchmarks stay importable.

Examples and benchmark files are exercised manually / by the benchmark
runner; this guard keeps them from silently rotting when the library API
moves (compile + import-resolution check, no execution).  Library modules
are documented, only the engine touches its own event heap, and the
package metadata in ``pyproject.toml`` matches the code: its version is
``repro.__version__`` and it declares every third-party import.  CI's
pinned hypothesis step names every test module that uses hypothesis."""

import ast
import py_compile
import re
import sys
from pathlib import Path

import pytest

import repro

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

REPO = Path(__file__).resolve().parent.parent
SCRIPT_DIRS = ("examples", "benchmarks")


def _scripts() -> list[Path]:
    out: list[Path] = []
    for directory in SCRIPT_DIRS:
        out.extend(sorted((REPO / directory).glob("*.py")))
    return out


@pytest.mark.parametrize("path", _scripts(), ids=lambda p: p.name)
def test_script_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("path", _scripts(), ids=lambda p: p.name)
def test_script_imports_resolve(path):
    """Every `from repro...` import in a script names a real attribute."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            module = __import__(node.module, fromlist=["_"])
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} is gone"
                )


def test_every_public_module_has_docstring():
    src = REPO / "src" / "repro"
    missing = []
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None and path.name != "__init__.py":
            missing.append(str(path.relative_to(REPO)))
        # Package __init__ files must be documented too, except empty ones.
        if path.name == "__init__.py" and path.read_text().strip():
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(REPO)))
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_function_and_class_documented():
    src = REPO / "src" / "repro"
    undocumented = []
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    undocumented.append(
                        f"{path.relative_to(REPO)}::{node.name}"
                    )
    assert not undocumented, f"missing docstrings: {undocumented}"


#: The engine's heap bookkeeping: the carrier rule, the key rule and the
#: split hooks hold only if nothing but ``sim/engine.py`` reads or writes
#: these.
ENGINE_PRIVATE = {
    "_heap", "_sequence", "_firing", "_watched", "_cancelled_in_heap",
}


def test_only_the_engine_touches_its_heap():
    src = REPO / "src" / "repro"
    engine = src / "sim" / "engine.py"
    offenders = []
    for path in src.rglob("*.py"):
        if path == engine:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ENGINE_PRIVATE:
                offenders.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: .{node.attr}"
                )
    assert not offenders, f"engine internals used outside the engine: {offenders}"


needs_tomllib = pytest.mark.skipif(
    tomllib is None, reason="tomllib needs Python >= 3.11"
)


def _project() -> dict:
    return tomllib.loads((REPO / "pyproject.toml").read_text())["project"]


def _names(requirements) -> set[str]:
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in requirements}


@needs_tomllib
def test_pyproject_version_is_the_package_version():
    assert _project()["version"] == repro.__version__


def _third_party_imports() -> tuple[set[str], set[str]]:
    """(module-level, function-local) third-party top-level imports."""
    eager: set[str] = set()
    lazy: set[str] = set()

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        for module in modules:
            top = module.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                (lazy if in_function else eager).add(top)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    for path in (REPO / "src" / "repro").rglob("*.py"):
        visit(ast.parse(path.read_text()), False)
    return eager, lazy


@needs_tomllib
def test_third_party_imports_are_declared():
    """A module-level import needs a dependency; one made inside a
    function may be an optional extra instead."""
    project = _project()
    required = _names(project["dependencies"])
    optional = set()
    for extra in project.get("optional-dependencies", {}).values():
        optional |= _names(extra)
    eager, lazy = _third_party_imports()
    assert "numpy" in eager
    assert eager <= required, f"undeclared dependencies: {eager - required}"
    assert lazy <= required | optional, (
        f"undeclared optional dependencies: {lazy - required - optional}"
    )


def test_ci_pins_every_hypothesis_module():
    """Every test module that imports hypothesis runs in CI's step with
    the pinned, derandomized profile (``HYPOTHESIS_PROFILE: ci``)."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    steps = [
        step
        for step in ci.split("\n      - ")
        if "HYPOTHESIS_PROFILE: ci" in step
    ]
    assert len(steps) == 1, "expected one pinned hypothesis step"
    pinned = set(re.findall(r"tests/(test_\w+\.py)", steps[0]))
    uses = re.compile(r"^\s*(from|import) hypothesis\b", re.MULTILINE)
    users = {
        path.name
        for path in (REPO / "tests").glob("test_*.py")
        if uses.search(path.read_text())
    }
    assert users, "no test module imports hypothesis"
    assert users <= pinned, f"not in the pinned step: {sorted(users - pinned)}"
