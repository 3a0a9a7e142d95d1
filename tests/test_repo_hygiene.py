"""Repository hygiene: examples, benchmarks and tools stay importable.

Examples, benchmark files and tools are exercised manually / by the
benchmark runner; this guard keeps them from silently rotting when the
library API moves (compile + import-resolution check, no execution).
Library modules are documented, every library definition is referenced
outside the tests, only the engine touches its own event heap, and the
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
SCRIPT_DIRS = ("examples", "benchmarks", "benchmarks/e2e", "tools")


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


#: Where a reference keeps a definition alive: the library, the
#: benchmarks, the examples and the tools.  Tests do not count.
REFERENCE_DIRS = ("src", "benchmarks", "examples", "tools")

#: Decorators that register a class by name, so the registry (and not a
#: reference in code) is what reaches it.
REGISTERING_DECORATORS = {"register_planner", "register_policy"}

#: Definitions that stay although no code references them by name:
#: qualified name -> reason.
UNREFERENCED_ALLOWED: dict[str, str] = {
    # The resource batteries (test_properties_sim.py, test_sim_resources.py)
    # read it on SerialResource and on their reference model, mid-run
    # too, where the read splits a fused chain.  It counts finished work
    # only; busy_seconds() adds the item in progress.
    "repro.sim.resources.SerialResource.busy_time": (
        "observer the pinned resource batteries read"
    ),
    # The same batteries compare it with the reference model's queued
    # work inside completion callbacks, where a deferred restart must not
    # count as waiting.  No other reader gives queued work in seconds.
    "repro.sim.resources.SerialResource.backlog": (
        "observer the pinned resource batteries read"
    ),
}


def _decorator_name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree, module: str):
    """(qualified name, bare name, node) of every class and function at
    module level or in a class body, recursively through classes."""
    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield f"{prefix}.{node.name}", node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, f"{prefix}.{node.name}")

    yield from visit(tree.body, module)


def _docstring_nodes(tree) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _all_list_nodes(tree) -> set[int]:
    """The string constants of every ``__all__ = [...]`` assignment."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                out.update(id(n) for n in ast.walk(node.value))
    return out


def _references(tree, is_init: bool) -> set[str]:
    """Names this module's code refers to, outside the definitions that
    carry those names themselves.  A package ``__init__.py`` only
    re-exports, so its imports and string export maps do not count."""
    skip = _docstring_nodes(tree) | _all_list_nodes(tree)
    found: set[str] = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and not is_init:
            name = node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and not is_init):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def unreferenced_definitions() -> list[str]:
    """Qualified names of the definitions under ``src/repro`` that no
    code in :data:`REFERENCE_DIRS` refers to by name."""
    src = REPO / "src" / "repro"
    referenced: set[str] = set()
    for directory in REFERENCE_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            referenced |= _references(
                ast.parse(path.read_text()), path.name == "__init__.py"
            )
    exported = set(repro.__all__)
    flagged = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        for qualified, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported or name in referenced:
                continue
            if isinstance(node, ast.ClassDef) and REGISTERING_DECORATORS & {
                _decorator_name(d) for d in node.decorator_list
            }:
                continue
            flagged.append(qualified)
    return flagged


def test_every_definition_is_referenced_outside_the_tests():
    """Each function, method and class under ``src/repro`` is referenced
    by name from ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``.

    A reference is a ``Name``, an ``Attribute``, an import alias, or a
    string constant equal to the name (``getattr`` dispatch, string
    export maps).  Docstrings, comments, ``__all__`` lists, re-exports
    in a package ``__init__.py`` (its imports and string export maps)
    and references inside a definition of the same name do not count.
    Dunder names, names in ``repro.__all__`` and classes decorated with
    ``register_planner`` or ``register_policy`` are exempt by rule;
    anything else that stays is in :data:`UNREFERENCED_ALLOWED` with its
    reason.

    The scan matches bare names, not bindings: a definition is kept alive
    by any reference to another definition, attribute or variable of the
    same name.  So it finds only dead code whose name is unique, and it
    does not prove the rest is reached.
    """
    flagged = [
        name for name in unreferenced_definitions()
        if name not in UNREFERENCED_ALLOWED
    ]
    assert not flagged, (
        "referenced only by tests (delete, move into the tests, or "
        f"allowlist with a reason): {flagged}"
    )


def test_the_allowlist_names_only_live_exemptions():
    """An allowlisted definition that is gone, or referenced after all,
    leaves the allowlist."""
    stale = set(UNREFERENCED_ALLOWED) - set(unreferenced_definitions())
    assert not stale, f"stale allowlist entries: {sorted(stale)}"
