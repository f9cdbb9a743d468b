"""The export table: what each module lists in __all__, `afd` re-exports."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import afd
from afd import config, errors

# the command-line module is reached through the `afd` script, not re-exported
NOT_REEXPORTED = {"cli_io"}


def _listing_modules():
    names = sorted(info.name for info in pkgutil.iter_modules(afd.__path__))
    modules = [importlib.import_module(f"afd.{name}") for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


def test_afd_reexports_every_listed_name_and_nothing_else():
    listed = set()
    for module in _listing_modules():
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists a missing {name}"
            if module.__name__.rsplit(".", 1)[1] not in NOT_REEXPORTED:
                assert getattr(afd, name) is getattr(module, name), f"afd.{name}"
                listed.add(name)
    public = {
        name
        for name, value in vars(afd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    for name in public - listed:
        # the rest of the package namespace is the tolerance table and the errors
        assert any(getattr(m, name, None) is getattr(afd, name) for m in (config, errors)), name


ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """'file:line name' for each name a top-level import binds and the module never reads.

    A name is read where it is loaded as an identifier (an attribute's
    base included) or listed in __all__.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # afd/__init__.py is left out: every import there is a re-export
    paths = [p for p in sorted(ROOT.glob("src/afd/*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
    assert len(paths) > 20
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def _bool_tests(path):
    """'file:line' of each isinstance(..., bool) call, bool alone or in a tuple."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return hits


def test_counts_and_tolerances_are_checked_by_signal_core_alone():
    # a bool test marks a hand-written count or tolerance rule; the one
    # rule is signal_core's _check_count and _check_tolerance
    paths = [p for p in sorted(ROOT.glob("src/afd/*.py")) if p.name != "signal_core.py"]
    assert len(paths) > 5
    assert [hit for path in paths for hit in _bool_tests(path)] == []
    assert _bool_tests(ROOT / "src/afd/signal_core.py")


def test_no_listed_function_takes_a_search_grid():
    # the selection grid is the package's own (config.DEFAULT_SEARCH and
    # poafd.CAPPED_SEARCH): no public function takes one
    takers = [
        f"{module.__name__}.{name}"
        for module in _listing_modules()
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and "search" in inspect.signature(getattr(module, name)).parameters
    ]
    assert takers == []


def test_the_coincidence_rule_has_one_reader():
    # hardy_atoms._coincident is the one rule for equal pole parameters
    readers = [p.name for p in sorted(ROOT.glob("src/afd/*.py")) if "DEFAULT_TOL.coincidence" in p.read_text()]
    assert readers == ["hardy_atoms.py"]
