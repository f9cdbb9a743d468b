"""The export table: what each module lists in __all__, `afd` re-exports."""

import importlib
import pkgutil
import types

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
