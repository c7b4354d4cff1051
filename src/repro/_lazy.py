"""Lazy package exports (PEP 562): ``from repro.ppr import Fora`` without
``import repro.ppr`` paying for every submodule.

The serving front door is a control plane — sockets, pipes, versions and
the update log — and must not load numpy, yet it needs names that live
in packages whose other exports do (``repro.graph.EdgeUpdate``,
``repro.evaluation.get_dataset``).  A package ``__init__`` therefore
declares *where* each export lives and resolves it on first access::

    __all__ = ["DynamicGraph", "EdgeUpdate"]
    __getattr__, __dir__ = lazy_exports(
        __name__, {"digraph": ["DynamicGraph"], "updates": ["EdgeUpdate"]}
    )

with the real imports repeated under ``TYPE_CHECKING`` for type checkers
and editors.  A resolved name is stored on the package, so the hook runs
once per name.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence
from importlib import import_module
from types import ModuleType


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule of ``package`` to the names the package
    re-exports from it.
    """
    module = sys.modules[package]
    origin = {
        name: submodule for submodule, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(module).keys() | origin.keys())

    shadowed = frozenset(name for name in origin if name == origin[name])
    if shadowed:
        module.__class__ = _export_wins(shadowed)
    return __getattr__, __dir__


def _export_wins(shadowed: frozenset[str]) -> type[ModuleType]:
    """Module type for a package with an export named like its submodule.

    The import system binds every finished submodule onto its package,
    so ``repro.ppr.forward_push`` would be the function or the module
    depending on who imported what first; an eager ``__init__`` always
    left the function there, and so does this.
    """

    class LazyPackage(ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            if name in shadowed and isinstance(value, ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    return LazyPackage
