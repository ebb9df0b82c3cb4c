"""Shared PEP-562 lazy-export machinery.

The scheduling/simulation/planner stack must import without NumPy
(``numpy`` is an optional extra), but the package ``__init__`` modules
also export the NumPy-backed numerical layers.  :func:`lazy_exports`
builds the module-level ``__getattr__``/``__dir__`` pair that defers
those imports until first attribute access.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable


def lazy_exports(
    module_name: str, exports: dict[str, str], module_globals: dict
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` implementing lazy module exports.

    ``exports`` maps attribute name → defining module.  Resolved values
    are cached into ``module_globals`` so each import happens once.
    """

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        value = getattr(import_module(target), name)
        module_globals[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(module_globals) | set(exports))

    return __getattr__, __dir__

