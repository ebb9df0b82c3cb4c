"""Shared lazy-import machinery: PEP-562 exports and the NumPy seam.

The scheduling/simulation/planner stack must import without NumPy
(``numpy`` is an optional extra), but the package ``__init__`` modules
also export the NumPy-backed numerical layers.  :func:`lazy_exports`
builds the module-level ``__getattr__``/``__dir__`` pair that defers
those imports until first attribute access.

:func:`optional_numpy` is the one place that decides *when* NumPy is
imported.  A cold ``plan()``, ``whatif()``, ``optimize()`` or service
worker never runs a vectorized path, so NumPy's import, a large share
of a process's start-up time and resident memory, happens only when a
batched kernel first needs it: ``execute_many`` over several bindings,
Monte Carlo jitter factors or ``VocabPartition``'s array helpers.
"""

from __future__ import annotations

import sys
from functools import cache
from importlib import import_module
from importlib.util import find_spec
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


@cache
def _numpy_installed() -> bool:
    """Whether NumPy can be imported, decided without importing it.

    A finder that raises while probing counts as "absent" — the same
    answer a failed ``import numpy`` would have given.
    """
    try:
        return find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


def is_ndarray(value) -> bool:
    """Whether ``value`` is a NumPy array.  Never imports NumPy: no
    array can exist before NumPy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


class _DeferredNumpy:
    """An installed NumPy, imported on first attribute access.

    That access swaps the module into the owner's global slot, so every
    later lookup is a plain global read.  A slot a test has set to
    ``None`` (the pure-Python paths) is left alone.
    """

    __slots__ = ("_owner", "_slot")

    def __init__(self, owner: dict, slot: str) -> None:
        self._owner = owner
        self._slot = slot

    def __getattr__(self, attr: str):
        module = import_module("numpy")
        if self._owner.get(self._slot) is self:
            self._owner[self._slot] = module
        return getattr(module, attr)

    def __repr__(self) -> str:
        return "<numpy, imported on first use>"


def optional_numpy(module_globals: dict, slot: str):
    """Initial value of ``module_globals[slot]``, a module's NumPy handle.

    ``None`` when NumPy is not installed, so ``slot is None`` selects
    the pure-Python paths; otherwise a stand-in that imports NumPy the
    first time one of its attributes is read and then replaces itself
    with the module.
    """
    if not _numpy_installed():
        return None
    return _DeferredNumpy(module_globals, slot)
