"""Recycled float64 work buffers for the batched Monte Carlo kernels.

A warm robust plan sweeps K = 256 jitter samples of each candidate
through arrays of about ``nodes × K`` floats, a few MiB each.
Allocated afresh per call, they went back to the operating system
between calls and every page faulted in again on the next one (about
10,000 minor faults per robust plan on an 8-device structure).  The
batched sweep (:meth:`~repro.sim.compiled.CompiledGraph.execute_many`)
and the jitter draws (:class:`~repro.scenarios.perturb.DrawStream`)
borrow their work arrays here instead and hand them back when done.

One list of spares serves every graph and thread.  Each buffer is
taken off the list when lent and put back when returned, under one
lock, so no two callers ever hold the same buffer; a request takes the
smallest spare that fits, and when none fits the new buffer takes the
place of the largest spare.  The spares hold at most :data:`CAP_BYTES`
in all: returning a buffer drops the oldest spares until it fits, and
a buffer larger than the cap is never kept, so such a request
allocates as if there were no spares.  Callers own what they hand out:
nothing a kernel returns may view a lent buffer.

A leaf module: it imports nothing from :mod:`repro` but the NumPy seam,
and only the NumPy paths call it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

from repro._lazy import optional_numpy

_np = optional_numpy(globals(), "_np")

#: Most bytes the spares hold in all (a constant, not a knob).  A warm
#: robust plan lends up to 17 MiB at once on ``explore-warm``'s
#: structures; a 16-device ranking at m=32 lends more than the cap, and
#: the spares keep what fits.
CAP_BYTES = 32 << 20

_spares: list = []  # flat float64 buffers, oldest first
_lock = threading.Lock()


def lend(shape: tuple):
    """An uninitialized C-contiguous float64 array of ``shape``: a view
    of the smallest spare that fits, or of a new buffer.  Hand it back
    with :func:`give_back` once nothing reads it."""
    size = math.prod(shape)
    with _lock:
        fits = [i for i, spare in enumerate(_spares) if spare.size >= size]
        if fits:
            buffer = _spares.pop(min(fits, key=lambda i: _spares[i].size))
            return buffer[:size].reshape(shape)
        if _spares and size * 8 <= CAP_BYTES:
            # The new buffer will take the place of the largest spare:
            # it serves whatever that one could.
            del _spares[max(range(len(_spares)), key=lambda i: _spares[i].size)]
    return _np.empty(size).reshape(shape)


def give_back(*arrays) -> None:
    """Return the buffers of arrays :func:`lend` handed out, within the
    cap; the caller must not touch the arrays afterwards."""
    for array in arrays:
        buffer = array.base
        if buffer.nbytes > CAP_BYTES:
            continue
        with _lock:
            _spares.append(buffer)
            held = sum(spare.nbytes for spare in _spares)
            while held > CAP_BYTES:
                held -= _spares.pop(0).nbytes


@contextmanager
def lent(*shapes: tuple):
    """:func:`lend` one array per shape for the ``with`` block, and
    :func:`give_back` them when it ends, however it ends."""
    arrays = [lend(shape) for shape in shapes]
    try:
        yield arrays
    finally:
        give_back(*arrays)


def held_bytes() -> int:
    """Bytes the spares hold now."""
    with _lock:
        return sum(spare.nbytes for spare in _spares)


def clear() -> None:
    """Drop every spare (:func:`~repro.harness.experiments.clear_structural_caches`
    calls this)."""
    with _lock:
        _spares.clear()
