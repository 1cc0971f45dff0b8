"""Shared-memory arena for zero-copy model shipping.

The sharded fan-out (:mod:`repro.core.shard`) ships the model's
**immutable flat columns** (``MODEL_COLUMN_FIELDS`` of
:mod:`repro.core.types`) to its worker processes.  They are identical
for every worker and every run over the same model, so pickling them
per run and unpickling them per worker would be wasted work.

:class:`ShmArena` packs a ``{name: ndarray}`` mapping into **one**
``multiprocessing.shared_memory`` segment with an 64-byte-aligned
layout, and re-exposes the arrays as zero-copy read-only views on
attach.  The picklable :attr:`ShmArena.handle` (segment name + layout)
is all that crosses the process boundary.  Where
:func:`shm_available` is false the sharded fan-out pickles the model
instead.

Lifecycle (and the CPython < 3.13 resource-tracker pitfall)
-----------------------------------------------------------
``SharedMemory.__init__`` registers the segment with the process's
resource tracker *unconditionally* — on attach as well as on create
(CPython gh-82300).  Two failure modes follow.  A pool worker forked
*before* the parent's tracker existed spawns its own tracker on first
attach, and that tracker **unlinks** the parent's live segment when the
worker exits.  A worker forked *after* shares the parent's tracker, so
any per-process unregister silently erases the creator's registration
too (the tracker keys by name, not by process).  Since "who registered"
cannot be controlled, the arena takes the tracker out of the picture
entirely: **every** create and attach unregisters immediately, and
:meth:`unlink` re-registers just before unlinking so the library's own
unregister-on-unlink finds the name (no tracker KeyError noise).
Cleanup is therefore explicit — the creating (*owner*) process must
call :meth:`unlink`/:meth:`destroy` (the sharded kernel's parent owns
its model arenas and destroys them on LRU eviction and from its
``atexit`` pool shutdown; workers only attach).

Callers must drop every view before :meth:`close`.  Depending on the
platform's buffer accounting, closing with live views either raises
:class:`BufferError` inside the stdlib (caught here — ``close``
returns ``False`` and the mapping stays pinned until the views die) or
succeeds and leaves the views **dangling** (reads segfault) — CPython
3.11 + NumPy on Linux does the latter, because NumPy's buffer export
lands on the memoryview chain rather than the ``mmap``.  The worker
model cache in :mod:`repro.core.shard` therefore closes an arena only
once the model viewing it is unreachable.  Once the owner has unlinked,
the segment's memory is reclaimed when the last mapping goes away (at
process exit at the latest).

This module sits below the core layer proper: it imports nothing above
``util`` (enforced by ``scripts/check_layering.py``), so any layer —
including future non-core pools — can use it without dragging the
kernels in.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["ShmArena", "shm_available"]

_ALIGN = 64


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    try:
        from multiprocessing import shared_memory
    except Exception:  # pragma: no cover - platform without shm
        return False
    return hasattr(shared_memory, "SharedMemory")


def _untrack(shm) -> None:
    """Unregister ``shm`` from the resource tracker (see module docstring).

    Best-effort — tracker internals vary across CPython versions, and a
    failed unregister only risks a spurious unlink at tracker exit,
    never data loss in the explicit-owner protocol used here.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running / renamed
        pass


def _retrack(shm) -> None:
    """Re-register ``shm`` so the next unregister (inside
    ``SharedMemory.unlink``) balances instead of KeyError-ing in the
    tracker process."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running / renamed
        pass


class ShmArena:
    """Named NumPy arrays packed into one shared-memory segment.

    Construct with :meth:`create` (allocates + copies) or
    :meth:`attach` (maps an existing segment from its picklable
    :attr:`handle`).  The creating process owns the segment and must
    eventually call :meth:`unlink` (or :meth:`destroy`); attaching
    processes only :meth:`close`.
    """

    def __init__(self, shm, layout: dict):
        self._shm = shm
        self._layout = layout
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmArena":
        """Allocate a segment holding copies of ``arrays``.

        The caller owns the segment and must eventually :meth:`unlink`
        it; tracker registration is dropped (see the module docstring).
        """
        from multiprocessing import shared_memory

        layout: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        staged: list[tuple[np.ndarray, int]] = []
        offset = 0
        for name, arr in arrays.items():
            a = np.ascontiguousarray(arr)
            offset = -(-offset // _ALIGN) * _ALIGN
            layout[name] = (offset, a.dtype.str, a.shape)
            staged.append((a, offset))
            offset += a.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        _untrack(shm)
        for a, off in staged:
            dst = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=off)
            dst[...] = a
        return cls(shm, layout)

    @classmethod
    def attach(cls, handle: dict) -> "ShmArena":
        """Map an existing segment from a :attr:`handle` (read side)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=handle["name"])
        _untrack(shm)
        return cls(shm, dict(handle["layout"]))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def handle(self) -> dict:
        """Picklable descriptor: segment name plus the array layout."""
        return {"name": self._shm.name, "layout": self._layout}

    @property
    def nbytes(self) -> int:
        """Size of the backing segment in bytes."""
        return int(self._shm.size)

    def keys(self):
        """The packed array names."""
        return self._layout.keys()

    def get(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one packed array."""
        offset, dtype, shape = self._layout[name]
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
        )
        view.flags.writeable = False
        return view

    def arrays(self) -> dict[str, np.ndarray]:
        """All packed arrays as read-only views, keyed by name."""
        return {name: self.get(name) for name in self._layout}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> bool:
        """Drop this process's mapping; ``False`` if views still pin it.

        Only call after releasing every view from :meth:`get` /
        :meth:`arrays` — on platforms where NumPy's export does not pin
        the mmap (CPython 3.11 + Linux), a close with live views
        *succeeds* and the views dangle (see the module docstring).  A
        ``False`` return is not a leak in the owner-driven protocol:
        the mapping is released when the views die or at process exit,
        and the memory itself is reclaimed once the owner has unlinked.
        """
        if self._closed:
            return True
        try:
            self._shm.close()
        except BufferError:
            return False
        self._closed = True
        return True

    def unlink(self) -> None:
        """Remove the segment name (owner's responsibility, idempotent)."""
        if self._unlinked:
            return
        try:
            _retrack(self._shm)  # balance unlink's internal unregister
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        self._unlinked = True

    def destroy(self) -> bool:
        """:meth:`unlink` then :meth:`close`; returns the close result."""
        self.unlink()
        return self.close()
