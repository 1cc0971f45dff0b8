"""Unit tests for the shared-memory arena (:mod:`repro.core.shm`).

Covers the packing/layout contract (alignment, dtypes, shapes,
zero-copy read-only views), the explicit-owner lifecycle
(create → attach → unlink → close, idempotence, BufferError
tolerance), and one real cross-process round trip — a forked child attaches by handle, reads,
and exits while the parent still owns the segment (the resource-tracker
scenario the module docstring documents).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.shm import ShmArena


def _sample_arrays() -> dict[str, np.ndarray]:
    return {
        "floats": np.linspace(0.0, 1.0, 7),
        "ints": np.arange(13, dtype=np.int64),
        "bools": np.array([True, False, True]),
        "empty": np.zeros(0, dtype=np.intp),
        "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
    }


class TestLayout:
    def test_round_trip_values_dtypes_shapes(self):
        src = _sample_arrays()
        arena = ShmArena.create(src)
        try:
            assert set(arena.keys()) == set(src)
            for name, expected in src.items():
                view = arena.get(name)
                assert view.dtype == expected.dtype
                assert view.shape == expected.shape
                np.testing.assert_array_equal(view, expected)
        finally:
            arena.destroy()

    def test_offsets_are_aligned(self):
        arena = ShmArena.create(_sample_arrays())
        try:
            for offset, _dtype, _shape in arena._layout.values():
                assert offset % 64 == 0
        finally:
            arena.destroy()

    def test_views_are_read_only_by_default(self):
        arena = ShmArena.create({"a": np.arange(4)})
        try:
            view = arena.get("a")
            with pytest.raises(ValueError):
                view[0] = 99
            for view in arena.arrays().values():
                assert not view.flags.writeable
        finally:
            arena.destroy()

    def test_views_are_zero_copy(self):
        arena = ShmArena.create({"a": np.arange(4, dtype=np.int64)})
        try:
            view = arena.get("a")
            assert view.base is not None  # backed by the segment
            # write through the segment itself, read through the view
            np.ndarray(4, dtype=np.int64, buffer=arena._shm.buf)[2] = -7
            assert view[2] == -7
            del view
            attached = ShmArena.attach(arena.handle)
            try:
                assert attached.get("a")[2] == -7
            finally:
                attached.close()
        finally:
            arena.destroy()

    def test_empty_mapping_allocates_minimal_segment(self):
        arena = ShmArena.create({})
        try:
            assert arena.nbytes >= 1
            assert list(arena.keys()) == []
        finally:
            arena.destroy()

    def test_handle_is_plain_data(self):
        import pickle

        arena = ShmArena.create({"a": np.arange(3)})
        try:
            handle = pickle.loads(pickle.dumps(arena.handle))
            attached = ShmArena.attach(handle)
            try:
                np.testing.assert_array_equal(attached.get("a"), np.arange(3))
            finally:
                attached.close()
        finally:
            arena.destroy()


class TestLifecycle:
    def test_unlink_is_idempotent(self):
        arena = ShmArena.create({"a": np.arange(3)})
        arena.unlink()
        arena.unlink()  # second call is a no-op, not an error
        assert arena.close()

    def test_destroy_reports_close_result(self):
        arena = ShmArena.create({"a": np.arange(3)})
        assert arena.destroy() is True

    def test_close_after_views_dropped(self):
        """Views must be dropped before ``close`` — depending on the
        platform's buffer accounting a close with live views either
        returns ``False`` (mapping pinned) or silently leaves the views
        dangling, so the protocol is: release references, then close."""
        arena = ShmArena.create({"a": np.arange(8)})
        view = arena.get("a")
        np.testing.assert_array_equal(view, np.arange(8))
        arena.unlink()
        del view
        assert arena.close() is True
        assert arena.close() is True  # idempotent

    def test_attach_after_owner_unlink_fails(self):
        arena = ShmArena.create({"a": np.arange(3)})
        handle = arena.handle
        arena.destroy()
        with pytest.raises(FileNotFoundError):
            ShmArena.attach(handle)


def _child_attach_and_check(handle, expected_bytes, queue):
    try:
        arena = ShmArena.attach(handle)
        data = bytes(arena.get("payload"))
        arena.close()
        queue.put(("ok", data == expected_bytes))
    except BaseException as exc:  # noqa: BLE001 - report to parent
        queue.put(("error", repr(exc)))


class TestCrossProcess:
    def test_fork_attach_read_then_parent_unlink(self):
        """A forked child attaches by handle and reads; the segment must
        survive the child's exit (no tracker-driven unlink) until the
        owning parent destroys it."""
        payload = np.frombuffer(os.urandom(256), dtype=np.uint8)
        arena = ShmArena.create({"payload": payload})
        try:
            ctx = multiprocessing.get_context("fork")
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_child_attach_and_check,
                args=(arena.handle, payload.tobytes(), queue),
            )
            proc.start()
            status, detail = queue.get(timeout=30)
            proc.join(timeout=30)
            assert status == "ok", detail
            assert detail is True
            # the child exited; the parent's mapping must still be intact
            np.testing.assert_array_equal(arena.get("payload"), payload)
        finally:
            arena.destroy()
