"""Measurement machinery shared by every workload.

* :class:`Tracer` records spans (name, op id, parent, start, end) and
  counts at the layer boundaries the benchmark calls into; it keeps them
  in memory and writes them out when the run ends.  :class:`NullTracer`
  is the untraced stand-in: every hook is a no-op, so the end-to-end
  numbers come from runs that pay nothing for tracing.
* :func:`summarize` turns an op loop's samples into the end-to-end
  op times, each scaled by a machine-speed probe timed around it
  (:func:`scaled`); :func:`tail` is the mean of the slowest quarter.
* :func:`probe_seconds` times a fixed machine-speed loop, and
  :func:`environment` names the machine a result was measured on.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class NullTracer:
    """Untraced run: spans and counts cost one no-op call."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def begin_op(self, key) -> None:
        pass


class Tracer(NullTracer):
    """Span and counter recorder for the traced run.

    Spans nest: each records the span open when it started as its
    parent, and the op it belongs to (``op`` is ``None`` during set-up).
    Counts made while an op is open are attributed to that op.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_key = None

    def begin_op(self, key) -> None:
        self._op = 0 if self._op is None else self._op + 1
        self._op_key = key

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "op": self._op,
            "key": self._op_key,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    # ------------------------------------------------------------------
    def seconds(self, name: str, op_only: bool = True) -> float:
        """Total duration of the spans called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (s["op"] is not None or not op_only)
        )

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def coverage(self, op_span: str) -> float:
        """Share of the ``op_span`` spans' time covered by their children."""
        total = self.seconds(op_span)
        ids = {s["id"] for s in self.spans if s["name"] == op_span}
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return covered / total if total else 0.0

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["self_seconds"] = self.self_seconds()
        doc["counts"] = self.counts
        path.write_text(json.dumps(doc, indent=1, default=_jsonable))


def _jsonable(value):
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return str(value)


#: probe reading, in seconds, that op and set-up times are scaled to
#: (the probe's reading on an idle 2-core Xeon box)
PROBE_REFERENCE_S = 0.020


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int]:
    """``(value, n)``: the mean of the slowest quarter of ``values``
    (``n`` of them, at least one).

    A run has a dozen or a few dozen inputs, too few for a percentile
    with ten samples beyond it; the mean of the slowest quarter is the
    tail statistic that stays steady at that size.
    """
    ordered = sorted(values)
    n = max(1, len(ordered) // 4)
    return statistics.fmean(ordered[-n:]), n


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` as they would read on a machine whose probe loop takes
    :data:`PROBE_REFERENCE_S`.

    The probe is timed just before and just after the work it scales,
    and ``probe`` is the mean of the two readings.  On a shared
    2-core box the machine's speed swings by up to 1.5x for a minute
    and more at a time, longer than a run; the probe slows with it, so
    the scaled time stays put while the raw one does not.  The probe
    loop is the benchmark's own code: a change to the program moves the
    scaled time exactly as it moves the raw one.
    """
    return seconds * PROBE_REFERENCE_S / probe


def summarize(samples) -> tuple[float, float, int]:
    """``(mean, tail, n_tail)`` of an op loop's ``(key, seconds, probe)``
    samples.

    Ops with the same key repeat the same input; that input's time is
    the median of its scaled op times.  The mean and tail are then taken over
    the inputs: the mean averages out how much inputs drawn from one
    seed differ, the tail is the slow inputs.
    """
    per_key: dict = {}
    for key, seconds, probe in samples:
        per_key.setdefault(key, []).append(scaled(seconds, probe))
    inputs = [median(v) for v in per_key.values()]
    value, n_tail = tail(inputs)
    return statistics.fmean(inputs), value, n_tail


# ----------------------------------------------------------------------
# machine
# ----------------------------------------------------------------------
def probe_seconds(repeats: int = 3) -> float:
    """Median time of a fixed interpreter-plus-NumPy loop.

    Timed at the start and end of each run, and around every op and
    set-up (see :func:`scaled`), it tells a slow or busy machine apart
    from a slower program: the loop itself never changes.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) % 7
        a = np.arange(100_000, dtype=float)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        times.append(time.perf_counter() - t0)
    return median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
