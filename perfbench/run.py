"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced pass.  Lines before it, starting with ``#``, carry the
machine, the probe timings, sample counts and plan quality.  A JSON
record of the run, and with ``--trace 1`` its spans, go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPS = 3

#: end-to-end metric -> unit (see BENCHMARK.json)
END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the core count (before NumPy loads)."""
    n = os.cpu_count() or 1
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        choices=("bench", "smoke"),
        default="bench",
        help="universe size: the benchmark's, or the small preset for smoke tests",
    )
    return ap.parse_args(argv)


def one_op(wl, i: int, tr, errors: list) -> tuple[int, float, float, bool]:
    """prepare → probe → timed run → probe → check; returns
    ``(key, seconds, probe, ok)`` with the mean of the two probes."""
    key = i % wl.min_ops
    prep = wl.prepare(i)
    gc.collect()  # each op starts from a swept heap, outside the timer
    import harness

    before = harness.probe_seconds(repeats=1)
    tr.begin_op(key)
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out = wl.run(prep, tr)
    except Exception:
        errors.append(f"op {i} raised:\n{traceback.format_exc()}")
        return key, time.perf_counter() - t0, before, False
    seconds = time.perf_counter() - t0
    probe = (before + harness.probe_seconds(repeats=1)) / 2
    try:
        wl.check(prep, out)
    except Exception:
        errors.append(f"op {i} failed its check:\n{traceback.format_exc()}")
        return key, seconds, probe, False
    return key, seconds, probe, True


def run(args) -> dict:
    import harness
    from workloads import PER_LAYER, WORKLOADS, layer_metrics, params_for

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    cls = WORKLOADS[args.workload]
    params = params_for(cls, args.scale)
    null = harness.NullTracer()
    tr = harness.Tracer() if args.trace else null
    errors: list[str] = []
    attempted = failed = 0

    env = harness.environment()
    probe_start = harness.probe_seconds()

    # Warm-up outside every timer: one op on a small universe loads lazy
    # imports and first-call paths.
    from repro.workload.params import WorkloadParams

    warm = cls(WorkloadParams.small(), args.seed + 1)
    warm.setup(null)
    one_op(warm, 0, null, [])
    del warm

    setup_samples = []
    for _ in range(SETUP_REPS):
        wl = cls(params, args.seed)
        gc.collect()
        before = harness.probe_seconds(repeats=1)
        t0 = time.perf_counter()
        wl.setup(tr)
        seconds = time.perf_counter() - t0
        probe = (before + harness.probe_seconds(repeats=1)) / 2
        setup_samples.append((seconds, probe))

    # The loop, probes and checks included, runs for ``--seconds``, so a
    # run's length does not depend on how its time splits between them.
    samples: list[tuple[int, float, float]] = []
    deadline = time.perf_counter() + args.seconds
    while len(samples) < wl.min_ops or time.perf_counter() < deadline:
        key, seconds, probe, ok = one_op(wl, len(samples), null, errors)
        samples.append((key, seconds, probe))
        attempted += 1
        failed += not ok
        if len(samples) == wl.min_ops:
            # after one op per input, so it does not grow with run length
            rss = harness.peak_rss_mib()

    quality = {}
    attempted += 1  # the quality replay is an operation that can fail too
    try:
        quality = wl.quality()
    except Exception:
        errors.append(f"quality failed:\n{traceback.format_exc()}")
        failed += 1

    op_s, tail, n_tail = harness.summarize(samples)
    setup_s = harness.median([harness.scaled(t, p) for t, p in setup_samples])
    values = {
        "op_s": op_s,
        "setup_s": setup_s,
        "peak_rss_mib": rss,
    }
    units = dict(END_TO_END)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "env": env,
        "op_samples": samples,
        "setup_samples": setup_samples,
        "tail_inputs": n_tail,
        "quality": quality,
    }

    if args.trace:
        untraced: dict[int, list[float]] = {}
        for key, s, _ in samples:
            untraced.setdefault(key, []).append(s)
        traced = 0.0
        baseline = 0.0
        for j in range(wl.min_ops):
            key, seconds, _, ok = one_op(wl, j, tr, errors)
            attempted += 1
            failed += not ok
            traced += seconds
            baseline += sum(untraced[key]) / len(untraced[key])
        values = layer_metrics(wl, tr, wl.min_ops, SETUP_REPS, quality or _no_quality())
        values["trace.overhead_share"] = traced / baseline
        values["trace.coverage"] = tr.coverage("op")
        values["op_tail_s"] = tail
        units = dict(PER_LAYER)
        tr.dump(
            OUT / f"{args.workload}-seed{args.seed}-spans.json",
            {"workload": args.workload, "seed": args.seed, "env": env},
        )

    record["probe_s"] = {"start": probe_start, "end": harness.probe_seconds()}
    record["metrics"] = values
    record["errors"] = errors
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    for err in errors:
        print(err, file=sys.stderr)
    print("# env " + json.dumps(env))
    print(
        f"# {args.workload} seed={args.seed}: {len(samples)} ops over "
        f"{wl.min_ops} inputs, op_s {op_s:.4f} s, op_tail_s {tail:.4f} s "
        f"(mean of the slowest {n_tail}); unscaled median op "
        f"{harness.median([s for _, s, _ in samples]):.4f} s at median probe "
        f"{harness.median([p for _, _, p in samples]):.4f} s; "
        f"set-up (s, probe) {[(round(s, 4), round(p, 4)) for s, p in setup_samples]}; "
        f"probe start {probe_start:.4f} s end {record['probe_s']['end']:.4f} s; "
        f"failed_op_share {failed / attempted:.4f}"
    )
    print("# quality " + json.dumps(quality))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _no_quality() -> dict:
    return dict.fromkeys(
        ("objective_D", "page_time_mean_s", "page_time_p95_s", "repo_load_ratio"), 0.0
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    cap_threads()
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
