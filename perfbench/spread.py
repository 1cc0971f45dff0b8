"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan-cold --seeds 0-9 --seconds 20

Each seed is one ``perfbench/run.py`` process, run one after another.
For every metric the table gives the median of the per-run values, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, which is (Q3 - Q1) / median.  The probe columns show how
fast the machine was at the start and end of each run, so a noisy box
can be told apart from a regression.  The summary is also written to
``perfbench/out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="'0-9' or '1,4,7'")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(
            (HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text()
        )
        runs.append(
            {"seed": seed, "result": result, "probe_s": record["probe_s"], "wall_s": wall}
        )
        probe = record["probe_s"]
        print(
            f"seed {seed}: wall {wall:.1f} s correct={result['correct']} "
            f"attempted={result['attempted']} "
            f"failed={result['failed']} probe {probe['start']:.4f}/{probe['end']:.4f} s "
            + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if args.trace == 0
            ),
            flush=True,
        )

    summary = {}
    print(f"\n{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values}
        print(f"{name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.4f}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
