#!/usr/bin/env python
"""Merge per-scale bench timing JSONs into one ``BENCH_trajectory.json``.

The kernel benches persist machine-readable timings under
``benchmarks/out/<scale>/BENCH_<name>.json`` (see the ``save_timings``
fixture in ``benchmarks/conftest.py``) — one file per bench per scale,
each stamped with the git revision that produced it.  Diffing the
performance trajectory across PRs therefore means opening a dozen files
per scale.  This script collects them into a single top-level document::

    {
      "generated_from": ["benchmarks/out/small/BENCH_policy_end_to_end.json", ...],
      "scales": {
        "small": {
          "policy_end_to_end": {"git_sha": ..., "headline": {...}},
          ...
        }
      }
    }

Per bench, the full payload is kept under ``"raw"`` and the
scalar-valued summary fields (medians, speedups, counts — anything
numeric or string at the top level of the payload) are duplicated under
``"headline"``, so ``git diff BENCH_trajectory.json`` shows the numbers
that move without the per-repeat noise arrays.

Usage::

    python scripts/collect_bench.py            # writes BENCH_trajectory.json
    python scripts/collect_bench.py --check    # exit 1 if the file is stale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "benchmarks" / "out"
TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"

#: Per-repeat sample arrays — kept in ``raw``, excluded from the
#: ``headline`` summary so the trajectory diff tracks medians, not noise.
_NOISE_SUFFIXES = ("_seconds", "_samples", "_times")

#: Fields a record must carry, per ``(scale, bench)``: a paper-scale
#: end-to-end number means little unless it says whether Eq. 8-10 hold
#: at exit and how far the repository is from its capacity (Eq. 9).
REQUIRED_FIELDS = {
    ("paper", "policy_end_to_end"): (
        "feasible",
        "repo_load",
        "repo_capacity",
        "repo_slack",
    ),
}


def _headline(payload: dict) -> dict:
    """Scalar summary of one bench payload (see module docstring)."""
    out: dict = {}
    for key, value in sorted(payload.items()):
        if key in ("bench", "git_sha") or key.endswith(_NOISE_SUFFIXES):
            continue
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
    return out


def collect(out_dir: pathlib.Path = OUT_DIR, strict: bool = False) -> dict:
    """Gather every ``BENCH_*.json`` under ``out_dir`` into one document.

    ``strict`` turns a malformed timing file from a skip-with-warning
    into a hard :class:`ValueError` — the ``--check`` CI mode uses it so
    a truncated or hand-mangled bench record fails the gate instead of
    silently dropping out of the trajectory.  A record missing one of
    its :data:`REQUIRED_FIELDS` counts as malformed.
    """
    sources: list[str] = []
    scales: dict[str, dict] = {}
    for path in sorted(out_dir.glob("*/BENCH_*.json")):
        scale = path.parent.name
        name = path.stem.removeprefix("BENCH_")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            if strict:
                raise ValueError(
                    f"malformed bench record {path}: {exc}"
                ) from exc
            print(f"collect_bench: skipping malformed {path}: {exc}",
                  file=sys.stderr)
            continue
        if not isinstance(payload, dict):
            if strict:
                raise ValueError(
                    f"malformed bench record {path}: expected a JSON "
                    f"object, got {type(payload).__name__}"
                )
            print(f"collect_bench: skipping malformed {path}: not an object",
                  file=sys.stderr)
            continue
        missing = [
            key
            for key in REQUIRED_FIELDS.get((scale, name), ())
            if key not in payload
        ]
        if missing:
            message = f"bench record {path} lacks {', '.join(missing)}"
            if strict:
                raise ValueError(message)
            print(f"collect_bench: {message}", file=sys.stderr)
        sources.append(str(path.relative_to(REPO_ROOT)))
        scales.setdefault(scale, {})[name] = {
            "git_sha": payload.get("git_sha"),
            "headline": _headline(payload),
            "raw": payload,
        }
    return {"generated_from": sources, "scales": scales}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify BENCH_trajectory.json matches benchmarks/out "
        "without rewriting it (exit 1 when stale)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=TRAJECTORY,
        help=f"output path (default: {TRAJECTORY.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            text = render(collect(strict=True))
        except ValueError as exc:
            print(f"collect_bench: {exc}", file=sys.stderr)
            return 1
        current = args.out.read_text() if args.out.exists() else ""
        if current != text:
            print(
                f"collect_bench: {args.out.name} is stale — "
                "re-run scripts/collect_bench.py",
                file=sys.stderr,
            )
            return 1
        print(f"collect_bench: {args.out.name} is up to date")
        return 0
    text = render(collect())
    args.out.write_text(text)
    n_benches = sum(len(v) for v in collect()["scales"].values())
    print(f"collect_bench: wrote {args.out} ({n_benches} bench entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
