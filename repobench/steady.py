"""Steadiness report: repeated runs of one workload, metric by metric.

Usage (from the repository root)::

    python3 repobench/steady.py --workload score-exec --seeds 1-10
    python3 repobench/steady.py --workload score-exec --seeds 1-10 --sets 2

Runs ``run.py`` once per seed (``--sets 2`` runs the seed list twice) and
prints, for every metric, the median, the quartiles and the spread — the
interquartile distance as a share of the median — next to the metric's
bound from ``BENCHMARK.json``.  A metric whose spread exceeds its bound, or
whose second-set median is worse than the first by more than the bound, is
named on the last line, so a ``benchmark_too_noisy`` verdict points at the
metric responsible.  Exits non-zero when any run fails or any metric is
named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    better = {m["name"]: m["better"] for m in declared}
    seeds = parse_seeds(args.seeds)

    sets: list[dict[str, list[float]]] = []
    for set_index in range(args.sets):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(args.workload, seed, seconds, args.trace)
            print(f"set {set_index + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            if not result["correct"]:
                print(f"seed {seed} failed its output checks")
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        sets.append(values)

    offenders = []
    print(f"\n{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'spread/bound':>12s}")
    for name in bounds:
        for set_index, values in enumerate(sets):
            median, q1, q3, share = spread(values[name])
            bound = bounds[name]
            ratio = share / bound if bound else float("nan")
            print(f"{name:34s} {median:12.5f} {q1:12.5f} {q3:12.5f} {share:8.4f} "
                  f"{bound if bound is not None else '-':>6} {ratio:12.3f}  (set {set_index + 1})")
            if bound is not None and share > bound and name != "setup_s":
                offenders.append(f"{name} spread {share:.3f} > bound {bound}")
        if len(sets) == 2 and bounds[name] is not None:
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            change = (second - first) / first if better[name] == "lower" else (first - second) / first
            print(f"{'':34s} second median {'worse' if change > 0 else 'better'} by {abs(change):.4f}")
            if change > bounds[name]:
                offenders.append(f"{name} second median worse by {change:.3f} > bound {bounds[name]}")
    if offenders:
        print("too noisy: " + "; ".join(offenders))
        return 1
    print("steady: every spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
