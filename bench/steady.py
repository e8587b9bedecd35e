"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py [--runs 10] [--workloads a,b]

For each workload, runs `bench/run.py` on seeds 1..RUNS in each of two sets,
with the run length from BENCHMARK.json; the sets alternate which goes
first. For every end-to-end metric and workload it prints each set's median
and its spread (the distance between the first and third quartile over the
median), and how far the second set's median is from the first's, as a
share of the first. The check fails when a spread exceeds the metric's
bound, or when the two medians differ by more than the bound in either
direction. Every run's result goes to .bench_work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seeds = range(1, args.runs + 1)

    results: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = [[], []]
        for seed in seeds:
            for s in ((0, 1) if seed % 2 else (1, 0)):
                res = one_run(workload, seed, bench["run_seconds"])
                sets[s].append(res)
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: incorrect, "
                          f"{res['failed']}/{res['attempted']} failed")
                    ok = False
        results[workload] = sets
        print(f"\n{workload}: {args.runs} seeds x 2 sets")
        print(f"  {'metric':38} {'median1':>11} {'spread1':>8} "
              f"{'median2':>11} {'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = worse_by(meds[0], meds[1], spec["better"])
            bad = []
            if max(spreads) > bound:
                bad.append("spread > bound")
            if abs(worse) > bound:
                bad.append("sets disagree")
            steady = all(sp <= bound / 3 for sp in spreads)
            verdict = "; ".join(bad) if bad else (
                "ok, steady" if steady else "ok, spread > bound/3")
            ok = ok and not bad
            print(f"  {name:38} {meds[0]:11.5g} {spreads[0]:8.4f} "
                  f"{meds[1]:11.5g} {spreads[1]:8.4f} {worse:7.4f} "
                  f"{bound:>6}  {verdict}")
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"\n{'all metrics agree within their bounds' if ok else 'NOT STEADY'}"
          f"; runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
