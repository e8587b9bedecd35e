"""Traced run: the workload's stages, called through their public functions.

    python3 bench/traced.py RESULT.json WORKLOAD MANIFEST OUT DEADLINE_S

Replays what the CLI subcommand does, stage by stage, with a span around
each call into a layer (`pipeline`, `registration`, `analytics`). Spans
(name, start, end, parent) are kept in memory and written once, with the
per-layer metrics, to RESULT.json. The output tree lands in OUT, so the
caller can check it is byte-identical to the untraced CLI's tree; for
`ingest-check` the replayed report goes to standard output, as the CLI's.

While the stages run, `optimal_warping` is wrapped in the modules that call
it, and each DP solve is counted against the innermost open span; the counts
must equal the workload's closed form. The tracing's own cost is the time of
a span and of a counted call, timed on no-op work, times how many the run
made.

Two measurements then run outside the stage spans: `preprocess` busy time
(`resample` + `butterworth_lowpass` on the same recordings), and single
`optimal_warping` solves on the workload's own SRVF pairs until DEADLINE_S
seconds after start (at least MIN_DP_SAMPLES of them).
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from math import gcd
from pathlib import Path

import numpy as np

from motionshape import analytics, registration
from motionshape import pipeline as pl
from motionshape.analytics import pairwise_matrix, rolling_correlation
from motionshape.preprocess import RawRecording, butterworth_lowpass, resample
from motionshape.registration import optimal_warping, to_srvf

from workloads import WORKLOADS

MIN_DP_SAMPLES = 30
COST_PROBES = 2000
# the modules whose calls to optimal_warping are counted; analytics imports
# it by name, registration calls it from its own functions
DP_CALLERS = (registration, analytics)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.calls: dict[str | None, int] = {}   # innermost span -> calls

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def counted(self, fn):
        """`fn`, with each call counted against the innermost open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = self.spans[self._open[-1]]["name"] if self._open else None
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its children cover, summed by name."""
        out: dict[str, float] = {}
        for s in self.spans:
            child = sum(c["end"] - c["start"] for c in self.spans
                        if c["parent"] == s["id"])
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child
        return out


def run_report(t: Tracer, manifest: Path, config, out: Path) -> dict:
    """The stages of `pipeline.run_pipeline`, in its order."""
    out.mkdir(parents=True, exist_ok=True)
    with t.span("pipeline.ingest"):
        ingested = pl.ingest(manifest, config)
    items = ingested.items
    with t.span("registration.mean"):
        separation = pl.build_healthy_mean(items, config)
    mean = separation.mean
    with t.span("registration.align"):
        scores, alignment = pl.score_against_mean(items, mean, config)
    curves = [it.trajectory for it in items]
    labels = [it.label for it in items]
    cohorts = [it.entry.cohort for it in items]
    with t.span("analytics.matrix_pre"):
        matrix_pre = pairwise_matrix(curves, "cosine", registered=False,
                                     labels=labels)
    with t.span("analytics.matrix_post"):
        matrix_post = pairwise_matrix(curves, "cosine", registered=True,
                                      max_slope=config.dp_max_slope,
                                      labels=labels)
    with t.span("analytics.stats"):
        matrix_summary = {"pre": pl.block_summary(matrix_pre, cohorts),
                          "post": pl.block_summary(matrix_post, cohorts)}
        t_tests = pl.cohort_t_tests(scores)
        regressions = pl.cohort_regressions(scores)
    window = max(3, int(round(config.rolling_window_frac * config.grid_n)))
    with t.span("analytics.rolling"):
        rolling = {it.label: rolling_correlation(aligned, mean, window)
                   for it, aligned in zip(items, alignment.aligned)}
    report = pl.CohortReport(
        scores=scores, t_tests=t_tests, regressions=regressions,
        matrix_pre=matrix_pre, matrix_post=matrix_post,
        matrix_summary=matrix_summary, mean=mean, separation=separation,
        rolling=rolling, rolling_window=window, skipped=ingested.skipped)
    with t.span("pipeline.write"):
        with t.span("pipeline.write_distances_csv"):
            pl.write_distances_csv(out / "distances.csv", scores)
        with t.span("pipeline.write_matrix_csv"):
            pl.write_matrix_csv(out / "matrix_pre.csv", matrix_pre)
            pl.write_matrix_csv(out / "matrix_post.csv", matrix_post)
        with t.span("pipeline.write_mean_csv"):
            pl.write_mean_csv(out / "mean_healthy.csv", mean)
        with t.span("pipeline.write_rolling_csv"):
            rolling_dir = out / "rolling"
            rolling_dir.mkdir(exist_ok=True)
            for label, values in rolling.items():
                pl.write_rolling_csv(rolling_dir / f"{label}.csv",
                                     mean.grid.points, window, values)
        with t.span("pipeline.write_stats_json"):
            with (out / "stats.json").open("w") as fh:
                json.dump(report.summary_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    return {"ingested": ingested, "separation": separation, "pairs": len(items) * (len(items) - 1),
            "windows": sum(v.size for v in rolling.values())}


def run_ingest_check(t: Tracer, manifest: Path, config, out: Path) -> dict:
    """The CLI's `ingest-check`, printing what it prints."""
    with t.span("pipeline.ingest"):
        ingested = pl.ingest(manifest, config)
    lines = [f"ok      {it.label}  ({it.entry.cohort}, n={config.grid_n})"
             for it in ingested.items]
    lines += [f"skipped {label}: {reason}" for label, reason in ingested.skipped]
    lines.append(f"{len(ingested.items)} trial(s) ok, "
                 f"{len(ingested.skipped)} skipped")
    print("\n".join(lines))
    return {"ingested": ingested}


RUNNERS = {"report": run_report, "ingest-check": run_ingest_check}


def tracing_cost() -> tuple[float, float]:
    """Seconds per span and per counted call, timed on no-op work."""
    t = Tracer()
    noop = t.counted(lambda: None)
    t0 = time.perf_counter()
    for _ in range(COST_PROBES):
        with t.span("probe"):
            pass
    t1 = time.perf_counter()
    with t.span("probe"):
        for _ in range(COST_PROBES):
            noop()
    t2 = time.perf_counter()
    return (t1 - t0) / COST_PROBES, (t2 - t1) / COST_PROBES


def dp_work(n: int, slope: int) -> dict:
    """Work of one DP solve, computed from n and the slope bound.

    `edge_terms` counts the squared-difference terms summed into the edge
    costs, `cost_bytes` the float64 edge-cost arrays, and
    `reachable_cell_frac` the share of the n x n lattice on some admissible
    path from (0, 0) to (n-1, n-1): useful cells over cells computed.
    """
    steps = [(a, b) for a in range(1, min(slope, n - 1) + 1)
             for b in range(1, min(slope, n - 1) + 1) if gcd(a, b) == 1]
    reach = np.zeros((n, n), dtype=bool)
    reach[0, 0] = True
    for i in range(1, n):
        for a, b in steps:
            if a <= i:
                reach[i, b:] |= reach[i - a, :n - b]
    # the step set is closed under swapping a and b and under reversal, so
    # "can still reach the end" is the forward set rotated by 180 degrees
    useful = reach & reach[::-1, ::-1]
    return {
        "edge_terms": sum((n - a) * (n - b) * (a + 1) for a, b in steps),
        "cost_bytes": 8 * sum((n - a) * (n - b) for a, b in steps),
        "reachable_cell_frac": float(useful.mean()),
    }


def read_recording(path: Path, channel: str) -> tuple[RawRecording, int]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rec = RawRecording(np.array([float(r["time_s"]) for r in rows]),
                       np.array([float(r[channel]) for r in rows]))
    return rec, len(rows)


def main() -> int:
    result_path, name, manifest, out, deadline_s = sys.argv[1:6]
    workload = WORKLOADS[name]
    manifest, out = Path(manifest), Path(out)
    t_start = time.perf_counter()
    config = workload.config()

    tracer = Tracer()
    for module in DP_CALLERS:
        module.optimal_warping = tracer.counted(optimal_warping)
    cpu0 = time.process_time()
    try:
        with tracer.span(f"cli.{workload.command}"):
            res = RUNNERS[workload.command](tracer, manifest, config, out)
    finally:
        for module in DP_CALLERS:
            module.optimal_warping = optimal_warping
    cpu_s = time.process_time() - cpu0
    items = res["ingested"].items
    m = len(items)

    # preprocess, measured on the recordings ingest just read
    pre_busy, rows, nbytes = 0.0, 0, 0
    for it in items:
        rec, nrows = read_recording(it.entry.trial_path, config.channel)
        rows += nrows
        nbytes += os.path.getsize(it.entry.trial_path)
        t0 = time.perf_counter()
        traj = butterworth_lowpass(resample(rec, config.grid_n),
                                   config.filter_order, config.cutoff_ratio)
        pre_busy += time.perf_counter() - t0
        if not np.array_equal(traj.values, it.trajectory.values):
            raise SystemExit(f"preprocess replay differs from ingest for {it.label}")

    busy = tracer.busy
    sep = res.get("separation")
    iterations = sep.iterations if sep else 0
    solves = tracer.calls
    if solves != workload.dp_solves(iterations):
        raise SystemExit(f"DP solves counted per span {solves} != closed "
                         f"form {workload.dp_solves(iterations)}")
    mean_solves = solves.get("registration.mean", 0)
    align_solves = solves.get("registration.align", 0)
    post_solves = solves.get("analytics.matrix_post", 0)
    dp_total = sum(solves.values())
    per_span_s, per_call_s = tracing_cost()

    def per_solve(span, solves):
        return 1e3 * busy(span) / solves if solves else 0.0

    out_files = [p for p in out.rglob("*") if p.is_file()]
    metrics = {
        "cli.self_s": tracer.self_times()[f"cli.{workload.command}"],
        "pipeline.ingest.busy_s": busy("pipeline.ingest"),
        "pipeline.ingest.trials": m,
        "pipeline.ingest.rows": rows,
        "pipeline.ingest.bytes": nbytes,
        "pipeline.ingest.us_per_row": 1e6 * busy("pipeline.ingest") / rows,
        "pipeline.ingest.skipped": len(res["ingested"].skipped),
        "pipeline.ingest.parse_s": busy("pipeline.ingest") - pre_busy,
        "preprocess.busy_s": pre_busy,
        "registration.mean.busy_s": busy("registration.mean"),
        "registration.mean.iterations": iterations,
        "registration.mean.converged": int(bool(sep and sep.converged)),
        "registration.mean.dp_solves": mean_solves,
        "registration.mean.ms_per_solve": per_solve("registration.mean",
                                                    mean_solves),
        "registration.align.busy_s": busy("registration.align"),
        "registration.align.dp_solves": align_solves,
        "registration.align.ms_per_solve": per_solve("registration.align",
                                                     align_solves),
        "analytics.matrix_pre.busy_s": busy("analytics.matrix_pre"),
        "analytics.matrix_pre.pairs": res.get("pairs", 0),
        "analytics.matrix_post.busy_s": busy("analytics.matrix_post"),
        "analytics.matrix_post.dp_solves": post_solves,
        "analytics.matrix_post.ms_per_solve": per_solve(
            "analytics.matrix_post", post_solves),
        "analytics.rolling.busy_s": busy("analytics.rolling"),
        "analytics.rolling.windows": res.get("windows", 0),
        "analytics.stats.busy_s": busy("analytics.stats"),
        "pipeline.write.busy_s": busy("pipeline.write"),
        "pipeline.write.files": len(out_files),
        "pipeline.write.bytes": sum(p.stat().st_size for p in out_files),
        "dp_solves_total": dp_total,
        "process.cpu_s": cpu_s,
        "trace.total_s": busy(f"cli.{workload.command}"),
        "trace.overhead_s": per_span_s * len(tracer.spans)
        + per_call_s * dp_total,
    }
    metrics.update({f"registration.dp.{k}": v
                    for k, v in dp_work(config.grid_n,
                                        config.dp_max_slope).items()})

    # single DP solves on the workload's own SRVF pairs
    qs = [to_srvf(it.trajectory) for it in items]
    pairs = [(qs[i], qs[j]) for i in range(m) for j in range(m) if i != j]
    solve_ms = []
    deadline = t_start + float(deadline_s)
    while len(solve_ms) < MIN_DP_SAMPLES or time.perf_counter() < deadline:
        q_ref, q_mov = pairs[len(solve_ms) % len(pairs)]
        t0 = time.perf_counter()
        optimal_warping(q_ref, q_mov, config.dp_max_slope)
        solve_ms.append(1e3 * (time.perf_counter() - t0))
    metrics["registration.dp.solve_ms_p50"] = float(np.percentile(solve_ms, 50))
    metrics["registration.dp.solve_ms_p97"] = float(np.percentile(solve_ms, 97))
    metrics["registration.dp.samples"] = len(solve_ms)

    spans = [dict(s, start=s["start"] - t_start, end=s["end"] - t_start)
             for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump({"metrics": metrics, "spans": spans,
                   "self_s": tracer.self_times()}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
