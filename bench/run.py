"""motionshape benchmark: one run of one workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program under test is the
checkout's own `src/motionshape`. The run writes the workload's cohort from
the seed (untimed) into `.bench_work/`, then:

--trace 0  warms the caches with one import-only interpreter, then runs
           the workload's CLI subcommand through `motionshape.cli.main` in a fresh interpreter
           per invocation, one after another (a closed loop with one client,
           no threads), for about S seconds and at least MIN_INVOCATIONS
           times. Every invocation's output is checked (see checks.py).
           Prints wall_s (the mean over the invocations), trials_per_s,
           setup_s, peak_rss_mb and error_rate.
--trace 1  runs one untraced invocation, then the traced run (traced.py),
           checks that both wrote byte-identical trees, and prints the
           per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The run exits non-zero
without that line when it cannot run at all, such as when the checkout has
no `src/motionshape`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, make_cohort

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_INVOCATIONS = 2
RUN_LIMIT_S = 170       # children are killed past this; a run must end in 180 s
T_START = time.perf_counter()


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for BENCHMARK.json's `end_to_end` or `per_layer`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in spec}


class Child:
    """A finished child interpreter: exit code, result JSON and stdout.

    Both child scripts take the path of their result file first.
    """

    def __init__(self, script: str, args: list[str], workdir: Path, tag: str):
        result_path = workdir / f"{tag}.json"
        stdout_path = workdir / f"{tag}.stdout"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
        t0 = time.perf_counter()
        with stdout_path.open("wb") as out:
            self.rc = subprocess.run(
                [sys.executable, str(BENCH / script), str(result_path), *args],
                stdout=out, env=env, cwd=ROOT,
                timeout=max(1.0, RUN_LIMIT_S - (t0 - T_START)),
            ).returncode
        self.elapsed = time.perf_counter() - t0
        self.stdout = stdout_path.read_bytes()
        self.result = (json.loads(result_path.read_text())
                       if self.rc == 0 and result_path.is_file() else None)

    @property
    def ok(self) -> bool:
        return self.result is not None


class Run:
    """One workload on one seed: invocations, their checks and failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.grid_n = workload.config().grid_n
        self.manifest = make_cohort(workload, seed, workdir / "cohort")
        self.invocations: list[dict] = []
        self.errors: list[str] = []
        self.tree_sha: str | None = None

    def check_output(self, out: Path, stdout: bytes) -> str:
        """Check one output tree; returns its sha256."""
        tree = checks.read_tree(self.w.command, out, stdout)
        numbers = checks.check_tree(self.w.command, self.w.trials,
                                    self.grid_n, tree)
        sha = checks.tree_sha256(tree)
        if self.tree_sha is None:
            if self.seed == checks.REFERENCE_SEED:
                checks.check_reference(self.w.name, sha, numbers)
            self.tree_sha = sha
        elif sha != self.tree_sha:
            raise checks.CheckError("output tree differs from the run's "
                                    "first invocation")
        return sha

    def invoke(self) -> Child:
        k = self.attempted
        out = self.workdir / f"out{k}"
        child = Child("invoke.py", self.w.argv(self.manifest, out),
                      self.workdir, f"inv{k}")
        try:
            if not child.ok:
                raise checks.CheckError(f"exit code {child.rc}")
            self.check_output(out, child.stdout)
        except checks.CheckError as exc:
            self.errors.append(f"invocation {k}: {exc}")
        else:
            self.invocations.append(child.result)
        shutil.rmtree(out, ignore_errors=True)
        return child

    @property
    def attempted(self) -> int:
        return len(self.invocations) + len(self.errors)


def warm_up(workdir: Path) -> None:
    """One import-only interpreter, untimed, so that the first invocation
    does not pay for cold caches."""
    probe = Child("invoke.py", [], workdir, "warm_up")
    if not probe.ok:
        raise RuntimeError(f"import-only warm-up failed with exit code "
                           f"{probe.rc}")


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    p = 100 * (n - 10) // n
    return f"p{p} = {sorted(values)[n - 11]:.4f} s"


def end_to_end(run: Run, seconds: float) -> dict:
    warm_up(run.workdir)
    t0 = time.perf_counter()
    last = 0.0
    while (run.attempted < MIN_INVOCATIONS
           or time.perf_counter() - t0 + last <= seconds):
        last = run.invoke().elapsed
    walls = [r["wall_s"] for r in run.invocations]
    imports = [r["import_s"] for r in run.invocations]
    # the mean, not the median: a run holds only 5 to 8 report_m20
    # invocations, and the machine's speed swings between two levels, so the
    # median of so few jumps between them (see bench/README.md)
    wall = statistics.fmean(walls) if walls else 0.0
    metrics = {
        "wall_s": wall,
        "trials_per_s": run.w.trials / wall if wall else 0.0,
        "setup_s": statistics.median(imports) if imports else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mib"]
                                         for r in run.invocations)
        if run.invocations else 0.0,
    }
    print(f"wall_s: mean {wall:.4f} s over {len(walls)} invocation(s); "
          f"median {statistics.median(walls) if walls else 0.0:.4f} s; "
          f"tail {tail_percentile(walls)}; each "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"setup_s: median {metrics['setup_s']:.4f} s over {len(imports)} "
          f"fresh imports of motionshape.cli")
    print(f"error_rate: {len(run.errors)}/{run.attempted} = "
          f"{len(run.errors) / run.attempted:.4f} ratio")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units("end_to_end").items()}


def traced(run: Run, seconds: float) -> dict:
    t0 = time.perf_counter()
    untraced = run.invoke()
    out = run.workdir / "traced_out"
    child = Child("traced.py",
                  [run.w.name, str(run.manifest), str(out),
                   str(max(0.0, seconds - (time.perf_counter() - t0)))],
                  run.workdir, "traced")
    if not child.ok or not untraced.ok:
        run.errors.append(f"traced run exit code {child.rc}"
                          if not child.ok else "untraced invocation failed")
        return {}
    try:
        if run.check_output(out, child.stdout) != run.tree_sha:
            raise checks.CheckError("traced tree differs")
        if run.seed == checks.REFERENCE_SEED:
            want = json.loads(checks.REFERENCE_FILE.read_text())[run.w.name]
            got = child.result["metrics"]["dp_solves_total"]
            if got != want["dp_solves_total"]:
                raise checks.CheckError(f"dp_solves_total {got} != "
                                        f"{want['dp_solves_total']}")
    except checks.CheckError as exc:
        run.errors.append(f"traced run: {exc}")
    else:
        run.invocations.append(child.result)
    metrics = child.result["metrics"]
    trace_file = WORK / f"trace-{run.w.name}-{run.seed}.json"
    trace_file.write_text(json.dumps(child.result, indent=1))
    print(f"{'span':32} {'busy_s':>9} {'self_s':>9}")
    busy: dict[str, float] = {}
    for s in child.result["spans"]:
        busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
    for name, self_s in child.result["self_s"].items():
        print(f"{name:32} {busy[name]:9.4f} {self_s:9.4f}")
    print("waiting: none recorded; the layers have no queue and nothing "
          "retries, so busy time is all there is")
    print("derived: pipeline.ingest.parse_s = pipeline.ingest.busy_s - "
          "preprocess.busy_s; computed from n and slope, not measured: "
          "registration.dp.edge_terms, cost_bytes, reachable_cell_frac; "
          "trace.overhead_s = spans x cost of a span + DP solves x cost of "
          "a counted call, each cost timed on no-op work; "
          "a stage the workload does not run reports 0")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units("per_layer").items()}


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "cpu": platform.machine(),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "motionshape" / "cli.py").is_file():
        print(f"error: no motionshape sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import motionshape

    if Path(motionshape.__file__).resolve().parent != SRC / "motionshape":
        print(f"error: imported motionshape from {motionshape.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, workdir)
        print(f"workload {workload.name}: motionshape {workload.command}, "
              f"{workload.trials} trials, seed {args.seed}")
        print("machine: " + json.dumps(machine_facts(), sort_keys=True))
        metrics = (traced if args.trace else end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": len(run.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
