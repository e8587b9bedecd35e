#!/usr/bin/env python3
"""Hash every subcommand's output tree and stdout on two seeded cohorts.

    python scripts/tree_hashes.py [--check]

Writes the planted cohort (`write_cohort` seed 1234) and the null cohort
(seed 99, `null_effect=True`) into a temporary directory, runs all six CLI
subcommands on each at the default config, and prints one line per run:
the sha256 of its output tree and of its stdout. A tree's hash is the
sha256 of its sorted "<relative path> <file sha256>" lines. Each
subcommand that takes `--out` is run a second time into its used `--out`,
and the script exits 1 unless that gives the same exit code, stdout and
tree hash. Then it
writes a long cohort shaped like the benchmark's `ingest_long_m40` (20 + 20
trials, 1 kHz x 30 s, seed 1234) and prints the sha256 of its ingested
trajectories' value bytes, since `ingest-check` prints no values, and the
sha256 of `pairwise_matrix`'s value bytes for each metric it accepts, with
and without registration, on the first 8 planted trials, since no output
file holds the registered amplitude or phase matrix. Those are computed
in this process, outside a `worker_pool` block; the ingested values and
each registered matrix are then computed again inside one, so in worker
processes, and the script exits 1 unless the hash is the same (with one
usable CPU both runs stay in this process). Then it prints the
sha256 of `lattice.solve`'s path and cost for every ordered pair
(i, j), i != j, of those 8 trials ingested at `grid_n` 201 with
`dp_max_slope` 3, which pins a DP size other than the default. Last, it
prints the sha256 of the float64 bytes of `t_two_sided_pvalue(t, dof)`
for t = 0, 0.25, ..., 12 and each dof in P_VALUE_DOFS, since `stats.json`
holds only the few p-values a seeded cohort gives. The `motionshape`
imported is the one in this checkout.

To show a change keeps every output byte-identical, run it in two
checkouts and diff the output, or run it with `--check`. That compares
the printed lines with `tree_hashes.expected` next to this script, and
exits 1 naming each line that differs and both the recorded and the
running Python and numpy versions. The file's first line names the
versions that printed the rest; a change that alters output bytes on
purpose records its new lines there.
"""

import argparse
import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from motionshape import lattice  # noqa: E402
from motionshape.analytics import (pairwise_matrix,  # noqa: E402
                                   t_two_sided_pvalue)
from motionshape.cli import main as cli_main  # noqa: E402
from motionshape.core import worker_pool  # noqa: E402
from motionshape.inputs import PipelineConfig  # noqa: E402
from motionshape.pipeline import ingest  # noqa: E402
from motionshape.registration import to_srvf  # noqa: E402
from motionshape.synthetic import write_cohort  # noqa: E402

COHORTS = {"planted": dict(seed=1234), "null": dict(seed=99, null_effect=True)}
COMMANDS = ("ingest-check", "mean", "align", "distances", "stats", "report")
MATRICES = (("amplitude", False), ("amplitude", True), ("cosine", False),
            ("cosine", True), ("phase", True))
MATRIX_TRIALS = 8
LONG_COHORT = dict(n_healthy=20, n_patients=20, rate_hz=1000.0,
                   duration_s=30.0, seed=1234)
DP_CONFIG = dict(grid_n=201, dp_max_slope=3)
P_VALUE_DOFS = (1, 2, 4, 5.55, 9, 19, 60, 200)
EXPECTED = Path(__file__).with_name("tree_hashes.expected")


def tree_hash(root: Path) -> str:
    lines = sorted(f"{p.relative_to(root).as_posix()} "
                   f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                   for p in root.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def values_digest(manifest: Path, config: PipelineConfig) -> str:
    values = hashlib.sha256()
    for trajectory in ingest(manifest, config).trajectories:
        values.update(trajectory.values.tobytes())
    return values.hexdigest()


def matrix_digest(curves, metric: str, registered: bool,
                  max_slope: int) -> str:
    matrix = pairwise_matrix(curves, metric, registered, max_slope)
    return hashlib.sha256(matrix.values.tobytes()).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def matches_record(lines: list[str]) -> bool:
    """Whether `lines` are those recorded in EXPECTED. Each line that is
    not is named on stderr, with the recorded and the running versions."""
    recorded, *want = EXPECTED.read_text().splitlines()
    differ = [(i, w, g) for i, (w, g) in enumerate(
        zip_longest(want, lines, fillvalue="(no line)"), 1) if w != g]
    for i, w, g in differ:
        print(f"error: line {i} differs from {EXPECTED.name}\n"
              f"  recorded {w}\n  running  {g}", file=sys.stderr)
    if differ:
        print(f"error: recorded with {recorded.removeprefix('# ')}; running "
              f"python {platform.python_version()} numpy {np.__version__}",
              file=sys.stderr)
    return not differ


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Print the sha256 lines that pin every output's bytes.")
    parser.add_argument("--check", action="store_true",
                        help=f"also compare them with {EXPECTED.name}")
    check = parser.parse_args().check
    printed, differ, rerun_differ = [], [], []

    def say(line: str) -> None:
        print(line)
        printed.append(line)

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep `report`'s stdout comparable
        manifests = {}
        for cohort, kwargs in COHORTS.items():
            manifest = manifests[cohort] = write_cohort(Path(cohort), **kwargs)
            say(f"{cohort:8s} {'cohort':12s} tree {tree_hash(Path(cohort))}")
            for command in COMMANDS:
                out = Path("out") / cohort / command
                argv = [command, "--manifest", str(manifest)]
                if command != "ingest-check":
                    argv += ["--out", str(out)]
                rc, stdout = run(argv)
                tree = tree_hash(out) if out.exists() else "-"
                say(f"{cohort:8s} {command:12s} tree {tree} "
                    f"stdout {stdout} rc {rc}")
                if command != "ingest-check":
                    if run(argv) != (rc, stdout) or tree_hash(out) != tree:
                        rerun_differ.append(f"{cohort} {command}")
        config = PipelineConfig()
        manifest = write_cohort(Path("long"), **LONG_COHORT)
        digest = values_digest(manifest, config)
        say(f"{'long':8s} {'ingest':12s} values {digest}")
        with worker_pool():
            if values_digest(manifest, config) != digest:
                differ.append("long ingest")
        curves = ingest(manifests["planted"],
                        config).trajectories[:MATRIX_TRIALS]
        for metric, registered in MATRICES:
            digest = matrix_digest(curves, metric, registered,
                                   config.dp_max_slope)
            name = f"{metric}_{'post' if registered else 'pre'}"
            say(f"{'planted':8s} {name:12s} matrix {digest}")
            if registered:
                with worker_pool():
                    if matrix_digest(curves, metric, registered,
                                     config.dp_max_slope) != digest:
                        differ.append(name)
        dp_config = PipelineConfig(**DP_CONFIG)
        qs = [to_srvf(t).q for t in ingest(manifests["planted"], dp_config)
              .trajectories[:MATRIX_TRIALS]]
        paths = hashlib.sha256()
        for i, q1 in enumerate(qs):
            for j, q2 in enumerate(qs):
                if i != j:
                    vi, vj, cost = lattice.solve(q1, q2,
                                                 dp_config.dp_max_slope)
                    paths.update(vi.tobytes() + vj.tobytes()
                                 + np.float64(cost).tobytes())
        say(f"{'planted':8s} {'dp_n201_s3':12s} paths {paths.hexdigest()}")
    p_values = np.array([t_two_sided_pvalue(t, dof) for dof in P_VALUE_DOFS
                         for t in np.arange(49) * 0.25])
    digest = hashlib.sha256(p_values.tobytes()).hexdigest()
    say(f"{'-':8s} {'t_pvalue':12s} values {digest}")
    if differ:
        print(f"error: in a worker pool these results differ: "
              f"{', '.join(differ)}", file=sys.stderr)
    if rerun_differ:
        print(f"error: a rerun into the used --out changed these runs: "
              f"{', '.join(rerun_differ)}", file=sys.stderr)
    unrecorded = check and not matches_record(printed)
    return 1 if differ or rerun_differ or unrecorded else 0


if __name__ == "__main__":
    sys.exit(main())
