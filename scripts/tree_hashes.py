#!/usr/bin/env python3
"""Hash every subcommand's output tree and stdout on two seeded cohorts.

    python scripts/tree_hashes.py

Writes the planted cohort (`write_cohort` seed 1234) and the null cohort
(seed 99, `null_effect=True`) into a temporary directory, runs all six CLI
subcommands on each at the default config, and prints one line per run:
the sha256 of its output tree and of its stdout. A tree's hash is the
sha256 of its sorted "<relative path> <file sha256>" lines. Then it
writes a long cohort shaped like the benchmark's `ingest_long_m40` (20 + 20
trials, 1 kHz x 30 s, seed 1234) and prints the sha256 of its ingested
trajectories' value bytes, since `ingest-check` prints no values, and the
sha256 of `pairwise_matrix`'s value bytes for each metric it accepts, with
and without registration, on the first 8 planted trials, since no output
file holds the registered amplitude or phase matrix. Then it prints the
sha256 of `registration._dp_path`'s path and cost for every ordered pair
(i, j), i != j, of those 8 trials ingested at `grid_n` 201 with
`dp_max_slope` 3, which pins a DP size other than the default. Last, it
prints the sha256 of the float64 bytes of `t_two_sided_pvalue(t, dof)`
for t = 0, 0.25, ..., 12 and each dof in P_VALUE_DOFS, since `stats.json`
holds only the few p-values a seeded cohort gives. Run it in two
checkouts and diff the output to show a change keeps every output
byte-identical. The `motionshape` imported is the one in this checkout.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from motionshape.analytics import (pairwise_matrix,  # noqa: E402
                                   t_two_sided_pvalue)
from motionshape.cli import main as cli_main  # noqa: E402
from motionshape.inputs import PipelineConfig  # noqa: E402
from motionshape.pipeline import ingest  # noqa: E402
from motionshape.registration import _dp_path, to_srvf  # noqa: E402
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


def tree_hash(root: Path) -> str:
    lines = sorted(f"{p.relative_to(root).as_posix()} "
                   f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                   for p in root.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep `report`'s stdout comparable
        manifests = {}
        for cohort, kwargs in COHORTS.items():
            manifest = manifests[cohort] = write_cohort(Path(cohort), **kwargs)
            print(f"{cohort:8s} {'cohort':12s} tree {tree_hash(Path(cohort))}")
            for command in COMMANDS:
                out = Path("out") / cohort / command
                argv = [command, "--manifest", str(manifest)]
                if command != "ingest-check":
                    argv += ["--out", str(out)]
                rc, stdout = run(argv)
                tree = tree_hash(out) if out.exists() else "-"
                print(f"{cohort:8s} {command:12s} tree {tree} "
                      f"stdout {stdout} rc {rc}")
        config = PipelineConfig()
        manifest = write_cohort(Path("long"), **LONG_COHORT)
        values = hashlib.sha256()
        for trajectory in ingest(manifest, config).trajectories:
            values.update(trajectory.values.tobytes())
        print(f"{'long':8s} {'ingest':12s} values {values.hexdigest()}")
        curves = ingest(manifests["planted"],
                        config).trajectories[:MATRIX_TRIALS]
        for metric, registered in MATRICES:
            matrix = pairwise_matrix(curves, metric, registered,
                                     config.dp_max_slope)
            digest = hashlib.sha256(matrix.values.tobytes()).hexdigest()
            name = f"{metric}_{'post' if registered else 'pre'}"
            print(f"{'planted':8s} {name:12s} matrix {digest}")
        dp_config = PipelineConfig(**DP_CONFIG)
        qs = [to_srvf(t).q for t in ingest(manifests["planted"], dp_config)
              .trajectories[:MATRIX_TRIALS]]
        paths = hashlib.sha256()
        for i, q1 in enumerate(qs):
            for j, q2 in enumerate(qs):
                if i != j:
                    vi, vj, cost = _dp_path(q1, q2, dp_config.grid_n,
                                            dp_config.dp_max_slope)
                    paths.update(vi.tobytes() + vj.tobytes()
                                 + np.float64(cost).tobytes())
        print(f"{'planted':8s} {'dp_n201_s3':12s} paths {paths.hexdigest()}")
    p_values = np.array([t_two_sided_pvalue(t, dof) for dof in P_VALUE_DOFS
                         for t in np.arange(49) * 0.25])
    digest = hashlib.sha256(p_values.tobytes()).hexdigest()
    print(f"{'-':8s} {'t_pvalue':12s} values {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
