"""The benchmark's workloads: seeded synthetic cohorts plus the CLI call.

Each workload is one `motionshape` subcommand on one cohort shape. The
cohort comes from `motionshape.synthetic.write_cohort` with the run's seed,
so the same seed always gives the same trial CSVs; generating it is never
timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    healthy: int
    patients: int
    rate_hz: float
    duration_s: float
    overrides: tuple[tuple[str, object], ...]  # PipelineConfig fields

    @property
    def trials(self) -> int:
        return self.healthy + self.patients

    def argv(self, manifest: Path, out: Path) -> list[str]:
        """The CLI call; each override is passed as its --field-name flag."""
        argv = [self.command, "--manifest", str(manifest)]
        if self.command != "ingest-check":
            argv += ["--out", str(out)]
        for field, value in self.overrides:
            argv += ["--" + field.replace("_", "-"), str(value)]
        return argv

    def config(self):
        from motionshape.pipeline import PipelineConfig

        return PipelineConfig(**dict(self.overrides))

    def dp_solves(self, iterations: int) -> dict[str, int]:
        """Closed-form DP solves per stage span, for a mean that took
        `iterations`; stages without solves are left out."""
        m = self.trials
        if self.command == "ingest-check":
            return {}
        solves = {"registration.mean": iterations * self.healthy,
                  "registration.align": m}
        if self.command == "report":
            solves["analytics.matrix_post"] = m * (m - 1)  # all ordered pairs
        return solves


# Why each workload exists is recorded with it in BENCHMARK.json.
#
# report_m20 holds the Karcher mean at the iteration count the default
# tolerance reaches on the reference seed (7), with a tolerance no seed
# reaches, so every seed makes the same DP solves. Left to converge, seeds
# took 4 to 9 iterations, which spread its wall time by 13% over five seeds.
WORKLOADS = {w.name: w for w in (
    # 470 DP solves, 380 of them in matrix_post
    Workload("report_m20", "report", 10, 10, 200.0, 4.0,
             (("mean_max_iter", 7), ("mean_tol", 1e-12))),
    # 1.2M CSV rows, zero DP solves
    Workload("ingest_long_m40", "ingest-check", 20, 20, 1000.0, 30.0, ()),
)}


def make_cohort(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's trial CSVs and manifest; returns the manifest."""
    from motionshape.synthetic import write_cohort

    return write_cohort(out_dir, n_healthy=workload.healthy,
                        n_patients=workload.patients, seed=seed,
                        rate_hz=workload.rate_hz,
                        duration_s=workload.duration_s)
