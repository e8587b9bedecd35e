"""Batch pipeline: manifest + config in, scored cohort report out.

`stages` is the whole analysis chain: ingest raw trial CSVs, build the
elastic mean of the healthy cohort, align everyone to it, score the three
distances, then add statistics, distance matrices and rolling correlations.
Outputs are deterministic: same inputs and config give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analytics import (
    DistanceMatrix,
    ParticipantScore,
    block_summary,
    cohort_regressions,
    cohort_t_tests,
    pairwise_matrix,
    rolling_correlation,
)
from .core import (
    DegenerateInputError,
    InsufficientDataError,
    Trajectory,
    fork_map,
    l2_norm,
)
from .inputs import (ManifestEntry, ManifestError, PipelineConfig,
                     load_manifest, read_trial, trial_labels)
from .outputs import (write_distances_csv, write_matrix_csv, write_mean_csv,
                      write_rolling_csv, write_stats_json)
from .preprocess import butterworth_lowpass, derivative, resample
from .registration import (
    MIN_SIGNAL_NORM,
    Alignment,
    RegistrationResult,
    align_to_reference,
    phase_amplitude_separation,
)

__all__ = [
    "ingest",
    "IngestedTrial",
    "CohortReport",
    "build_healthy_mean",
    "score_against_mean",
    "stages",
    "write_report",
]

# a smoothed signal whose derivative's L2 norm is at most this share of its
# own is constant up to round-off, and round-off would pick its warp
MIN_VARIATION_RATIO = 1e-9


@dataclass(frozen=True)
class IngestedTrial:
    entry: ManifestEntry
    label: str
    trajectory: Trajectory


def _ingest_trial(entry: ManifestEntry,
                  config: PipelineConfig) -> Trajectory | ValueError:
    """One trial read, resampled, filtered and checked.

    A bad trial's ValueError is returned, not raised, so that under
    `--skip-bad` one bad trial does not cut short the rest of its worker's
    chunk of trials. Its message starts with the trial file's path.
    """
    try:
        rec = read_trial(entry.trial_path, config.channel)
    except ValueError as exc:  # ManifestError is a ValueError
        return exc
    try:
        traj = resample(rec, config.grid_n)
        traj = butterworth_lowpass(traj, config.filter_order,
                                   config.cutoff_ratio)
        with np.errstate(over="ignore"):  # an overflowing norm is refused
            norm = l2_norm(traj.values, traj.grid)
            if not np.isfinite(norm):
                raise DegenerateInputError(
                    "signal too large (L2 norm overflows)")
            # every value is below sqrt(max float): the derivative is finite
            slope = l2_norm(derivative(traj).values, traj.grid)
            if not np.isfinite(slope):
                raise DegenerateInputError(
                    "signal too large (derivative L2 norm overflows)")
        floor = np.sqrt(config.dp_max_slope) * MIN_SIGNAL_NORM
        if norm < floor:
            raise DegenerateInputError(
                f"flat signal (L2 norm {norm:.3g} < {floor:g})")
        if slope <= MIN_VARIATION_RATIO * norm:
            raise DegenerateInputError(
                f"constant signal (derivative L2 norm {slope:.3g} <= "
                f"{MIN_VARIATION_RATIO:g} x L2 norm {norm:.3g})")
    except ValueError as exc:
        return ManifestError(f"{entry.trial_path}: {exc}")
    return traj


def ingest(manifest_path: Path | str, config: PipelineConfig,
           skip_bad: bool = False) -> CohortReport:
    """Load, resample, and smooth every trial named by the manifest.

    A bad trial aborts the run with file/row context unless `skip_bad`, in
    which case it is recorded in `skipped` instead. A trial whose smoothed
    signal is flat (L2 norm below sqrt(dp_max_slope) x MIN_SIGNAL_NORM) is
    bad: a warp could shrink it to no cosine distance. So is a constant one
    (derivative L2 norm at most MIN_VARIATION_RATIO times the signal's): it
    has no shape to align. So is one whose L2 norm, or its derivative's,
    overflows. Every error raised for a trial names its file. Inside a
    `core.worker_pool` block the trials are read in worker processes; the
    result, and which error is raised, are the same as when read in this one.
    """
    entries = load_manifest(manifest_path)
    if not entries:
        raise InsufficientDataError(f"{manifest_path}: manifest lists no trials")

    trajectories = fork_map(partial(_ingest_trial, config=config), entries,
                            "ingest")
    items, skipped = [], []
    for e, label, traj in zip(entries, trial_labels(entries), trajectories):
        if isinstance(traj, ValueError):
            if not skip_bad:
                raise traj
            skipped.append((label, str(traj)))
        else:
            items.append(IngestedTrial(e, label, traj))
    return CohortReport(items=items, skipped=skipped)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortReport:
    """What the stage chain has made so far. Each field keeps its default
    until the stage that makes it runs, so the "stats" record's
    `summary_dict` shows the matrix and rolling defaults. `mean` is
    `separation.mean`. `ingest` makes the first record."""

    items: list[IngestedTrial] | None = None
    skipped: list[tuple[str, str]] | None = None  # (label, reason)
    separation: RegistrationResult | None = None
    mean: Trajectory | None = None
    alignment: Alignment | None = None
    scores: list[ParticipantScore] | None = None
    t_tests: dict | None = None
    regressions: dict | None = None
    matrix_pre: DistanceMatrix | None = None
    matrix_post: DistanceMatrix | None = None
    matrix_summary: dict = field(
        default_factory=lambda: {"pre": None, "post": None})
    rolling: dict[str, np.ndarray] = field(default_factory=dict)
    rolling_window: int = 0

    @property
    def trajectories(self) -> list[Trajectory]:
        return [it.trajectory for it in self.items]

    def summary_dict(self) -> dict:
        return {
            "cohort_sizes": {
                "healthy": sum(1 for s in self.scores if s.cohort == "healthy"),
                "patient": sum(1 for s in self.scores if s.cohort != "healthy"),
            },
            "skipped_trials": len(self.skipped),
            "skipped": [{"label": l, "reason": r} for l, r in self.skipped],
            "separation": {
                "iterations": self.separation.iterations,
                "converged": self.separation.converged,
            },
            "distances": {
                s.label: {
                    "cohort": s.cohort,
                    "amplitude": s.triple.amplitude,
                    "phase": s.triple.phase,
                    "cosine": s.triple.cosine,
                }
                for s in self.scores
            },
            "t_tests": self.t_tests,
            "regressions": self.regressions,
            "matrix_summary": self.matrix_summary,
            "rolling_window": self.rolling_window,
        }


def build_healthy_mean(items: list[IngestedTrial],
                       config: PipelineConfig) -> RegistrationResult:
    healthy = [it for it in items if it.entry.cohort == "healthy"]
    if len(healthy) < 2:
        raise DegenerateInputError(
            f"cannot build reference mean: need >= 2 healthy trials, "
            f"have {len(healthy)}"
        )
    return phase_amplitude_separation(
        [it.trajectory for it in healthy],
        max_iter=config.mean_max_iter,
        tol=config.mean_tol,
        max_slope=config.dp_max_slope,
    )


def score_against_mean(items: list[IngestedTrial], mean: Trajectory,
                       config: PipelineConfig):
    """Align every trial to the mean; return (scores, alignment)."""
    alignment = align_to_reference([it.trajectory for it in items], mean,
                                   max_slope=config.dp_max_slope)
    scores = [ParticipantScore(it.label, it.entry.cohort, it.entry.brooke_score,
                               it.entry.dynamometry, triple)
              for it, triple in zip(items, alignment.distances)]
    return scores, alignment


def stages(manifest_path: Path | str, config: PipelineConfig,
           skip_bad: bool = False):
    """The analysis chain, one stage at a time.

    Yields (name, run) after each of "ingest", "mean", "score", "stats",
    "matrix_pre", "matrix_post" and "report", where `run` is the
    `CohortReport` of what the chain has made so far. A caller that stops
    iterating never runs the later stages.
    """
    run = ingest(manifest_path, config, skip_bad=skip_bad)
    yield "ingest", run
    items = run.items
    if not items:
        raise InsufficientDataError("every trial was skipped; nothing to analyze")

    separation = build_healthy_mean(items, config)
    run = replace(run, separation=separation, mean=separation.mean)
    yield "mean", run

    scores, alignment = score_against_mean(items, run.mean, config)
    run = replace(run, alignment=alignment, scores=scores)
    yield "score", run

    run = replace(run, t_tests=cohort_t_tests(scores),
                  regressions=cohort_regressions(scores))
    yield "stats", run

    curves = run.trajectories
    labels = [it.label for it in items]
    run = replace(run, matrix_pre=pairwise_matrix(
        curves, "cosine", registered=False, labels=labels))
    yield "matrix_pre", run

    run = replace(run, matrix_post=pairwise_matrix(
        curves, "cosine", registered=True, max_slope=config.dp_max_slope,
        labels=labels))
    yield "matrix_post", run

    cohorts = [it.entry.cohort for it in items]
    window = max(3, int(round(config.rolling_window_frac * config.grid_n)))
    yield "report", replace(
        run,
        matrix_summary={"pre": block_summary(run.matrix_pre, cohorts),
                        "post": block_summary(run.matrix_post, cohorts)},
        rolling={it.label: rolling_correlation(aligned, run.mean, window)
                 for it, aligned in zip(items, alignment.aligned)},
        rolling_window=window,
    )


def write_report(out_dir: Path | str, report: CohortReport) -> None:
    """Write every report artifact of a full run into the directory
    `out_dir`: distances.csv, matrix_pre.csv, matrix_post.csv, stats.json,
    mean_healthy.csv, and rolling/<label>.csv per trial."""
    out = Path(out_dir)
    write_distances_csv(out / "distances.csv", report.scores)
    write_matrix_csv(out / "matrix_pre.csv", report.matrix_pre)
    write_matrix_csv(out / "matrix_post.csv", report.matrix_post)
    write_mean_csv(out / "mean_healthy.csv", report.mean)
    for label, values in report.rolling.items():
        write_rolling_csv(out / "rolling" / f"{label}.csv",
                          report.mean.grid.points, report.rolling_window,
                          values)
    write_stats_json(out / "stats.json", report.summary_dict())

