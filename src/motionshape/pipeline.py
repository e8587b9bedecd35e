"""Batch pipeline: manifest + config in, scored cohort report out.

`stages` is the whole analysis chain: ingest raw trial CSVs, build the
elastic mean of the healthy cohort, align everyone to it, score the three
distances, then add statistics, distance matrices and rolling correlations.
Outputs are deterministic: same inputs and config give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analytics import (
    DistanceMatrix,
    linear_regression,
    pairwise_matrix,
    rolling_correlation,
    welch_t_test,
)
from .core import (
    DegenerateInputError,
    DistanceTriple,
    InsufficientDataError,
    Trajectory,
    l2_norm,
)
from .preprocess import (PADLEN_PER_ORDER, RawRecording, butterworth_lowpass,
                         derivative, resample)
from .registration import (
    MIN_SIGNAL_NORM,
    RegistrationResult,
    align_to_reference,
    cosine_distance,
    group_action,
    phase_amplitude_separation,
    phase_distance,
    to_srvf,
)

__all__ = [
    "COHORTS",
    "ManifestError",
    "ManifestEntry",
    "PipelineConfig",
    "load_manifest",
    "ingest",
    "IngestResult",
    "IngestedTrial",
    "CohortReport",
    "Run",
    "stages",
    "write_report",
    "run_pipeline",
]

COHORTS = ("healthy", "DMD", "SMA")
# a smoothed signal whose derivative's L2 norm is at most this share of its
# own is constant up to round-off, and round-off would pick its warp
MIN_VARIATION_RATIO = 1e-9


class ManifestError(ValueError):
    """Manifest or trial file problem, with file/row context in the message."""


@dataclass(frozen=True)
class ManifestEntry:
    participant_id: str
    cohort: str
    trial_path: Path
    brooke_score: int | None = None
    dynamometry: float | None = None


# PipelineConfig field -> (valid value?, what a valid value is), in field order
_CONFIG_RULES = {
    "grid_n": (lambda v: v >= 3, "integer >= 3"),
    "filter_order": (lambda v: v >= 1, "integer >= 1"),
    "cutoff_ratio": (lambda v: 0.0 < v < 1.0, "real in (0, 1)"),
    "channel": (bool, "non-empty column name"),
    "dp_max_slope": (lambda v: v >= 1, "integer >= 1"),
    "mean_max_iter": (lambda v: v >= 1, "integer >= 1"),
    "mean_tol": (lambda v: v > 0.0, "real > 0"),
    "rolling_window_frac": (lambda v: 0.0 < v <= 1.0, "real in (0, 1]"),
}


@dataclass(frozen=True)
class PipelineConfig:
    grid_n: int = 101
    filter_order: int = 3
    cutoff_ratio: float = 0.1
    channel: str = "gyro"
    dp_max_slope: int = 7
    mean_max_iter: int = 20
    mean_tol: float = 1e-4
    rolling_window_frac: float = 0.1

    def __post_init__(self):
        for name, (valid, expected) in _CONFIG_RULES.items():
            if not valid(getattr(self, name)):
                raise ManifestError(
                    f"config field {name}={getattr(self, name)!r} "
                    f"out of range (expected {expected})"
                )
        if self.grid_n <= PADLEN_PER_ORDER * self.filter_order:
            raise ManifestError(
                f"config field grid_n={self.grid_n} must exceed the filter's "
                f"edge padding, {PADLEN_PER_ORDER} x filter_order="
                f"{self.filter_order}")

    @classmethod
    def from_file(cls, path: Path | str,
                  overrides: dict | None = None) -> "PipelineConfig":
        """Read `key = value` lines; '#' starts a comment; unknown keys error.

        Each value is parsed with the type of its field's default.
        """
        path = Path(path)
        types = {f.name: type(f.default) for f in fields(cls)}
        raw: dict = {}
        line_of: dict = {}
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ManifestError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ManifestError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                raw[key] = types[key](value)
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: field {key}: {exc}") from exc
            line_of[key] = lineno
        if overrides:
            raw.update(overrides)
        try:
            return cls(**raw)
        except ManifestError as exc:
            # point at the offending line when the bad value came from the file
            for name, lineno in line_of.items():
                if f"field {name}=" in str(exc) and name not in (overrides or {}):
                    raise ManifestError(f"{path}:{lineno}: {exc}") from exc
            raise ManifestError(f"{path}: {exc}") from exc


def load_manifest(path: Path | str) -> list[ManifestEntry]:
    """Parse the cohort manifest CSV; paths resolve relative to it."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    entries, rownos = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        required = {"participant_id", "cohort", "trial_path"}
        missing = required - set(header)
        if missing:
            raise ManifestError(
                f"{path}: manifest missing columns {sorted(missing)}"
            )
        for name in (*sorted(required), "brooke_score", "dynamometry"):
            if header.count(name) > 1:
                raise ManifestError(f"{path}: header names column {name!r} "
                                    f"{header.count(name)} times")
        for fields in reader:
            if not fields:  # blank line
                continue
            rowno = reader.line_num
            row = dict(zip(header, fields))  # fields a short row lacks read as ""
            pid = (row.get("participant_id") or "").strip()
            cohort = (row.get("cohort") or "").strip()
            trial = (row.get("trial_path") or "").strip()
            if not pid or not trial:
                raise ManifestError(
                    f"{path}:{rowno}: participant_id and trial_path are required"
                )
            if "/" in pid or "\\" in pid:
                # the id names output files, so it must not be a path
                raise ManifestError(
                    f"{path}:{rowno}: participant_id {pid!r} contains a "
                    f"path separator"
                )
            if cohort not in COHORTS:
                raise ManifestError(
                    f"{path}:{rowno}: cohort {cohort!r} not one of {COHORTS}"
                )
            brooke_raw = (row.get("brooke_score") or "").strip()
            dyn_raw = (row.get("dynamometry") or "").strip()
            try:
                brooke = int(brooke_raw) if brooke_raw else None
                dyn = float(dyn_raw) if dyn_raw else None
            except ValueError as exc:
                raise ManifestError(f"{path}:{rowno}: {exc}") from exc
            if brooke is not None and not (1 <= brooke <= 6):
                raise ManifestError(
                    f"{path}:{rowno}: brooke_score {brooke} outside 1..6"
                )
            if dyn is not None and (not math.isfinite(dyn) or dyn < 0):
                raise ManifestError(
                    f"{path}:{rowno}: dynamometry must be a nonnegative real"
                )
            entries.append(ManifestEntry(pid, cohort,
                                         (path.parent / trial).resolve(),
                                         brooke, dyn))
            rownos.append(rowno)
    first_row: dict[str, int] = {}
    for rowno, label in zip(rownos, _trial_labels(entries)):
        if label in first_row:
            raise ManifestError(
                f"{path}:{rowno}: duplicate trial label {label!r} "
                f"(first at row {first_row[label]})"
            )
        first_row[label] = rowno
    entries.sort(key=lambda e: (e.participant_id, e.trial_path.name))
    return entries


def _trial_labels(entries: list[ManifestEntry]) -> list[str]:
    """Each trial's name in the outputs: its participant_id, plus '#' and
    the trial file's stem when the participant has several trials."""
    per_pid = Counter(e.participant_id for e in entries)
    return [e.participant_id if per_pid[e.participant_id] == 1
            else f"{e.participant_id}#{e.trial_path.stem}" for e in entries]


def _read_trial(path: Path, channel: str) -> RawRecording:
    if not path.is_file():
        raise ManifestError(f"trial file not found: {path}")
    times, values = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name, what in (("time_s", "required column"),
                           (channel, "channel column")):
            if name not in header:
                raise ManifestError(f"{path}: missing {what} {name!r}")
            if header.count(name) > 1:
                raise ManifestError(f"{path}: header names column {name!r} "
                                    f"{header.count(name)} times")
        ti, ci = header.index("time_s"), header.index(channel)
        for row in reader:
            if not row:  # blank line
                continue
            try:
                t, v = float(row[ti]), float(row[ci])
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ValueError("non-finite value")
                if times and t <= times[-1]:
                    raise ValueError("timestamps not strictly increasing")
            except IndexError:
                raise ManifestError(f"{path}:{reader.line_num}: row is shorter "
                                    f"than the header") from None
            except ValueError as exc:
                raise ManifestError(f"{path}:{reader.line_num}: {exc}") from exc
            times.append(t)
            values.append(v)
    if len(times) < 8:
        raise ManifestError(f"{path}: fewer than 8 samples ({len(times)})")
    return RawRecording(np.array(times), np.array(values))


@dataclass(frozen=True)
class IngestedTrial:
    entry: ManifestEntry
    label: str
    trajectory: Trajectory


@dataclass(frozen=True)
class IngestResult:
    items: list[IngestedTrial]
    skipped: list[tuple[str, str]]  # (label, reason)

    @property
    def trajectories(self) -> list[Trajectory]:
        return [it.trajectory for it in self.items]


def ingest(manifest_path: Path | str, config: PipelineConfig,
           skip_bad: bool = False) -> IngestResult:
    """Load, resample, and smooth every trial named by the manifest.

    A bad trial aborts the run with file/row context unless `skip_bad`,
    in which case it is recorded in `skipped` instead. A trial whose
    smoothed signal is flat (L2 norm below MIN_SIGNAL_NORM) is bad: no
    cosine distance exists for it. So is a constant one (derivative L2 norm
    at most MIN_VARIATION_RATIO times the signal's): it has no shape to
    align.
    """
    entries = load_manifest(manifest_path)
    if not entries:
        raise InsufficientDataError(f"{manifest_path}: manifest lists no trials")

    items, skipped = [], []
    for e, label in zip(entries, _trial_labels(entries)):
        try:
            rec = _read_trial(e.trial_path, config.channel)
            traj = resample(rec, config.grid_n)
            traj = butterworth_lowpass(traj, config.filter_order,
                                       config.cutoff_ratio)
            norm = l2_norm(traj.values, traj.grid)
            if norm < MIN_SIGNAL_NORM:
                raise ManifestError(
                    f"{e.trial_path}: flat signal (L2 norm {norm:.3g} "
                    f"< {MIN_SIGNAL_NORM:g})"
                )
            slope = l2_norm(derivative(traj).values, traj.grid)
            if slope <= MIN_VARIATION_RATIO * norm:
                raise ManifestError(
                    f"{e.trial_path}: constant signal (derivative L2 norm "
                    f"{slope:.3g} <= {MIN_VARIATION_RATIO:g} x L2 norm "
                    f"{norm:.3g})"
                )
        except (ManifestError, ValueError) as exc:
            if not skip_bad:
                raise
            skipped.append((label, str(exc)))
            continue
        items.append(IngestedTrial(e, label, traj))
    return IngestResult(items, skipped)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticipantScore:
    label: str
    cohort: str
    brooke_score: int | None
    dynamometry: float | None
    triple: DistanceTriple


@dataclass(frozen=True)
class CohortReport:
    """Scores and cohort statistics; the "stats" stage leaves the matrix
    and rolling fields at their defaults."""

    scores: list[ParticipantScore]
    t_tests: dict
    regressions: dict
    mean: Trajectory
    separation: RegistrationResult
    skipped: list[tuple[str, str]]
    matrix_pre: DistanceMatrix | None = None
    matrix_post: DistanceMatrix | None = None
    matrix_summary: dict = field(
        default_factory=lambda: {"pre": None, "post": None})
    rolling: dict[str, np.ndarray] = field(default_factory=dict)
    rolling_window: int = 0

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
    q_mean = to_srvf(mean)
    scores = []
    for it, warp, aligned in zip(items, alignment.warps, alignment.aligned):
        q_i = to_srvf(it.trajectory)
        amp = l2_norm(q_mean.q - group_action(q_i, warp).q, mean.grid)
        triple = DistanceTriple(
            amplitude=amp,
            phase=phase_distance(warp),
            cosine=cosine_distance(mean, aligned),
        )
        scores.append(ParticipantScore(it.label, it.entry.cohort,
                                       it.entry.brooke_score,
                                       it.entry.dynamometry, triple))
    return scores, alignment


def cohort_t_tests(scores: list[ParticipantScore]) -> dict:
    healthy = [s for s in scores if s.cohort == "healthy"]
    patients = [s for s in scores if s.cohort != "healthy"]
    out = {}
    for metric in ("amplitude", "phase", "cosine"):
        if len(healthy) < 2 or len(patients) < 2:
            out[metric] = {"skipped": "need >= 2 trials per group"}
            continue
        res = welch_t_test([getattr(s.triple, metric) for s in healthy],
                           [getattr(s.triple, metric) for s in patients])
        out[metric] = {"t": res.t_statistic, "p": res.p_value, "dof": res.dof}
    return out


def cohort_regressions(scores: list[ParticipantScore]) -> dict:
    out = {}
    covariates = {
        "brooke": lambda s: s.brooke_score,
        "dynamometry": lambda s: s.dynamometry,
    }
    for metric in ("amplitude", "phase"):
        for cov_name, get in covariates.items():
            key = f"{metric}_vs_{cov_name}"
            subset = [(float(get(s)), getattr(s.triple, metric))
                      for s in scores if get(s) is not None]
            if len(subset) < 3:
                out[key] = {"n": len(subset), "skipped": "fewer than 3 points"}
                continue
            x = [p[0] for p in subset]
            y = [p[1] for p in subset]
            try:
                res = linear_regression(x, y)
            except DegenerateInputError as exc:
                out[key] = {"n": len(subset), "skipped": str(exc)}
                continue
            out[key] = {"n": len(subset), "slope": res.slope,
                        "intercept": res.intercept, "r": res.r,
                        "p": res.p_value}
    return out


def block_summary(matrix: DistanceMatrix, cohorts: list[str]) -> dict | None:
    """Mean within-healthy and healthy-to-patient distances, plus their ratio."""
    is_h = np.array([c == "healthy" for c in cohorts])
    if is_h.sum() < 2 or (~is_h).sum() < 1:
        return None
    v = matrix.values
    hh = v[np.ix_(is_h, is_h)]
    within = float(hh[np.triu_indices_from(hh, k=1)].mean())
    between = float(v[np.ix_(is_h, ~is_h)].mean())
    return {
        "within_healthy": within,
        "between": between,
        "ratio": between / within if within > 0 else None,
    }


@dataclass(frozen=True)
class Run:
    """What the stage chain has made so far; later stages' fields are None."""

    ingested: IngestResult
    separation: RegistrationResult | None = None
    alignment: RegistrationResult | None = None
    scores: list[ParticipantScore] | None = None
    report: CohortReport | None = None


def stages(manifest_path: Path | str, config: PipelineConfig,
           skip_bad: bool = False):
    """The analysis chain, one stage at a time.

    Yields (name, run) after each of "ingest", "mean", "score", "stats" and
    "report", where `run` holds what the chain has made so far. A caller
    that stops iterating never runs the later stages.
    """
    ingested = ingest(manifest_path, config, skip_bad=skip_bad)
    yield "ingest", Run(ingested)
    items = ingested.items
    if not items:
        raise InsufficientDataError("every trial was skipped; nothing to analyze")

    separation = build_healthy_mean(items, config)
    mean = separation.mean
    yield "mean", Run(ingested, separation)

    scores, alignment = score_against_mean(items, mean, config)
    run = Run(ingested, separation, alignment, scores)
    yield "score", run

    report = CohortReport(
        scores=scores,
        t_tests=cohort_t_tests(scores),
        regressions=cohort_regressions(scores),
        mean=mean,
        separation=separation,
        skipped=ingested.skipped,
    )
    yield "stats", replace(run, report=report)

    curves = [it.trajectory for it in items]
    labels = [it.label for it in items]
    cohorts = [it.entry.cohort for it in items]
    matrix_pre = pairwise_matrix(curves, "cosine", registered=False,
                                 labels=labels)
    matrix_post = pairwise_matrix(curves, "cosine", registered=True,
                                  max_slope=config.dp_max_slope, labels=labels)
    window = max(3, int(round(config.rolling_window_frac * config.grid_n)))
    report = replace(
        report,
        matrix_pre=matrix_pre,
        matrix_post=matrix_post,
        matrix_summary={"pre": block_summary(matrix_pre, cohorts),
                        "post": block_summary(matrix_post, cohorts)},
        rolling={it.label: rolling_correlation(aligned, mean, window)
                 for it, aligned in zip(items, alignment.aligned)},
        rolling_window=window,
    )
    yield "report", replace(run, report=report)


# ---------------------------------------------------------------------------
# Writers (9 significant digits everywhere, NaN spelled "nan")
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_distances_csv(path: Path, scores: list[ParticipantScore]) -> None:
    write_csv(path, ["participant", "cohort", "amplitude", "phase", "cosine"],
              [[s.label, s.cohort, _fmt(s.triple.amplitude),
                _fmt(s.triple.phase), _fmt(s.triple.cosine)] for s in scores])


def write_matrix_csv(path: Path, matrix: DistanceMatrix) -> None:
    rows = [[lbl] + [_fmt(v) for v in row]
            for lbl, row in zip(matrix.labels, matrix.values)]
    write_csv(path, ["label"] + list(matrix.labels), rows)


def write_mean_csv(path: Path, mean: Trajectory) -> None:
    write_csv(path, ["t", "value"],
              [[_fmt(t), _fmt(v)] for t, v in zip(mean.grid.points, mean.values)])


def write_alignment_csvs(out_dir: Path, labels: list[str],
                         alignment: RegistrationResult) -> None:
    """aligned_curves.csv and warps.csv, one row per trial and grid point."""
    pts = alignment.mean.grid.points
    curve_rows, warp_rows = [], []
    for label, aligned, warp in zip(labels, alignment.aligned, alignment.warps):
        curve_rows += [[label, _fmt(t), _fmt(v)]
                       for t, v in zip(pts, aligned.values)]
        warp_rows += [[label, _fmt(t), _fmt(g)] for t, g in zip(pts, warp.gamma)]
    write_csv(out_dir / "aligned_curves.csv", ["participant", "t", "value"],
              curve_rows)
    write_csv(out_dir / "warps.csv", ["participant", "t", "gamma"], warp_rows)


def write_rolling_csv(path: Path, grid_points: np.ndarray, window: int,
                      values: np.ndarray) -> None:
    h = grid_points[1] - grid_points[0]
    centers = grid_points[: values.size] + 0.5 * (window - 1) * h
    write_csv(path, ["t_center", "correlation"],
              [[_fmt(t), _fmt(v)] for t, v in zip(centers, values)])


def write_stats_json(path: Path, report: CohortReport) -> None:
    """The report's summary as JSON; a NaN raises instead of writing NaN."""
    with path.open("w") as fh:
        json.dump(report.summary_dict(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_report(out_dir: Path | str, report: CohortReport) -> None:
    """Write every report artifact of a full run into `out_dir`.

    Outputs: distances.csv, matrix_pre.csv, matrix_post.csv, stats.json,
    mean_healthy.csv, and rolling/<label>.csv per trial.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_distances_csv(out / "distances.csv", report.scores)
    write_matrix_csv(out / "matrix_pre.csv", report.matrix_pre)
    write_matrix_csv(out / "matrix_post.csv", report.matrix_post)
    write_mean_csv(out / "mean_healthy.csv", report.mean)
    rolling_dir = out / "rolling"
    rolling_dir.mkdir(exist_ok=True)
    for label, values in report.rolling.items():
        write_rolling_csv(rolling_dir / f"{label}.csv", report.mean.grid.points,
                          report.rolling_window, values)
    write_stats_json(out / "stats.json", report)


def run_pipeline(manifest_path: Path | str, config: PipelineConfig,
                 out_dir: Path | str, skip_bad: bool = False) -> CohortReport:
    """Run the whole chain and write its report into `out_dir`."""
    _, run = list(stages(manifest_path, config, skip_bad))[-1]
    write_report(out_dir, run.report)
    return run.report
