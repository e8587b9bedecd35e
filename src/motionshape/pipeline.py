"""Batch pipeline: manifest + config in, scored cohort report out.

`stages` is the whole analysis chain: ingest raw trial CSVs, build the
elastic mean of the healthy cohort, align everyone to it, score the three
distances, then add statistics, distance matrices and rolling correlations.
Outputs are deterministic: same inputs and config give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial
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
    Alignment,
    RegistrationResult,
    align_to_reference,
    phase_amplitude_separation,
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


class ConfigFieldError(ManifestError):
    """Config values out of range; `fields` names the ones at fault."""

    def __init__(self, message: str, fields: tuple[str, ...]):
        super().__init__(message)
        self.fields = fields


# a number that fails to parse is quoted in the error up to this many
# characters; a stray quote can turn the rest of a file into one field
MAX_QUOTED_CHARS = 40
# the longest file name, in bytes, that common file systems accept
_MAX_NAME_BYTES = 255
# numpy's loadtxt decompresses a file named with one of these suffixes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _open_text(path: Path) -> tuple[str, io.TextIOWrapper]:
    """A file's text, whole and as a stream of lines, decoded as `open`
    decodes it; line breaks are kept as written.

    Bytes the codec refuses raise ManifestError naming the file and line.
    """
    raw = path.read_bytes()
    stream = io.TextIOWrapper(io.BytesIO(raw), newline="")
    try:
        text = raw.decode(stream.encoding)
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode(stream.encoding)
        line = 1 + len(re.findall(r"\r\n|\r|\n", before))
        raise ManifestError(f"{path}:{line}: {exc}") from exc
    return text, stream


def _csv_rows(path: Path,
              lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(number of the line it starts on, fields) of each csv row read from
    `lines`, blank rows included; a csv.Error raises ManifestError naming
    the file and the line its row starts on."""
    reader = csv.reader(lines)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ManifestError(f"{path}:{start}: {exc}") from exc


def _quoted(field: str) -> str:
    """repr(field), or for a field longer than MAX_QUOTED_CHARS, repr of
    its first MAX_QUOTED_CHARS characters followed by its length."""
    if len(field) <= MAX_QUOTED_CHARS:
        return repr(field)
    return f"{field[:MAX_QUOTED_CHARS]!r}... ({len(field)} characters)"


def _to_float(field: str) -> float:
    """float(field); the error quotes at most MAX_QUOTED_CHARS of it."""
    try:
        return float(field)
    except ValueError:
        if len(field) <= MAX_QUOTED_CHARS:
            raise
        raise ValueError(f"could not convert string to float: "
                         f"{_quoted(field)}") from None


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
                raise ConfigFieldError(
                    f"config field {name}={getattr(self, name)!r} "
                    f"out of range (expected {expected})", (name,))
        if self.grid_n <= PADLEN_PER_ORDER * self.filter_order:
            raise ConfigFieldError(
                f"config field grid_n={self.grid_n} must exceed the filter's "
                f"edge padding, {PADLEN_PER_ORDER} x filter_order="
                f"{self.filter_order}", ("grid_n", "filter_order"))

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
        _, lines = _open_text(path)
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\r\n")
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
        for key, value in (overrides or {}).items():
            raw[key] = value
            line_of.pop(key, None)
        try:
            return cls(**raw)
        except ConfigFieldError as exc:
            # name the file only when a value at fault came from it
            for name in exc.fields:
                if name in line_of:
                    raise ManifestError(f"{path}:{line_of[name]}: {exc}") from exc
            raise


def load_manifest(path: Path | str) -> list[ManifestEntry]:
    """Parse the cohort manifest CSV; paths resolve relative to it."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    entries, rownos = [], []
    _, stream = _open_text(path)
    rows = _csv_rows(path, stream)
    _, header = next(rows, (0, []))
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
    for rowno, fields in rows:
        if not fields:  # blank line
            continue
        row = dict(zip(header, fields))  # fields a short row lacks read as ""
        pid = (row.get("participant_id") or "").strip()
        cohort = (row.get("cohort") or "").strip()
        trial = (row.get("trial_path") or "").strip()
        if not pid or not trial:
            raise ManifestError(
                f"{path}:{rowno}: participant_id and trial_path are required"
            )
        # the id names output files, so it must not be a path
        if "/" in pid or "\\" in pid:
            raise ManifestError(
                f"{path}:{rowno}: participant_id {pid!r} contains a "
                f"path separator"
            )
        for name, value in (("participant_id", pid), ("trial_path", trial)):
            if "\0" in value:
                raise ManifestError(f"{path}:{rowno}: {name} {value!r} "
                                    f"contains a NUL character")
        if cohort not in COHORTS:
            raise ManifestError(
                f"{path}:{rowno}: cohort {cohort!r} not one of {COHORTS}"
            )
        brooke_raw = (row.get("brooke_score") or "").strip()
        dyn_raw = (row.get("dynamometry") or "").strip()
        try:
            brooke = int(brooke_raw) if brooke_raw else None
            dyn = _to_float(dyn_raw) if dyn_raw else None
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
    # label.casefold() -> (row, label); labels that differ only by case
    # name one file on a case-insensitive file system
    first: dict[str, tuple[int, str]] = {}
    for rowno, label in zip(rownos, _trial_labels(entries)):
        size = len(f"{label}.csv".encode())
        if size > _MAX_NAME_BYTES:
            raise ManifestError(
                f"{path}:{rowno}: trial label {_quoted(label)} makes a "
                f"{size}-byte file name, longer than {_MAX_NAME_BYTES}"
            )
        if label.casefold() in first:
            first_rowno, first_label = first[label.casefold()]
            as_ = ("" if first_label == label else
                   f" as {first_label!r}, which differs only by case")
            raise ManifestError(
                f"{path}:{rowno}: duplicate trial label {label!r} "
                f"(first at row {first_rowno}{as_})"
            )
        first[label.casefold()] = rowno, label
    entries.sort(key=lambda e: (e.participant_id, e.trial_path.name))
    return entries


def _trial_labels(entries: list[ManifestEntry]) -> list[str]:
    """Each trial's name in the outputs: its participant_id, plus '#' and
    the trial file's stem when the participant has several trials."""
    per_pid = Counter(e.participant_id for e in entries)
    return [e.participant_id if per_pid[e.participant_id] == 1
            else f"{e.participant_id}#{e.trial_path.stem}" for e in entries]


def _read_trial(path: Path, channel: str) -> RawRecording:
    """One trial CSV's `time_s` and channel columns.

    numpy's C reader parses the data rows, reading the file again by name.
    A file it refuses, whose values fail a check, or that changed between
    the two reads, is parsed from the first read by `_read_rows`, which
    gives the same values or names the bad line. A file that cannot be
    read raises ManifestError naming it.
    """
    if not path.is_file():
        raise ManifestError(f"trial file not found: {path}")
    try:
        before = path.stat()
        text, lines = _open_text(path)
    except OSError as exc:
        raise ManifestError(f"{path}: {exc.strerror or exc}") from exc
    _, header = next(_csv_rows(path, lines), (0, []))
    for name, what in (("time_s", "required column"),
                       (channel, "channel column")):
        if name not in header:
            raise ManifestError(f"{path}: missing {what} {name!r}")
        if header.count(name) > 1:
            raise ManifestError(f"{path}: header names column {name!r} "
                                f"{header.count(name)} times")
    ti, ci = header.index("time_s"), header.index(channel)
    # numpy opens a name with a compressed suffix through a decompressor.
    # Its reader does not join a quoted field across lines, strips
    # \x1c-\x1f as whitespace where float() refuses them, and warns on a
    # body without rows. Without quotes the header is line 1, so a data row
    # is a line break followed by anything but another one.
    if (path.suffix not in _COMPRESSED_SUFFIXES
            and not any(c in text for c in '"\x1c\x1d\x1e\x1f')
            and re.search(r"[\r\n][^\r\n]", text)):
        try:
            with warnings.catch_warnings():
                # a body emptied since the first read; the stat check
                # below then discards numpy's empty result
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(path, delimiter=",", comments=None,
                                  skiprows=1, usecols=(ti, ci), ndmin=2,
                                  encoding=lines.encoding)
            after = path.stat()
            if ((after.st_size, after.st_mtime_ns)
                    == (before.st_size, before.st_mtime_ns)
                    and len(data) >= 8):
                times, values = data.T.copy()
                return RawRecording(times, values)
        except (ValueError, OSError):  # or a failed RawRecording check
            pass
    return _read_rows(path, text, ti, ci)


def _read_rows(path: Path, text: str, ti: int, ci: int) -> RawRecording:
    """The per-row reader: Python's csv and float() on every data row.

    It accepts all they accept (quoted fields, `1_000`, non-ASCII digits)
    and raises on the first bad line, naming it.
    """
    times, values = [], []
    rows = _csv_rows(path, io.StringIO(text, newline=""))
    next(rows)  # the header, checked by the caller
    for lineno, row in rows:
        if not row:  # blank line
            continue
        try:
            t, v = _to_float(row[ti]), _to_float(row[ci])
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("non-finite value")
            if times and t <= times[-1]:
                raise ValueError("timestamps not strictly increasing")
        except IndexError:
            raise ManifestError(f"{path}:{lineno}: row is shorter "
                                f"than the header") from None
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
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


# Ingest runs in worker processes only when each has this many bytes of
# trial files to read. On a 2-vCPU Xeon VM, starting a 2-worker fork pool
# took 33-41 ms (12-16 ms of it imports) and ingest 11-12 ms per MiB. Two
# workers save half the parse time, so they break even at about 7 MiB in
# all; at 8 MiB each they save about twice the start-up.
_BYTES_PER_WORKER = 8 << 20


def _ingest_trial(entry: ManifestEntry,
                  config: PipelineConfig) -> Trajectory | ValueError:
    """One trial read, resampled, filtered and checked.

    A bad trial's ValueError is returned, not raised, so that a worker
    process hands it back like a trajectory.
    """
    try:
        rec = _read_trial(entry.trial_path, config.channel)
        traj = resample(rec, config.grid_n)
        traj = butterworth_lowpass(traj, config.filter_order,
                                   config.cutoff_ratio)
        norm = l2_norm(traj.values, traj.grid)
        if norm < MIN_SIGNAL_NORM:
            raise ManifestError(
                f"{entry.trial_path}: flat signal (L2 norm {norm:.3g} "
                f"< {MIN_SIGNAL_NORM:g})"
            )
        slope = l2_norm(derivative(traj).values, traj.grid)
        if slope <= MIN_VARIATION_RATIO * norm:
            raise ManifestError(
                f"{entry.trial_path}: constant signal (derivative L2 norm "
                f"{slope:.3g} <= {MIN_VARIATION_RATIO:g} x L2 norm "
                f"{norm:.3g})"
            )
    except ValueError as exc:  # ManifestError is a ValueError
        return exc
    return traj


def _ingest_workers(entries: list[ManifestEntry]) -> int:
    """min(usable CPUs, trials, trial-file bytes // _BYTES_PER_WORKER)."""
    if not hasattr(os, "fork"):  # Windows: no fork start method
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    size = 0
    for e in entries:
        try:
            size += e.trial_path.stat().st_size
        except OSError:  # reported when the trial is read
            pass
    return min(cpus, len(entries), size // _BYTES_PER_WORKER)


def _ingest_trials(entries: list[ManifestEntry],
                   config: PipelineConfig) -> Iterable[Trajectory | ValueError]:
    """`_ingest_trial` of each entry, in order.

    In this process when there is at most one worker's worth of bytes;
    otherwise in forked worker processes, each given a contiguous chunk.
    """
    work = partial(_ingest_trial, config=config)
    workers = _ingest_workers(entries)
    if workers <= 1:
        return map(work, entries)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(work, entries,
                                 chunksize=-(-len(entries) // workers)))
    except BrokenProcessPool as exc:
        raise OSError(f"ingest worker died: {exc}") from exc


def ingest(manifest_path: Path | str, config: PipelineConfig,
           skip_bad: bool = False) -> IngestResult:
    """Load, resample, and smooth every trial named by the manifest.

    A bad trial aborts the run with file/row context unless `skip_bad`,
    in which case it is recorded in `skipped` instead. A trial whose
    smoothed signal is flat (L2 norm below MIN_SIGNAL_NORM) is bad: no
    cosine distance exists for it. So is a constant one (derivative L2 norm
    at most MIN_VARIATION_RATIO times the signal's): it has no shape to
    align. Large cohorts are read in worker processes; the result, and
    which error is raised, are the same as when read in this one.
    """
    entries = load_manifest(manifest_path)
    if not entries:
        raise InsufficientDataError(f"{manifest_path}: manifest lists no trials")

    items, skipped = [], []
    for e, label, traj in zip(entries, _trial_labels(entries),
                              _ingest_trials(entries, config)):
        if isinstance(traj, ValueError):
            if not skip_bad:
                raise traj
            skipped.append((label, str(traj)))
        else:
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
    scores = [ParticipantScore(it.label, it.entry.cohort, it.entry.brooke_score,
                               it.entry.dynamometry, triple)
              for it, triple in zip(items, alignment.distances)]
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
    alignment: Alignment | None = None
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
                         alignment: Alignment) -> None:
    """aligned_curves.csv and warps.csv, one row per trial and grid point."""
    pts = alignment.warps[0].grid.points
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
