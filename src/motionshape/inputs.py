"""The input formats: the config file, the cohort manifest and trial CSVs.

Every reader names the file, and the line where there is one, in the
ManifestError it raises for bad input.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .preprocess import PADLEN_PER_ORDER, RawRecording

__all__ = [
    "COHORTS",
    "ConfigFieldError",
    "ManifestError",
    "ManifestEntry",
    "PipelineConfig",
    "load_manifest",
    "read_trial",
    "trial_labels",
]

COHORTS = ("healthy", "DMD", "SMA")


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


def _to_number(field: str, kind: type = float) -> float:
    """kind(field), kind float or int; the error quotes at most
    MAX_QUOTED_CHARS of it."""
    try:
        return kind(field)
    except ValueError as exc:
        if len(field) <= MAX_QUOTED_CHARS:
            raise
        # both messages are "<what failed>: <repr of the field>"
        what = str(exc).partition(": ")[0]
        raise ValueError(f"{what}: {_quoted(field)}") from None


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
            brooke = _to_number(brooke_raw, int) if brooke_raw else None
            dyn = _to_number(dyn_raw) if dyn_raw else None
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
    for rowno, label in zip(rownos, trial_labels(entries)):
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


def trial_labels(entries: list[ManifestEntry]) -> list[str]:
    """Each trial's name in the outputs: its participant_id, plus '#' and
    the trial file's stem when the participant has several trials."""
    per_pid = Counter(e.participant_id for e in entries)
    return [e.participant_id if per_pid[e.participant_id] == 1
            else f"{e.participant_id}#{e.trial_path.stem}" for e in entries]


def read_trial(path: Path, channel: str) -> RawRecording:
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
    rows = _csv_rows(path, lines)
    _, header = next(rows, (0, []))
    for name, what in (("time_s", "required column"),
                       (channel, "channel column")):
        if name not in header:
            raise ManifestError(f"{path}: missing {what} {name!r}")
        if header.count(name) > 1:
            raise ManifestError(f"{path}: header names column {name!r} "
                                f"{header.count(name)} times")
    ti, ci = header.index("time_s"), header.index(channel)
    # numpy opens a name with a compressed suffix through a decompressor.
    # Its reader does not join a quoted field across lines and strips
    # \x1c-\x1f as whitespace where float() refuses them.
    if (path.suffix not in _COMPRESSED_SUFFIXES
            and not any(c in text for c in '"\x1c\x1d\x1e\x1f')):
        try:
            with warnings.catch_warnings():
                # numpy warns on a body without rows; its empty result is
                # too short, so the per-row reader then reports the file
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
    return _read_rows(path, rows, ti, ci)


def _read_rows(path: Path, rows: Iterator[tuple[int, list[str]]],
               ti: int, ci: int) -> RawRecording:
    """The per-row reader: Python's csv and float() on every data row of
    `rows`, `_csv_rows` past the header.

    It accepts all they accept (quoted fields, `1_000`, non-ASCII digits)
    and raises on the first bad line, naming it.
    """
    times, values = [], []
    for lineno, row in rows:
        if not row:  # blank line
            continue
        try:
            t, v = _to_number(row[ti]), _to_number(row[ci])
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
