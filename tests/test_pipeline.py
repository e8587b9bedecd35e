import ast
import csv
import errno
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

try:
    import fcntl
except ImportError:  # Windows: no flock
    fcntl = None

import motionshape
from motionshape.core import (DegenerateInputError, InsufficientDataError,
                              fork_map, worker_pool)
from motionshape import cli, inputs, outputs, pipeline, registration
from motionshape.preprocess import RawRecording
from motionshape.cli import main
from motionshape.analytics import pairwise_matrix
from motionshape.inputs import ManifestError, PipelineConfig, load_manifest
from motionshape.outputs import publish
from motionshape.pipeline import IngestResult, ingest, run_pipeline
from motionshape.registration import align_pairwise
from motionshape.synthetic import write_cohort

FAST = dict(grid_n=61, mean_max_iter=10)
# a valid, non-default value for every PipelineConfig field
NON_DEFAULT = dict(grid_n=61, filter_order=2, cutoff_ratio=0.2, channel="acc",
                   dp_max_slope=3, mean_max_iter=5, mean_tol=0.001,
                   rolling_window_frac=0.25)


@pytest.fixture
def cohort_dir(tmp_path):
    return write_cohort(tmp_path / "cohort", n_healthy=3, n_patients=2,
                        seed=5, rate_hz=50.0, duration_s=2.0)


def write_trial(path, rows, header=("time_s", "gyro")):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_manifest(path, entries):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["participant_id", "cohort", "trial_path",
                    "brooke_score", "dynamometry"])
        w.writerows(entries)


def extend_manifest(manifest, name, rows):
    """Copy of `manifest` next to it, with `rows` (dicts) appended."""
    with manifest.open(newline="") as fh:
        entries = list(csv.DictReader(fh)) + rows
    out = manifest.parent / name
    with out.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(entries[0]))
        w.writeheader()
        w.writerows(entries)
    return out


def all_bad_manifest(tmp_path):
    """A manifest of three trials whose files do not exist."""
    m = tmp_path / "m.csv"
    write_manifest(m, [["P1", "healthy", "ghost1.csv", "", ""],
                       ["P2", "healthy", "ghost2.csv", "", ""],
                       ["P3", "DMD", "ghost3.csv", "", ""]])
    return m


def trial_row(pid, trial_path):
    return {"participant_id": pid, "cohort": "DMD", "trial_path": trial_path,
            "brooke_score": "", "dynamometry": ""}


def reference_read_trial(path, channel):
    """The original per-row trial reader, the reference for `_read_trial`."""
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
        start = reader.line_num + 1  # errors name the line a row starts on
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:  # blank line
                continue
            try:
                t, v = float(row[ti]), float(row[ci])
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


def read_outcome(read, path):
    """("ok", times, samples) or ("error", exception type, message)."""
    try:
        rec = read(path, "gyro")
    except Exception as exc:
        return "error", type(exc), str(exc)
    return "ok", rec.timestamps, rec.samples


def quoted_as_reader_quotes(message):
    """`message` with its unparsable field cut to the prefix the reader
    quotes (the reference quotes the whole field)."""
    head, sep, quoted = message.partition("could not convert string to float: ")
    if not sep:
        return message
    field = ast.literal_eval(quoted)
    if len(field) <= inputs.MAX_QUOTED_CHARS:
        return message
    return (f"{head}{sep}{field[:inputs.MAX_QUOTED_CHARS]!r}... "
            f"({len(field)} characters)")


JUNK_TOKENS = [*"0123456789", ".", "e", "-", "_", "nan", "inf", " ", "\t",
               "\x0b", "\x0c", *"\x1c\x1d\x1e\x1f", "\x85", "\xa0", "\u2028",
               '"', ",", "#"]
NUMBER_FORMATS = ["{!r}", "{:.6e}", " {} ", "\t{}", "{}\x0c", "{:+}", "{:_}",
                  '"{}"', "{:.2f}"]


@st.composite
def trial_texts(draw):
    """Small trial files: mostly well-formed rows, some broken ones."""
    columns = draw(st.sampled_from([("time_s", "gyro"), ("gyro", "time_s"),
                                    ("time_s", "acc", "gyro"),
                                    ("time_s", "gyro", "acc")]))
    junk = st.lists(st.sampled_from(JUNK_TOKENS), max_size=4).map("".join)
    changes = ["none"] * draw(st.sampled_from([1, 30])) + [
        "junk", "short", "extra", "blank"]
    t0 = draw(st.sampled_from([-5.0, 0.0, 1000.0]))
    number = draw(st.sampled_from(NUMBER_FORMATS))
    lines = [",".join(columns)]
    for i in range(draw(st.integers(0, 14))):
        good = {"time_s": t0 + 0.25 * i, "gyro": draw(st.floats(-2e3, 2e3)),
                "acc": 1.0}
        fields = [number.format(good[c]) for c in columns]
        change = draw(st.sampled_from(changes))
        if change == "junk":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(junk)
        elif change == "short":
            fields = fields[:draw(st.integers(0, len(fields) - 1))]
        elif change == "extra":
            fields.append(draw(junk))
        elif change == "blank":
            lines.append("")
        lines.append(",".join(fields))
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.grid_n == 101
        assert cfg.filter_order == 3
        assert cfg.cutoff_ratio == 0.1
        assert cfg.dp_max_slope == 7

    def test_from_file_with_comments(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# comment\ngrid_n = 61\ncutoff_ratio = 0.2\n\n")
        cfg = PipelineConfig.from_file(f)
        assert cfg.grid_n == 61
        assert cfg.cutoff_ratio == 0.2

    def test_unknown_key_names_line(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = 61\nwavelet = db4\n")
        with pytest.raises(ManifestError, match=r"cfg\.txt:2.*wavelet"):
            PipelineConfig.from_file(f)

    def test_bad_value_names_field(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = eleven\n")
        with pytest.raises(ManifestError, match=r"cfg\.txt:1.*grid_n"):
            PipelineConfig.from_file(f)

    def test_out_of_range_rejected(self):
        with pytest.raises(ManifestError, match="cutoff_ratio"):
            PipelineConfig(cutoff_ratio=1.5)
        with pytest.raises(ManifestError, match="grid_n"):
            PipelineConfig(grid_n=2)

    def test_out_of_range_in_file_names_line(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = 61\ncutoff_ratio = 1.5\n")
        with pytest.raises(ManifestError, match=r"cfg\.txt:2.*cutoff_ratio"):
            PipelineConfig.from_file(f)

    def test_grid_n_must_exceed_filter_padding(self, capsys):
        # filtfilt pads each edge with 3 x filter_order samples
        with pytest.raises(ManifestError, match=r"grid_n=9.*filter_order=3"):
            PipelineConfig(grid_n=9)
        with pytest.raises(ManifestError, match=r"grid_n=12.*filter_order=4"):
            PipelineConfig(grid_n=12, filter_order=4)
        assert PipelineConfig(grid_n=10).grid_n == 10
        assert main(["ingest-check", "--manifest", "unused.csv",
                     "--grid-n", "8", "--skip-bad"]) == 2
        err = capsys.readouterr().err
        assert "grid_n=8" in err and "filter_order=3" in err

    def test_line_numbers_count_only_line_breaks(self, tmp_path):
        # \x0c and \x85 end a line for str.splitlines, not for the csv readers
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = 61\x0c\nmean_max_iter = 10\x85\nfoo = 1\n")
        with pytest.raises(ManifestError,
                           match=r"cfg\.txt:3: unknown config key 'foo'"):
            PipelineConfig.from_file(f)

    @pytest.mark.parametrize("text, flags, where", [
        ("cutoff_ratio = 0.2\n", ["--cutoff-ratio", "2"], ""),
        ("grid_n = 61\n", ["--cutoff-ratio", "2"], ""),
        ("grid_n = 61\ncutoff_ratio = 2\n", [], "{cfg}:2: "),
        ("filter_order = 4\ngrid_n = 12\n", [], "{cfg}:2: "),
        ("grid_n = 12\n", ["--filter-order", "4"], "{cfg}:1: "),
        ("filter_order = 4\n", ["--grid-n", "12"], "{cfg}:1: "),
        ("mean_tol = 0.1\n", ["--grid-n", "12", "--filter-order", "4"], ""),
    ], ids=["flag over file", "flag", "file", "file pair", "file grid_n",
            "file filter_order", "flag pair"])
    def test_error_names_file_only_for_its_values(self, tmp_path, capsys,
                                                  text, flags, where):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["ingest-check", "--manifest", "unused.csv",
                     "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + where.format(cfg=cfg) + "config field ")

    def test_overrides_win(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = 61\n")
        cfg = PipelineConfig.from_file(f, {"grid_n": 81})
        assert cfg.grid_n == 81

    def test_readme_table_lists_every_field(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| (\w+) +\| (\S+) +\|", readme.read_text(),
                          re.MULTILINE)
        assert rows[0] == ("field", "default")
        assert [name for name, _ in rows[1:]] == \
            [f.name for f in fields(PipelineConfig)]
        for (name, text), f in zip(rows[1:], fields(PipelineConfig)):
            assert type(f.default)(text) == f.default, name

    def test_every_field_round_trips_through_file(self, tmp_path):
        assert set(NON_DEFAULT) == {f.name for f in fields(PipelineConfig)}
        f = tmp_path / "cfg.txt"
        f.write_text("".join(f"{k} = {v}\n" for k, v in NON_DEFAULT.items()))
        cfg = PipelineConfig.from_file(f)
        assert cfg == PipelineConfig(**NON_DEFAULT)
        for k, v in NON_DEFAULT.items():
            assert type(getattr(cfg, k)) is type(v), k

    def test_every_field_round_trips_through_cli(self, monkeypatch):
        seen = []

        def fake_ingest(manifest, config, skip_bad=False):
            seen.append(config)
            return IngestResult([], [])

        monkeypatch.setattr(pipeline, "ingest", fake_ingest)
        argv = ["ingest-check", "--manifest", "m.csv"]
        for k, v in NON_DEFAULT.items():
            argv += ["--" + k.replace("_", "-"), str(v)]
        assert main(argv) == 0
        assert seen == [PipelineConfig(**NON_DEFAULT)]
        for k, v in NON_DEFAULT.items():
            assert type(getattr(seen[0], k)) is type(v), k


class TestManifest:
    def test_load_and_sort(self, cohort_dir):
        entries = load_manifest(cohort_dir)
        assert len(entries) == 5
        ids = [e.participant_id for e in entries]
        assert ids == sorted(ids)
        assert {e.cohort for e in entries} <= {"healthy", "DMD", "SMA"}

    def test_unknown_cohort(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "control", "x.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"m\.csv:2.*control"):
            load_manifest(m)

    def test_duplicate_pair(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "x.csv", "", ""],
                           ["P1", "healthy", "x.csv", "", ""]])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(m)

    def test_duplicate_label(self, tmp_path):
        # different files, but both trials would be labelled X1#t
        m = tmp_path / "m.csv"
        write_manifest(m, [["X1", "healthy", "a/t.csv", "", ""],
                           ["X1", "healthy", "b/t.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"m\.csv:3: duplicate.*X1#t"):
            load_manifest(m)

    @pytest.mark.parametrize("pid", ["../../escaped", "a/b", "a\\b"])
    def test_participant_id_with_path_separator(self, tmp_path, pid):
        m = tmp_path / "m.csv"
        write_manifest(m, [[pid, "healthy", "x.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"m\.csv:2.*participant_id"):
            load_manifest(m)

    @pytest.mark.parametrize("row, field", [
        (["P\0X", "healthy", "b.csv"], "participant_id 'P\\x00X'"),
        (["P2", "healthy", "b\0.csv"], "trial_path 'b\\x00.csv'"),
    ], ids=["participant_id", "trial_path"])
    def test_nul_character_rejected(self, tmp_path, row, field):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""], row])
        with pytest.raises(ManifestError) as exc:
            load_manifest(m)
        assert str(exc.value) == f"{m}:3: {field} contains a NUL character"

    @pytest.mark.parametrize("rows, rowno, size", [
        ([["P1", "a.csv"], ["x" * 252, "b.csv"]], 3, 256),
        # 126 characters, but 252 bytes in UTF-8
        ([["\u00e9" * 126, "a.csv"]], 2, 256),
        # the id alone would fit; with '#t1' its label does not
        ([["x" * 249, "t1.csv"], ["x" * 249, "t2.csv"]], 2, 256),
    ], ids=["ascii", "utf-8", "several trials"])
    def test_label_too_long_for_a_file_name(self, tmp_path, rows, rowno,
                                            size):
        m = tmp_path / "m.csv"
        write_manifest(m, [[pid, "healthy", trial, "", ""]
                           for pid, trial in rows])
        with pytest.raises(ManifestError,
                           match=rf"m\.csv:{rowno}: trial label .* makes a "
                                 rf"{size}-byte file name, longer than 255"):
            load_manifest(m)

    def test_longest_file_names_accepted(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["x" * 251, "healthy", "a.csv", "", ""],
                           ["\u00e9" * 125, "healthy", "b.csv", "", ""]])
        names = [f"{e.participant_id}.csv" for e in load_manifest(m)]
        assert [len(n.encode()) for n in names] == [255, 254]
        for name in names:
            (tmp_path / name).write_text("")

    @pytest.mark.parametrize("rows, label, first", [
        ([["P1", "a.csv"], ["p1", "b.csv"]], "p1", "P1"),
        ([["X1", "a/t.csv"], ["X1", "b/T.csv"]], "X1#T", "X1#t"),
        ([["STRASSE", "a.csv"], ["stra\u00dfe", "b.csv"]], "stra\u00dfe",
         "STRASSE"),
    ], ids=["id", "stem", "casefold"])
    def test_labels_differing_only_by_case(self, tmp_path, rows, label,
                                           first):
        m = tmp_path / "m.csv"
        write_manifest(m, [[pid, "healthy", trial, "", ""]
                           for pid, trial in rows])
        with pytest.raises(ManifestError) as exc:
            load_manifest(m)
        assert str(exc.value) == (
            f"{m}:3: duplicate trial label {label!r} (first at row 2 as "
            f"{first!r}, which differs only by case)")

    def test_brooke_out_of_range(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "DMD", "x.csv", "9", ""]])
        with pytest.raises(ManifestError, match="brooke"):
            load_manifest(m)

    @pytest.mark.parametrize("field, quoted", [
        ("abc", "'abc'"),
        ("x" * 300, f"{'x' * inputs.MAX_QUOTED_CHARS!r}... (300 characters)"),
    ], ids=["short", "long"])
    def test_brooke_not_an_integer_quotes_a_short_prefix(self, tmp_path,
                                                         field, quoted):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "DMD", "x.csv", field, ""]])
        with pytest.raises(ManifestError) as exc:
            load_manifest(m)
        assert str(exc.value) == (
            f"{m}:2: invalid literal for int() with base 10: {quoted}")

    def test_missing_columns(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("participant_id,cohort\nP1,healthy\n")
        with pytest.raises(ManifestError, match="missing columns"):
            load_manifest(m)

    def test_row_number_counts_blank_lines(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("participant_id,cohort,trial_path\n"
                     "P1,healthy,a.csv\n\n\nP2,control,b.csv\n")
        with pytest.raises(ManifestError, match=r"m\.csv:5: .*control"):
            load_manifest(m)

    @pytest.mark.parametrize("pid, error", [
        ('"P2\nx"', "cohort 'control'"),
        (f'"P2\n{"b" * 200_000}"', "field larger than field limit"),
    ], ids=["row error", "csv error"])
    def test_row_spanning_lines_names_its_first(self, tmp_path, pid, error):
        m = tmp_path / "m.csv"
        m.write_text("participant_id,cohort,trial_path\nP1,healthy,a.csv\n"
                     f"{pid},control,b.csv\n")
        with pytest.raises(ManifestError, match=rf"m\.csv:3: {error}"):
            load_manifest(m)

    def test_short_row_lacks_optional_fields(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "DMD", "a.csv"]])
        (entry,) = load_manifest(m)
        assert (entry.brooke_score, entry.dynamometry) == (None, None)

    @pytest.mark.parametrize("header, dup", [
        ("participant_id,cohort,trial_path,cohort", "cohort"),
        ("participant_id,cohort,trial_path,brooke_score,brooke_score",
         "brooke_score"),
        ("trial_path,participant_id,cohort,trial_path,trial_path",
         "trial_path"),
    ])
    def test_duplicate_column_rejected(self, tmp_path, header, dup):
        m = tmp_path / "m.csv"
        count = header.split(",").count(dup)
        m.write_text(header + "\nP1,healthy,a.csv,SMA,3\n")
        with pytest.raises(ManifestError,
                           match=rf"m\.csv: .*'{dup}' {count} times"):
            load_manifest(m)

    def test_undecodable_bytes_name_file_and_line(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_bytes(b"participant_id,cohort,trial_path\nP1,healthy,a.csv\n"
                      b"P2,healthy,b\xe9.csv\n")
        with pytest.raises(ManifestError,
                           match=r"m\.csv:3: 'utf-8' codec can't decode byte 0xe9"):
            load_manifest(m)

    def test_oversized_field_names_line(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("participant_id,cohort,trial_path\nP1,healthy,a.csv\n"
                     f"P2,healthy,{'b' * 200_000}.csv\n")
        with pytest.raises(ManifestError,
                           match=r"m\.csv:3: field larger than field limit"):
            load_manifest(m)


class TestIngest:
    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [])
        with pytest.raises(InsufficientDataError):
            ingest(m, PipelineConfig())

    def test_single_valid_trial(self, tmp_path):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.sin(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P7", "healthy", "a.csv", "", ""]])
        result = ingest(m, PipelineConfig(grid_n=31))
        assert len(result.trajectories) == 1
        assert result.items[0].entry.participant_id == "P7"

    def test_shuffled_rows_name_offender(self, tmp_path):
        t = np.linspace(0, 2, 40)
        rows = list(zip(t, np.sin(t)))
        rows[10], rows[11] = rows[11], rows[10]
        write_trial(tmp_path / "a.csv", rows)
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"a\.csv:13.*increasing"):
            ingest(m, PipelineConfig())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_sample_names_row(self, tmp_path, bad, column):
        t = np.linspace(0, 2, 40)
        rows = [[str(ti), str(np.sin(ti))] for ti in t]
        rows[4][column] = bad  # line 6: the header is line 1
        write_trial(tmp_path / "a.csv", rows)
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"a\.csv:6: non-finite"):
            ingest(m, PipelineConfig())
        result = ingest(m, PipelineConfig(), skip_bad=True)
        assert "a.csv:6: non-finite" in result.skipped[0][1]

    def test_row_number_counts_blank_lines(self, tmp_path):
        (tmp_path / "a.csv").write_text(
            "time_s,gyro\n0.0,1.0\n\n0.1,2.0\n\n0.2,oops\n0.3,1.0\n")
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"a\.csv:6: .*oops"):
            ingest(m, PipelineConfig())

    def test_blank_lines_skipped(self, tmp_path):
        t = np.linspace(0, 2, 40)
        lines = [f"{ti},{np.sin(ti)}\n\n" for ti in t]
        (tmp_path / "a.csv").write_text("time_s,gyro\n" + "".join(lines))
        write_trial(tmp_path / "b.csv", zip(t, np.sin(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""],
                           ["P2", "healthy", "b.csv", "", ""]])
        a, b = ingest(m, PipelineConfig(grid_n=31)).trajectories
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("header", [("time_s", "gyro", "gyro"),
                                        ("time_s", "gyro", "time_s")])
    def test_duplicate_column_rejected(self, tmp_path, header):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.sin(t), np.cos(t)),
                    header=header)
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        dup = header[2]
        with pytest.raises(ManifestError, match=rf"a\.csv: .*'{dup}' 2 times"):
            ingest(m, PipelineConfig())

    def test_missing_file(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "ghost.csv", "", ""]])
        with pytest.raises(ManifestError, match="ghost"):
            ingest(m, PipelineConfig())

    def test_missing_channel_column(self, tmp_path):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.sin(t)), header=("time_s", "acc"))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match="'gyro'"):
            ingest(m, PipelineConfig())

    def test_too_few_samples(self, tmp_path):
        write_trial(tmp_path / "a.csv", [(0.0, 1.0), (0.1, 2.0), (0.2, 1.5)])
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match="fewer than 8"):
            ingest(m, PipelineConfig())

    def test_flat_trial_rejected(self, tmp_path):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.zeros_like(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"a\.csv: flat signal"):
            ingest(m, PipelineConfig())

    @pytest.mark.parametrize("value", [5.0, 0.001, 123.456, -7.0])
    def test_constant_trial_rejected(self, tmp_path, value):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.full_like(t, value)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError, match=r"a\.csv: constant signal"):
            ingest(m, PipelineConfig())

    @pytest.mark.parametrize("amplitude, which", [
        (1e200, "L2 norm"), (1e154, "derivative L2 norm")])
    def test_overflowing_signal_rejected(self, tmp_path, amplitude, which):
        t = np.linspace(0, 4, 200)
        write_trial(tmp_path / "a.csv", zip(t, amplitude * np.sin(5 * t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError) as exc:
            ingest(m, PipelineConfig())
        assert str(exc.value) == (
            f"{tmp_path.resolve() / 'a.csv'}: signal too large "
            f"({which} overflows)")

    # timestamps that read_trial accepts but the resampled trial cannot use
    BAD_TIMES = {
        "overflowing_span": (
            np.concatenate([np.linspace(-1e308, 0, 100),
                            np.linspace(0, 1e308, 101)[1:]]),
            "time span -1e+308 to 1e+308 s overflows"),
        "overflowing_step": (
            np.concatenate([np.linspace(-1e308, -9e307, 100),
                            np.linspace(9e307, 1e308, 100)]),
            "time span -1e+308 to 1e+308 s overflows"),
        "subnormal_span": (np.arange(200) * 1e-322,
                           "time steps too small to interpolate "
                           "(smallest 9.88131e-323 s)"),
    }

    @pytest.mark.parametrize("skip_bad", [False, True])
    @pytest.mark.parametrize("kind", sorted(BAD_TIMES))
    def test_bad_timestamps_name_the_trial(self, cohort_dir, kind, skip_bad):
        times, reason = self.BAD_TIMES[kind]
        path = (cohort_dir.parent / f"{kind}.csv").resolve()
        write_trial(path, zip(times, np.sin(np.linspace(0, 20, 200))))
        m = extend_manifest(cohort_dir, "with_bad.csv",
                            [trial_row("PB", str(path))])
        if skip_bad:
            result = ingest(m, PipelineConfig(grid_n=31), skip_bad=True)
            assert len(result.items) == 5
            assert result.skipped == [("PB", f"{path}: {reason}")]
        else:
            with pytest.raises(ManifestError) as exc:
                ingest(m, PipelineConfig(grid_n=31))
            assert str(exc.value) == f"{path}: {reason}"

    def test_first_bad_trial_stops_reading(self, cohort_dir, monkeypatch):
        read, real = [], inputs.read_trial

        def recorded(path, channel):
            read.append(path.name)
            return real(path, channel)

        monkeypatch.setattr(pipeline, "read_trial", recorded)
        # sorts between H01 and H02
        m = extend_manifest(cohort_dir, "bad_second.csv",
                            [trial_row("H01x", "ghost.csv")])
        with pytest.raises(ManifestError, match="ghost.csv"):
            ingest(m, PipelineConfig(grid_n=31))
        assert read == ["healthy_00.csv", "healthy_01.csv", "ghost.csv"]

    def test_skip_bad_collects_instead(self, tmp_path):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "good.csv", zip(t, np.sin(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "good.csv", "", ""],
                           ["P2", "healthy", "ghost.csv", "", ""]])
        result = ingest(m, PipelineConfig(grid_n=31), skip_bad=True)
        assert len(result.items) == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == "P2"

    def test_undecodable_bytes_name_file_and_line(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(
            b"time_s,gyro\r\n0.0,1.0\r\n0.1,\xff2.0\r\n0.2,1.0\r\n")
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(ManifestError,
                           match=r"a\.csv:3: 'utf-8' codec can't decode byte 0xff"):
            ingest(m, PipelineConfig())

    def test_unreadable_trial_names_file(self, cohort_dir, monkeypatch):
        read_bytes = Path.read_bytes
        trial = (cohort_dir.parent / "healthy_02.csv").resolve()

        def refuse(self):
            if self == trial:
                raise PermissionError(errno.EACCES, "Permission denied",
                                      str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", refuse)
        result = ingest(cohort_dir, PipelineConfig(grid_n=31), skip_bad=True)
        assert result.skipped == [("H02", f"{trial}: Permission denied")]
        assert len(result.items) == 4
        with pytest.raises(ManifestError,
                           match=rf"healthy_02\.csv: Permission denied$"):
            ingest(cohort_dir, PipelineConfig(grid_n=31))

    def test_stray_quote_quotes_a_short_prefix(self, tmp_path):
        t = np.linspace(0, 2, 40)
        rows = [[f"{ti:.6f}", f"{np.sin(ti):.6f}"] for ti in t]
        rows[4][1] = '"' + rows[4][1]  # opens a field that never closes
        (tmp_path / "a.csv").write_text(
            "time_s,gyro\n" + "".join(",".join(r) + "\n" for r in rows))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        result = ingest(m, PipelineConfig(), skip_bad=True)
        reason = result.skipped[0][1]
        field = f"{np.sin(t[4]):.6f}\n" + "".join(
            ",".join(r) + "\n" for r in rows[5:])
        quoted = repr(field[:inputs.MAX_QUOTED_CHARS])
        # the field runs to the end of the file; its row starts on line 6
        assert reason.endswith(f"a.csv:6: could not convert string to float: "
                               f"{quoted}... ({len(field)} characters)")


def two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")


@contextmanager
def in_process(monkeypatch):
    """One usable CPU while the block runs: every `fork_map` stays in this
    process."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestIngestWorkers:
    """Ingest in forked worker processes against ingest in this one."""

    # label -> trial file of one bad trial of each kind
    BAD = {"PM": "ghost.csv", "PF": "flat.csv", "PC": "constant.csv",
           "PR": "bad_row.csv", "PS": "stray_quote.csv"}

    @pytest.fixture
    def mixed(self, cohort_dir):
        """The 5-trial cohort plus a fully quoted good trial and one bad
        trial of each kind in BAD."""
        d = cohort_dir.parent
        rows = [(f"{i / 50:.6f}", f"{math.sin(i / 10):.6f}") for i in range(100)]
        write_trial(d / "flat.csv", [(i / 50, 0.0) for i in range(100)])
        write_trial(d / "constant.csv", [(i / 50, 5.0) for i in range(100)])
        write_trial(d / "bad_row.csv", rows[:10] + [(0.2, "abc")] + rows[11:])
        write_trial(d / "stray_quote.csv",
                    rows[:4] + [(rows[4][0], '"' + rows[4][1])] + rows[5:])
        with (d / "quoted.csv").open("w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(
                [("time_s", "gyro"), *rows])
        return extend_manifest(
            cohort_dir, "mixed.csv",
            [trial_row("PQ", "quoted.csv")]
            + [trial_row(label, name) for label, name in self.BAD.items()])

    def test_same_items_and_skips(self, mixed, pools):
        config = PipelineConfig(grid_n=31)
        want = ingest(mixed, config, skip_bad=True)
        assert pools == []
        two_cpus()
        with worker_pool():
            got = ingest(mixed, config, skip_bad=True)
        assert [pool.maps for pool in pools] == [[len(self.BAD) + 6]]
        assert [it.label for it in want.items] == \
            ["H00", "H01", "H02", "P00", "P01", "PQ"]
        assert [label for label, _ in want.skipped] == sorted(self.BAD)
        assert got.skipped == want.skipped
        assert [(it.entry, it.label) for it in got.items] == \
            [(it.entry, it.label) for it in want.items]
        for g, w in zip(got.items, want.items):
            assert g.trajectory.grid == w.trajectory.grid
            assert g.trajectory.values.tobytes() == w.trajectory.values.tobytes()
            assert not g.trajectory.values.flags.writeable
            assert not g.trajectory.grid.points.flags.writeable

    @pytest.mark.parametrize("label", [*sorted(BAD), None])
    def test_same_error(self, cohort_dir, mixed, pools, label):
        # None: every kind, PC in the first worker's chunk, the rest in the
        # second's; the first in manifest order is raised
        m = mixed if label is None else extend_manifest(
            cohort_dir, "one_bad.csv", [trial_row(label, self.BAD[label])])
        with pytest.raises(ValueError) as want:
            ingest(m, PipelineConfig(grid_n=31))
        two_cpus()
        with worker_pool(), pytest.raises(ValueError) as got:
            ingest(m, PipelineConfig(grid_n=31))
        assert len(pools) == 1
        assert type(got.value) is type(want.value) is ManifestError
        assert str(got.value) == str(want.value)
        assert self.BAD[label or "PC"] in str(got.value)

    def test_same_report_tree(self, mixed, tmp_path, monkeypatch, pools):
        argv = ["report", "--manifest", str(mixed), "--skip-bad",
                "--grid-n", "61", "--mean-max-iter", "10", "--out"]
        with in_process(monkeypatch):
            assert main(argv + [str(tmp_path / "in_process")]) == 0
        assert pools == []
        two_cpus()
        assert main(argv + [str(tmp_path / "workers")]) == 0
        assert len(pools) == 1
        want = tree_bytes(tmp_path / "in_process")
        assert len(json.loads(want["stats.json"])["skipped"]) == len(self.BAD)
        assert tree_bytes(tmp_path / "workers") == want

    def test_dead_worker_fails_cleanly(self, cohort_dir, monkeypatch,
                                       capsys):
        parent, read_trial = os.getpid(), inputs.read_trial

        def die_in_worker(path, channel):
            if os.getpid() != parent:  # forked workers inherit the patch
                os._exit(1)
            return read_trial(path, channel)

        monkeypatch.setattr(pipeline, "read_trial", die_in_worker)
        two_cpus()
        assert main(["ingest-check", "--manifest", str(cohort_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ingest worker died: ")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []


class TestDpWorkers:
    """Warp solves in forked worker processes against solves in this one."""

    def test_same_report_tree(self, cohort_dir, tmp_path, monkeypatch, pools):
        argv = ["report", "--manifest", str(cohort_dir), "--grid-n", "61",
                "--mean-max-iter", "10", "--out"]
        with in_process(monkeypatch):
            assert main(argv + [str(tmp_path / "in_process")]) == 0
        assert pools == []
        two_cpus()
        assert main(argv + [str(tmp_path / "workers")]) == 0
        # ingest, each of the mean's iterations, the scoring pass and
        # matrix_post, all in one pool
        (pool,) = pools
        assert pool.maps[0] == 5 and set(pool.maps[1:-2]) == {3}
        assert pool.maps[-2:] == [5, 20]
        assert tree_bytes(tmp_path / "workers") == \
            tree_bytes(tmp_path / "in_process")

    @pytest.mark.parametrize("metric", ["amplitude", "phase", "cosine"])
    def test_same_registered_matrix(self, cohort_dir, pools, metric):
        curves = ingest(cohort_dir, PipelineConfig(grid_n=61)).trajectories
        want = pairwise_matrix(curves, metric, registered=True).values
        assert pools == []
        two_cpus()
        with worker_pool():
            got = pairwise_matrix(curves, metric, registered=True).values
        assert [pool.maps for pool in pools] == [[20]]
        assert np.array_equal(got, want)

    def test_solved_warps_are_equal_and_read_only(self, cohort_dir, pools):
        curves = ingest(cohort_dir, PipelineConfig(grid_n=61)).trajectories
        want = align_pairwise(curves).warps
        two_cpus()
        with worker_pool():
            got = align_pairwise(curves).warps
        assert [pool.maps for pool in pools] == [[20]]
        for g, w in zip(got, want, strict=True):
            assert g.gamma.tobytes() == w.gamma.tobytes()
            assert not g.gamma.flags.writeable
            assert not g.grid.points.flags.writeable

    def test_dead_worker_fails_cleanly(self, cohort_dir, monkeypatch, capsys):
        parent, dp_path = os.getpid(), registration._dp_path

        def die_in_worker(*args):
            if os.getpid() != parent:  # forked workers inherit the patch
                os._exit(1)
            return dp_path(*args)

        monkeypatch.setattr(registration, "_dp_path", die_in_worker)
        two_cpus()
        argv = ["report", "--manifest", str(cohort_dir), "--grid-n", "61",
                "--out", str(cohort_dir.parent / "out")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: alignment worker died: ")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []


class TestRunPool:
    """One fork pool per run, and no worker left once the run returns."""

    def test_one_pool_per_report_run(self, cohort_dir, tmp_path, pools):
        two_cpus()
        argv = ["report", "--manifest", str(cohort_dir), "--grid-n", "61",
                "--mean-max-iter", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_run_pipeline_runs_in_one_pool(self, cohort_dir, tmp_path, pools):
        two_cpus()
        run_pipeline(cohort_dir, PipelineConfig(**FAST), tmp_path / "out")
        assert len(pools) == 1 and len(pools[0].maps) >= 4
        assert multiprocessing.active_children() == []

    def test_failing_stage_stops_the_pool(self, cohort_dir, tmp_path, pools,
                                          capsys):
        # ingest runs in the pool, then the mean has one healthy trial
        m = cohort_dir.parent / "one_healthy.csv"
        write_manifest(m, [["H00", "healthy", "healthy_00.csv", "", ""],
                           ["P00", "DMD", "patient_00.csv", "", ""],
                           ["P01", "SMA", "patient_01.csv", "", ""]])
        two_cpus()
        argv = ["mean", "--manifest", str(m), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "need >= 2 healthy trials" in capsys.readouterr().err
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "mean_healthy.csv").exists()


class TestTrialReaders:
    """`_read_trial` (numpy's reader, the row reader as fallback) against
    the original per-row reader."""

    @settings(max_examples=300, deadline=None)
    @given(text=trial_texts())
    @example(text="time_s,gyro\n" + "".join(f"0.{i},1\n" for i in range(9))
             + '0.95,2,"x\n0.96,3,y"\n')
    @example(text="time_s,gyro\n" + "".join(f"{i}_0,١{i}\n" for i in range(9)))
    @example(text="time_s,gyro\n" + "".join(f"{i},{i}#x\n" for i in range(9)))
    @example(text="time_s,gyro\n"
             + "".join(f"\x1c{i}\x1d,\x1e{i}\x1f\n" for i in range(9)))
    def test_matches_row_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("trial") / "a.csv"
        path.write_bytes(text.encode())
        want = read_outcome(reference_read_trial, path)
        got = read_outcome(inputs.read_trial, path)
        assert got[0] == want[0], (got, want)
        if want[0] == "ok":
            for g, w in zip(got[1:], want[1:]):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert got[1:] == (want[1], quoted_as_reader_quotes(want[2]))

    def test_well_formed_files_skip_row_reader(self, cohort_dir, tmp_path,
                                               monkeypatch):
        def no_row_reader(*args):
            raise AssertionError("row reader used for a well-formed file")

        t = np.linspace(0, 2, 40)
        rows = [f" {ti:.6e}\t,{math.sin(ti)!r},x" for ti in t]
        (tmp_path / "crlf.csv").write_bytes(
            ("time_s,gyro,note\r\n" + "\r\n".join(rows) + "\r\n\r\n").encode())
        m = extend_manifest(cohort_dir, "with_crlf.csv",
                            [trial_row("PC", str(tmp_path / "crlf.csv"))])
        monkeypatch.setattr(inputs, "_read_rows", no_row_reader)
        got = ingest(m, PipelineConfig(grid_n=31))
        assert len(got.items) == 6 and not got.skipped

    def test_compressed_suffixes_are_numpys(self):
        openers = np.lib._datasource._file_openers.keys()
        assert set(inputs._COMPRESSED_SUFFIXES) == set(openers) - {None}

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_plain_text(self, tmp_path, monkeypatch,
                                                  suffix):
        loadtxt, calls = np.loadtxt, []

        def spy(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        text = "time_s,gyro\n" + "".join(f"{i / 10},{i % 3}\n" for i in range(9))
        plain, named = tmp_path / "t.csv", tmp_path / f"t.csv{suffix}"
        plain.write_text(text)
        named.write_text(text)
        monkeypatch.setattr(inputs.np, "loadtxt", spy)
        want = inputs.read_trial(plain, "gyro")
        assert calls == [plain]
        got = inputs.read_trial(named, "gyro")
        assert calls == [plain]
        assert np.array_equal(got.timestamps, want.timestamps)
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("change", ["size", "mtime"])
    def test_file_changed_between_reads_gives_first_read(self, tmp_path,
                                                         monkeypatch, change):
        loadtxt = np.loadtxt
        path = tmp_path / "a.csv"
        path.write_text("time_s,gyro\n"
                        + "".join(f"{i},{i % 3 + 1}\n" for i in range(9)))
        first = path.stat()

        def rewrite_then_load(*args, **kwargs):
            if change == "size":  # longer, with the old mtime
                path.write_text("time_s,gyro\n"
                                + "".join(f"{i},{i + 10}\n" for i in range(9)))
                os.utime(path, ns=(first.st_atime_ns, first.st_mtime_ns))
            else:  # the same size, one second newer
                path.write_text("time_s,gyro\n"
                                + "".join(f"{i},{i % 3 + 4}\n" for i in range(9)))
                os.utime(path, ns=(first.st_atime_ns,
                                   first.st_mtime_ns + 10**9))
            assert (path.stat().st_size == first.st_size) == (change == "mtime")
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(inputs.np, "loadtxt", rewrite_then_load)
        rec = inputs.read_trial(path, "gyro")
        assert rec.samples.tolist() == [i % 3 + 1 for i in range(9)]

    def test_file_emptied_between_reads_warns_nothing(self, tmp_path,
                                                      monkeypatch):
        loadtxt = np.loadtxt
        path = tmp_path / "a.csv"
        path.write_text("time_s,gyro\n"
                        + "".join(f"{i},{i % 3 + 1}\n" for i in range(9)))

        def truncate_then_load(*args, **kwargs):
            path.write_text("time_s,gyro\n")  # numpy then finds no rows
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(inputs.np, "loadtxt", truncate_then_load)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = inputs.read_trial(path, "gyro")
        assert rec.samples.tolist() == [i % 3 + 1 for i in range(9)]

    @pytest.mark.parametrize("body, n", [("", 0), ("\n\r\n\r", 0),
                                         ("0,1\n0.1,2\n0.2,1\n", 3)])
    def test_short_file_warns_nothing(self, tmp_path, body, n):
        path = tmp_path / "a.csv"
        path.write_bytes(("time_s,gyro\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError,
                               match=rf"a\.csv: fewer than 8 samples \({n}\)"):
                inputs.read_trial(path, "gyro")

    def test_long_finite_number_accepted(self, tmp_path):
        # past csv's field size limit, which only the row reader has
        rows = [f"{i},{i % 3}" for i in range(9)]
        rows[4] = "4," + "0" * 200_000 + "1.5"
        (tmp_path / "a.csv").write_text("time_s,gyro\n" + "\n".join(rows))
        rec = inputs.read_trial(tmp_path / "a.csv", "gyro")
        assert rec.samples[4] == 1.5


class TestRunPipeline:
    def test_single_healthy_rejected(self, tmp_path):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.sin(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        with pytest.raises(DegenerateInputError, match="reference"):
            run_pipeline(m, PipelineConfig(grid_n=31), tmp_path / "out")

    def test_outputs_and_roundtrip(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        report = run_pipeline(cohort_dir, PipelineConfig(**FAST), out)
        for name in ("distances.csv", "matrix_pre.csv", "matrix_post.csv",
                     "stats.json", "mean_healthy.csv"):
            assert (out / name).is_file()
        assert sorted(p.name for p in (out / "rolling").iterdir()) == \
            sorted(f"{s.label}.csv" for s in report.scores)

        # every statistic in stats.json reparses to exactly what was computed
        stats = json.loads((out / "stats.json").read_text())
        assert stats == report.summary_dict()
        for metric in ("amplitude", "phase", "cosine"):
            assert stats["t_tests"][metric]["p"] == report.t_tests[metric]["p"]

        with (out / "distances.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {"participant", "cohort", "amplitude",
                                "phase", "cosine"}

    def test_skip_bad_counted_in_stats(self, cohort_dir, tmp_path):
        m = extend_manifest(cohort_dir, "with_bad.csv",
                            [trial_row("PX", "ghost.csv")])
        out = tmp_path / "out"
        report = run_pipeline(m, PipelineConfig(**FAST), out, skip_bad=True)
        stats = json.loads((out / "stats.json").read_text())
        assert stats["skipped_trials"] == 1
        assert stats["skipped"][0]["label"] == "PX"
        assert len(report.scores) == 5


def rolling_names(out):
    return sorted(p.name for p in (out / "rolling").iterdir())


class TestRerunIntoUsedOut:
    """A rerun into a used --out leaves only its own rolling/ files."""

    REPORT = ["distances.csv", "matrix_post.csv", "matrix_pre.csv",
              "mean_healthy.csv", "rolling", "stats.json"]

    @pytest.fixture
    def six(self, cohort_dir):
        """The 5-trial cohort plus P02, a good trial in p02.csv."""
        write_trial(cohort_dir.parent / "p02.csv",
                    [(i / 50, math.sin(i / 10)) for i in range(100)])
        return extend_manifest(cohort_dir, "six.csv",
                               [trial_row("P02", "p02.csv")])

    def test_fewer_trials(self, cohort_dir, six, tmp_path):
        out = tmp_path / "out"
        run_pipeline(six, PipelineConfig(**FAST), out)
        assert "P02.csv" in rolling_names(out)
        report = run_pipeline(cohort_dir, PipelineConfig(**FAST), out)
        assert rolling_names(out) == \
            sorted(f"{s.label}.csv" for s in report.scores)
        assert sorted(p.name for p in out.iterdir()) == self.REPORT

    def test_skipped_trial(self, six, tmp_path):
        out = tmp_path / "out"
        run_pipeline(six, PipelineConfig(**FAST), out)
        write_trial(six.parent / "p02.csv", [(i / 50, 0.0) for i in range(100)])
        report = run_pipeline(six, PipelineConfig(**FAST), out, skip_bad=True)
        assert [label for label, _ in report.skipped] == ["P02"]
        assert "P02.csv" not in rolling_names(out)
        assert len(rolling_names(out)) == len(report.scores) == 5
        assert sorted(p.name for p in out.iterdir()) == self.REPORT

    def test_failed_writer_keeps_the_old_rolling(self, cohort_dir, six,
                                                 tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_pipeline(six, PipelineConfig(**FAST), out)
        before = tree_bytes(out / "rolling")
        calls, write = [], pipeline.write_rolling_csv

        def fail_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return write(*args)

        monkeypatch.setattr(pipeline, "write_rolling_csv", fail_second)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(cohort_dir, PipelineConfig(**FAST), out)
        assert tree_bytes(out / "rolling") == before
        assert sorted(p.name for p in out.iterdir()) == self.REPORT


def entries(out):
    """Every path under `out`, directories and hidden names included."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))


def hidden(out):
    return [p.name for p in out.iterdir() if p.name.startswith(".")]


def fail(*args):
    raise OSError("disk full")


class TestPublish:
    """A run's files land in --out only when it succeeds, each replacing
    its namesake whole."""

    @pytest.fixture
    def used(self, tmp_path):
        out = tmp_path / "out"
        (out / "d").mkdir(parents=True)
        (out / "d" / "old.txt").write_text("old")
        (out / "f").mkdir()
        (out / "a.txt").write_text("old")
        (out / "keep.txt").write_text("keep")
        return out

    def test_entries_replace_their_namesakes(self, used):
        with publish(used) as into:
            (into / "a.txt").write_text("new")
            (into / "d").mkdir()
            (into / "d" / "new.txt").write_text("new")
            (into / "f").write_text("now a file")
            (into / "b.txt").write_text("new")
            assert (used / "a.txt").read_text() == "old"  # not yet published
            assert not (used / "b.txt").exists()
        assert tree_bytes(used) == {"a.txt": b"new", "b.txt": b"new",
                                    "d/new.txt": b"new", "f": b"now a file",
                                    "keep.txt": b"keep"}
        assert not hidden(used)

    def test_raising_block_leaves_out_as_it_was(self, used):
        before, listing = tree_bytes(used), entries(used)
        with pytest.raises(OSError, match="disk full"):
            with publish(used) as into:
                (into / "a.txt").write_text("new")
                (into / "d").mkdir()
                fail()
        assert tree_bytes(used) == before and entries(used) == listing

    @pytest.mark.parametrize("command, module, last_writer", [
        ("align", cli, "write_mean_csv"),
        ("report", pipeline, "write_stats_json"),
    ])
    def test_failed_rerun_keeps_the_previous_tree(self, cohort_dir, tmp_path,
                                                  monkeypatch, capsys,
                                                  command, module,
                                                  last_writer):
        out = tmp_path / "out"
        args = ["--out", str(out), "--grid-n", "61", "--mean-max-iter", "10"]
        assert main([command, "--manifest", str(cohort_dir)] + args) == 0
        before, listing = tree_bytes(out), entries(out)
        assert not hidden(out)
        other = write_cohort(tmp_path / "other", n_healthy=3, n_patients=3,
                             seed=6, rate_hz=50.0, duration_s=2.0)
        with monkeypatch.context() as patch:
            patch.setattr(module, last_writer, fail)
            assert main([command, "--manifest", str(other)] + args) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert tree_bytes(out) == before and entries(out) == listing
        # unpatched, the other cohort's rerun replaces the tree
        assert main([command, "--manifest", str(other)] + args) == 0
        assert tree_bytes(out) != before
        assert not hidden(out)

    def test_failed_run_pipeline_keeps_the_previous_tree(
            self, cohort_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_pipeline(cohort_dir, PipelineConfig(**FAST), out)
        before, listing = tree_bytes(out), entries(out)
        other = write_cohort(tmp_path / "other", n_healthy=3, n_patients=3,
                             seed=6, rate_hz=50.0, duration_s=2.0)
        monkeypatch.setattr(pipeline, "write_stats_json", fail)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(other, PipelineConfig(**FAST), out)
        assert tree_bytes(out) == before and entries(out) == listing

    def test_out_naming_a_file_refused_before_ingest(self, cohort_dir,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        def ingest(*args, **kwargs):
            pytest.fail("ingest called")

        monkeypatch.setattr(pipeline, "ingest", ingest)
        out = tmp_path / "out"
        out.write_text("not a directory")
        rc = main(["report", "--manifest", str(cohort_dir), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "not a directory"


# holds `publish(argv[1])` open until a line arrives on stdin
HOLD_OUT = """
import sys
from pathlib import Path
from motionshape.outputs import publish
with publish(Path(sys.argv[1])) as into:
    (into / "held.txt").write_text("held")
    print("held", flush=True)
    sys.stdin.readline()
"""


# starts a pool's workers inside `publish(argv[1])`, prints their pids and
# kills its own process, leaving its workers orphaned
KILLED_RUN = """
import multiprocessing, os, signal, sys
from pathlib import Path
from motionshape.core import fork_map, worker_pool
from motionshape.outputs import publish
with publish(Path(sys.argv[1])), worker_pool():
    list(fork_map(abs, [1, -2], "demo"))
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


def python(code, *args, **kwargs):
    """A fresh interpreter running `code` with this motionshape importable."""
    src = str(Path(motionshape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": path}, **kwargs)


def exited(pid):
    """Whether process `pid` has exited. An orphan's zombie counts: the
    process that reaps orphans may not reap it at once, or at all."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return True
    return re.search(r"^State:\s+Z", status, re.M) is not None


def open_paths(_):
    """What the calling process's open descriptors name."""
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        with suppress(OSError):  # the listing's own descriptor, now closed
            paths.add(os.readlink(f"/proc/self/fd/{fd}"))
    return paths


linux = pytest.mark.skipif(not sys.platform.startswith("linux"),
                           reason="needs Linux's /proc")


def lock_is_free(out):
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


@pytest.mark.skipif(fcntl is None, reason="needs fcntl")
class TestOneRunPerOut:
    """A run holds its --out locked; a second run into it fails at once,
    and staging left by a killed run is removed."""

    ARGS = ["--grid-n", "61", "--mean-max-iter", "10"]

    def argv(self, command, manifest, out):
        return [command, "--manifest", str(manifest), "--out", str(out),
                *self.ARGS]

    def test_second_process_is_refused(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "out"
        holder = python(HOLD_OUT, out, stdin=subprocess.PIPE)
        try:
            assert holder.stdout.readline() == "held\n"
            listing = entries(out)
            assert main(self.argv("distances", cohort_dir, out)) == 2
            assert capsys.readouterr().err == \
                f"error: {out}: --out is in use by another run\n"
            assert entries(out) == listing  # the holder's staging untouched
        finally:
            holder.communicate("\n", timeout=60)
        assert holder.returncode == 0
        assert main(self.argv("distances", cohort_dir, out)) == 0
        assert sorted(entries(out)) == ["distances.csv", "held.txt"]

    def test_lock_is_free_once_main_returns(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        for _ in range(2):  # two runs in a row in one process
            assert main(self.argv("report", cohort_dir, out)) == 0
            assert lock_is_free(out)
        assert main(self.argv("report", tmp_path / "missing.csv", out)) == 2
        assert lock_is_free(out)
        assert main(self.argv("report", cohort_dir, out)) == 0
        assert lock_is_free(out)
        assert not hidden(out)

    def test_dead_worker_leaves_the_lock_free(self, cohort_dir, tmp_path,
                                              monkeypatch):
        parent, dp_path = os.getpid(), registration._dp_path

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return dp_path(*args)

        two_cpus()
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(registration, "_dp_path", die_in_worker)
            assert main(self.argv("mean", cohort_dir, out)) == 2
        assert lock_is_free(out)
        assert main(self.argv("mean", cohort_dir, out)) == 0

    @linux
    def test_workers_of_a_killed_run_hold_no_lock(self, cohort_dir,
                                                  tmp_path):
        two_cpus()
        out = tmp_path / "out"
        run = python(KILLED_RUN, out)
        with run.stdout:  # orphans would keep the pipe open: read no further
            workers = [int(pid) for pid in run.stdout.readline().split()]
        try:
            assert run.wait(timeout=60) == -signal.SIGKILL
            assert len(workers) >= 2
            assert lock_is_free(out)
            deadline = time.monotonic() + 10
            while not all(map(exited, workers)) and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert all(map(exited, workers))
            assert [p.name for p in out.iterdir()][0].startswith(".staging-")
            assert main(self.argv("distances", cohort_dir, out)) == 0
            assert not hidden(out)
        finally:
            for pid in workers:  # any orphan left by a failed assertion
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @linux
    def test_workers_hold_no_descriptor_of_out(self, tmp_path):
        two_cpus()
        out = tmp_path / "out"
        with publish(out), worker_pool():
            assert str(out.resolve()) in open_paths(0)  # the lock's
            got = fork_map(open_paths, [1, 2], "demo")
        assert len(got) == 2
        assert all(str(out.resolve()) not in paths for paths in got)

    def test_leftover_staging_is_removed(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        (out / ".staging-dead" / "new").mkdir(parents=True)
        (out / ".staging-dead" / "new" / "stats.json").write_text("{}")
        (out / ".keep").write_text("keep")
        assert main(self.argv("distances", cohort_dir, out)) == 0
        assert hidden(out) == [".keep"]

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_staging_name_that_is_no_directory_is_kept(self, cohort_dir,
                                                       tmp_path, kind):
        out = tmp_path / "out"
        out.mkdir()
        if kind == "file":
            (out / ".staging-note").write_text("note")
        else:
            (tmp_path / "elsewhere").mkdir()
            (tmp_path / "elsewhere" / "kept.txt").write_text("kept")
            (out / ".staging-note").symlink_to(tmp_path / "elsewhere")
        assert main(self.argv("distances", cohort_dir, out)) == 0
        assert hidden(out) == [".staging-note"]
        if kind == "symlink":
            assert (tmp_path / "elsewhere" / "kept.txt").read_text() == "kept"

    def test_without_fcntl_no_lock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(outputs, "fcntl", None)
        out = tmp_path / "out"
        (out / ".staging-dead").mkdir(parents=True)
        with publish(out) as into:
            assert lock_is_free(out)
            (into / "a.txt").write_text("a")
        assert sorted(entries(out)) == [".staging-dead", "a.txt"]


class TestStatsOnDegenerateInput:
    """A statistic that cannot be computed is recorded as skipped, with its
    reason, and the run goes on."""

    @pytest.fixture
    def cohort(self, tmp_path):
        return write_cohort(tmp_path / "cohort", n_healthy=3, n_patients=3,
                            seed=1)

    @staticmethod
    def stats(manifest, out):
        assert main(["stats", "--manifest", str(manifest), "--grid-n", "31",
                     "--out", str(out)]) == 0
        return json.loads((out / "stats.json").read_text())

    def test_zero_variance_groups_skip_t_tests(self, cohort, tmp_path):
        d = cohort.parent
        for i in (1, 2):
            (d / f"healthy_0{i}.csv").write_bytes(
                (d / "healthy_00.csv").read_bytes())
            (d / f"patient_0{i}.csv").write_bytes(
                (d / "patient_00.csv").read_bytes())
        reason = "zero variance in both samples, unequal means"
        assert self.stats(cohort, tmp_path / "out")["t_tests"] == {
            metric: {"skipped": reason}
            for metric in ("amplitude", "phase", "cosine")}

    @pytest.mark.parametrize("scale, sxx", [(1e-320, "0"), (1e300, "inf")])
    def test_dynamometry_out_of_float_range_skips_its_fits(
            self, cohort, tmp_path, scale, sxx):
        with cohort.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for k, row in enumerate(rows, 1):
            row["dynamometry"] = repr(k * scale)
        m = cohort.parent / "hostile.csv"
        with m.open("w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        regressions = self.stats(m, tmp_path / "out")["regressions"]
        for metric in ("amplitude", "phase"):
            assert regressions[f"{metric}_vs_dynamometry"] == {
                "n": 6, "skipped": f"x spread out of float range (Sxx {sxx})"}


class TestCli:
    def test_report_subcommand(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["report", "--manifest", str(cohort_dir), "--out", str(out),
                   "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 0
        assert (out / "stats.json").is_file()
        assert "report complete" in capsys.readouterr().out

    @pytest.mark.parametrize("pid, error", [
        ("P\0X", r"participant_id 'P\\x00X' contains a NUL character"),
        ("x" * 252, "trial label 'x.* makes a 256-byte file name"),
        ("h00", "duplicate trial label 'h00'"),
    ], ids=["nul", "long", "case"])
    def test_unwritable_label_refused_before_analysis(self, cohort_dir,
                                                      tmp_path, capsys,
                                                      monkeypatch, pid, error):
        # refused before any trial is read, not in write_report
        def read_trial(path, channel):
            pytest.fail(f"read {path}")

        monkeypatch.setattr(pipeline, "read_trial", read_trial)
        m = extend_manifest(cohort_dir, "bad_id.csv",
                            [trial_row(pid, "patient_00.csv")])
        rc = main(["report", "--manifest", str(m), "--out",
                   str(tmp_path / "r"), "--skip-bad"])
        assert rc == 2
        assert re.match(rf"error: {re.escape(str(m))}:7: {error}",
                        capsys.readouterr().err)

    def test_stage_subcommands(self, cohort_dir, tmp_path):
        args = ["--manifest", str(cohort_dir), "--grid-n", "61"]
        assert main(["report"] + args + ["--out", str(tmp_path / "r")]) == 0
        assert main(["ingest-check"] + args) == 0
        assert main(["mean"] + args + ["--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "mean_healthy.csv").is_file()
        assert main(["align"] + args + ["--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "warps.csv").is_file()
        assert (tmp_path / "a" / "aligned_curves.csv").is_file()
        assert main(["distances"] + args + ["--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "distances.csv").is_file()
        assert main(["stats"] + args + ["--out", str(tmp_path / "s")]) == 0
        stats = json.loads((tmp_path / "s" / "stats.json").read_text())
        assert "t_tests" in stats and "regressions" in stats

        # each stage writes what the full report writes for it
        report = tmp_path / "r"
        for stage, name in (("d", "distances.csv"), ("m", "mean_healthy.csv"),
                            ("a", "mean_healthy.csv")):
            assert (tmp_path / stage / name).read_bytes() == \
                (report / name).read_bytes(), (stage, name)
        full = json.loads((report / "stats.json").read_text())
        for only_in_report in ("matrix_summary", "rolling_window"):
            del stats[only_in_report], full[only_in_report]
        assert stats == full

    def test_error_exit_code(self, cohort_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nope = 1\n")
        rc = main(["report", "--manifest", str(cohort_dir),
                   "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_dp_allocation_failure_is_an_error(self, cohort_dir, tmp_path,
                                               capsys, monkeypatch):
        # what numpy raises for the (n, E, n) arrival tensor at grid_n 10001
        text = ("Unable to allocate 28.0 GiB for an array with shape "
                "(10001, 35, 10001) and data type float64")

        def out_of_memory(*args):
            raise MemoryError(text)

        monkeypatch.setattr(registration, "_arrival_costs", out_of_memory)
        rc = main(["mean", "--manifest", str(cohort_dir),
                   "--out", str(tmp_path / "x"), "--grid-n", "61"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_path_escape_refused(self, cohort_dir, tmp_path):
        m = extend_manifest(cohort_dir, "escape.csv",
                            [trial_row("../../escaped", "patient_00.csv")])
        out = tmp_path / "run" / "out"
        rc = main(["report", "--manifest", str(m), "--out", str(out),
                   "--skip-bad", "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 2
        assert not list(tmp_path.rglob("escaped*"))

    def test_flat_trial_skipped(self, cohort_dir, tmp_path):
        write_trial(cohort_dir.parent / "flat.csv",
                    [(i / 50, 0.0) for i in range(100)])
        m = extend_manifest(cohort_dir, "with_flat.csv",
                            [trial_row("PF", "flat.csv")])
        out = tmp_path / "r"
        rc = main(["report", "--manifest", str(m), "--out", str(out),
                   "--skip-bad", "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert [s["label"] for s in stats["skipped"]] == ["PF"]
        assert "flat signal" in stats["skipped"][0]["reason"]
        assert len(stats["distances"]) == 5

    def test_constant_trial_skipped(self, cohort_dir, tmp_path):
        write_trial(cohort_dir.parent / "constant.csv",
                    [(i / 50, 5.0) for i in range(100)])
        m = extend_manifest(cohort_dir, "with_constant.csv",
                            [trial_row("PC", "constant.csv")])
        out = tmp_path / "r"
        rc = main(["report", "--manifest", str(m), "--out", str(out),
                   "--skip-bad", "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert [s["label"] for s in stats["skipped"]] == ["PC"]
        assert "constant signal" in stats["skipped"][0]["reason"]
        assert len(stats["distances"]) == 5

    def test_oversized_field_trial_skipped(self, cohort_dir, tmp_path):
        rows = [f"{i / 50},{math.sin(i / 10)}" for i in range(100)]
        rows[10] = "0.2," + "x" * 200_000  # past csv's field size limit
        (cohort_dir.parent / "huge.csv").write_text(
            "time_s,gyro\n" + "\n".join(rows) + "\n")
        m = extend_manifest(cohort_dir, "with_huge.csv",
                            [trial_row("PH", "huge.csv")])
        out = tmp_path / "r"
        rc = main(["distances", "--manifest", str(m), "--out", str(out),
                   "--skip-bad", "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 0
        with (out / "distances.csv").open() as fh:
            scored = [row["participant"] for row in csv.DictReader(fh)]
        assert len(scored) == 5 and "PH" not in scored

    def test_stages_stop_before_matrices(self, cohort_dir, tmp_path,
                                         monkeypatch):
        def no_matrices(*args, **kwargs):
            raise RuntimeError("pairwise_matrix called")

        monkeypatch.setattr(pipeline, "pairwise_matrix", no_matrices)
        args = ["--manifest", str(cohort_dir), "--grid-n", "61"]
        for command in ("mean", "align", "distances", "stats"):
            out = tmp_path / command
            assert main([command] + args + ["--out", str(out)]) == 0, command
        with pytest.raises(RuntimeError, match="pairwise_matrix called"):
            main(["report"] + args + ["--out", str(tmp_path / "r")])

    def test_ingest_check_every_trial_bad(self, tmp_path, capsys):
        m = all_bad_manifest(tmp_path)
        assert main(["ingest-check", "--manifest", str(m), "--skip-bad"]) == 0
        assert capsys.readouterr().out.endswith("0 trial(s) ok, 3 skipped\n")

    def test_mean_every_trial_skipped(self, tmp_path, capsys):
        m = all_bad_manifest(tmp_path)
        rc = main(["mean", "--manifest", str(m), "--skip-bad",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: every trial was skipped; nothing to analyze\n"

    def test_config_file_used(self, cohort_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid_n = 61\nmean_max_iter = 10\n")
        out = tmp_path / "r"
        rc = main(["distances", "--manifest", str(cohort_dir),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "distances.csv").is_file()

    def test_undecodable_config_names_file_and_line(self, cohort_dir,
                                                    tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"grid_n = 61\nmean_max_iter = \xff10\n")
        rc = main(["distances", "--manifest", str(cohort_dir),
                   "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:2: 'utf-8' codec can't decode byte 0xff")

    @staticmethod
    def modules_imported(*packages):
        """The modules of `packages` that `import motionshape,
        motionshape.cli` loads in a fresh interpreter."""
        src = str(Path(motionshape.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, motionshape, motionshape.cli; print(sorted(m for m "
                f"in sys.modules if m.partition('.')[0] in {packages!r}))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}).stdout
        return out

    def test_import_loads_no_scipy(self):
        # scipy is a test-only oracle; importing it costs ~1.2 s per run
        assert self.modules_imported("scipy") == "[]\n"

    def test_import_loads_no_process_pool(self):
        # only an ingest large enough to use worker processes imports them
        assert self.modules_imported("multiprocessing", "concurrent") == "[]\n"
