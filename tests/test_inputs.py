"""The input formats: `PipelineConfig` from its file and flags, the cohort
manifest, and the trial reader against the original per-row reader."""

import ast
import csv
import inspect
import math
import os
import re
import subprocess
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from motionshape import inputs, pipeline, registration
from motionshape.cli import main
from motionshape.inputs import ManifestError, PipelineConfig, load_manifest
from motionshape.pipeline import CohortReport, ingest
from motionshape.preprocess import RawRecording, butterworth_lowpass
from motionshape.registration import phase_amplitude_separation

from conftest import (extend_manifest, python, trial_row, tree_bytes,
                      write_manifest)


# a valid, non-default value for every PipelineConfig field
NON_DEFAULT = dict(grid_n=61, filter_order=2, cutoff_ratio=0.2, channel="acc",
                   dp_max_slope=3, mean_max_iter=5, mean_tol=0.001,
                   rolling_window_frac=0.25)


def default_of(function, parameter):
    return inspect.signature(function).parameters[parameter].default


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

    @pytest.mark.parametrize("name, default", [
        ("filter_order", default_of(butterworth_lowpass, "order")),
        ("cutoff_ratio", default_of(butterworth_lowpass, "cutoff_ratio")),
        ("dp_max_slope", registration.DEFAULT_MAX_SLOPE),
        ("mean_max_iter", default_of(phase_amplitude_separation, "max_iter")),
        ("mean_tol", default_of(phase_amplitude_separation, "tol")),
    ])
    def test_default_is_that_of_the_function_configured(self, name, default):
        assert getattr(PipelineConfig(), name) == default

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

    def test_line_without_equals_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid_n = 61\nwavelet db4\n")
        assert main(["ingest-check", "--manifest", "unused.csv",
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:2: expected 'key = value', got 'wavelet db4'\n"

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

    @pytest.mark.parametrize("grid_n", [
        2**60, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2])
    def test_grid_n_numpy_cannot_hold_is_refused(self, cohort_dir,
                                                 monkeypatch, capsys, grid_n):
        # n float64 samples take 8n bytes, and numpy holds at most
        # np.iinfo(np.intp).max; the config is refused before any trial
        read = []
        monkeypatch.setattr(pipeline, "ingest",
                            lambda *args, **kwargs: read.append(args))
        for flags in ([], ["--skip-bad"]):
            assert main(["ingest-check", "--manifest", str(cohort_dir),
                         "--grid-n", str(grid_n), *flags]) == 2
            out, err = capsys.readouterr()
            assert out == "" and read == []
            assert err.startswith(f"error: config field grid_n={grid_n} ")
            assert err.count("\n") == 1
        limit = np.iinfo(np.intp).max // 8
        assert PipelineConfig(grid_n=limit).grid_n == limit
        with pytest.raises(ManifestError, match=f"grid_n={limit + 1} "):
            PipelineConfig(grid_n=limit + 1)

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
            return CohortReport(items=[], skipped=[])

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

    @pytest.mark.parametrize("row, error", [
        (["P2", "DMD", "", "", ""],
         "participant_id and trial_path are required"),
        (["P2", "DMD", "b.csv", "", "-1"],
         "dynamometry must be a nonnegative real"),
        (["P2", "DMD", "b.csv", "", "inf"],
         "dynamometry must be a nonnegative real"),
    ], ids=["empty trial_path", "negative dynamometry", "inf dynamometry"])
    def test_bad_row_exits_2_naming_its_line(self, tmp_path, capsys, row,
                                              error):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""], row])
        assert main(["ingest-check", "--manifest", str(m)]) == 2
        assert capsys.readouterr().err == f"error: {m}:3: {error}\n"

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


# runs `cli.main` on its arguments and exits with its return code
RUN_MAIN = """
import sys
from motionshape.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestInputPaths:
    """Every input file, the manifest, the config and each trial, is opened
    one way: a path that is missing or is no regular file exits 2 naming
    it, and a FIFO is refused without being opened."""

    @staticmethod
    def argv(role, manifest, bad):
        if role == "manifest":
            return ["ingest-check", "--manifest", str(bad)]
        if role == "config":
            return ["ingest-check", "--manifest", str(manifest),
                    "--config", str(bad)]
        manifest = extend_manifest(manifest, "with_bad.csv",
                                   [trial_row("PB", str(bad))])
        return ["ingest-check", "--manifest", str(manifest)]

    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"),
        ("directory", "not a regular file"),
        pytest.param("fifo", "not a regular file", marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="needs os.mkfifo")),
    ])
    @pytest.mark.parametrize("role", ["manifest", "config", "trial"])
    def test_bad_path_exits_2_naming_it(self, cohort_dir, tmp_path, capsys,
                                        role, kind, reason):
        bad = tmp_path / "bad.csv"
        if kind == "directory":
            bad.mkdir()
        elif kind == "fifo":
            os.mkfifo(bad)
        argv = self.argv(role, cohort_dir, bad)
        if kind == "fifo":  # opening it would wait for a writer forever
            with python(RUN_MAIN, *argv, stderr=subprocess.PIPE) as run:
                try:
                    _, err = run.communicate(timeout=60)
                finally:
                    run.kill()
            rc = run.returncode
        else:
            rc, err = main(argv), capsys.readouterr().err
        named = bad.resolve() if role == "trial" else bad
        assert (rc, err) == (2, f"error: {named}: {reason}\n")

    def test_directory_trial_skipped_with_its_reason(self, cohort_dir,
                                                     tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.mkdir()
        argv = self.argv("trial", cohort_dir, bad)
        assert main([*argv, "--skip-bad"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"skipped PB: {bad.resolve()}: not a regular file" in out
        assert out[-1] == "5 trial(s) ok, 1 skipped"

    @pytest.mark.parametrize("role", ["manifest", "config", "trial",
                                      "trial read per row"])
    def test_leading_byte_order_mark_is_dropped(self, cohort_dir, tmp_path,
                                                capsys, role):
        # as Excel's "CSV UTF-8" writes it
        config = tmp_path / "run.cfg"
        config.write_text("grid_n = 61\nmean_max_iter = 10\n")
        trial = cohort_dir.parent / "healthy_00.csv"
        if role == "trial read per row":  # a quote keeps numpy's reader out
            body = trial.read_text().partition("\n")[2]
            trial.write_text('"time_s",gyro\n' + body)
        path = {"manifest": cohort_dir, "config": config}.get(role, trial)
        argv = ["--manifest", str(cohort_dir), "--config", str(config)]
        runs = []
        for name in ("plain", "bom"):
            if name == "bom":
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert main(["ingest-check", *argv]) == 0
            listing = capsys.readouterr().out
            assert main(["report", *argv, "--out", str(tmp_path / name)]) == 0
            capsys.readouterr()
            runs.append((listing, tree_bytes(tmp_path / name)))
        assert runs[1] == runs[0]
        assert runs[0][0].endswith("5 trial(s) ok, 0 skipped\n")
