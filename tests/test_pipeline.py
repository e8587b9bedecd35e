import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import motionshape
from motionshape.core import DegenerateInputError, InsufficientDataError
from motionshape import pipeline
from motionshape.cli import main
from motionshape.pipeline import (
    IngestResult,
    ManifestError,
    PipelineConfig,
    ingest,
    load_manifest,
    run_pipeline,
)
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

    def test_overrides_win(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("grid_n = 61\n")
        cfg = PipelineConfig.from_file(f, {"grid_n": 81})
        assert cfg.grid_n == 81

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

    def test_brooke_out_of_range(self, tmp_path):
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "DMD", "x.csv", "9", ""]])
        with pytest.raises(ManifestError, match="brooke"):
            load_manifest(m)

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


class TestCli:
    def test_report_subcommand(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["report", "--manifest", str(cohort_dir), "--out", str(out),
                   "--grid-n", "61", "--mean-max-iter", "10"])
        assert rc == 0
        assert (out / "stats.json").is_file()
        assert "report complete" in capsys.readouterr().out

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

    def test_import_loads_no_scipy(self):
        # scipy is a test-only oracle; importing it costs ~1.2 s per run
        src = str(Path(motionshape.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, motionshape, motionshape.cli; print(sorted(m for m "
                "in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}).stdout
        assert out == "[]\n"
