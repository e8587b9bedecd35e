import csv
import errno
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import motionshape
from motionshape.core import InsufficientDataError, l2_norm, worker_pool
from motionshape import inputs, lattice, pipeline
from motionshape.cli import main
from motionshape.analytics import pairwise_matrix
from motionshape.inputs import ManifestError, PipelineConfig
from motionshape.pipeline import CohortReport, ingest, stages, write_report
from motionshape.registration import MIN_SIGNAL_NORM, align_pairwise
from motionshape.synthetic import write_cohort

from conftest import (FAST, extend_manifest, python, trial_row, tree_bytes,
                      two_cpus, write_manifest)


def write_trial(path, rows, header=("time_s", "gyro")):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def all_bad_manifest(tmp_path):
    """A manifest of three trials whose files do not exist."""
    m = tmp_path / "m.csv"
    write_manifest(m, [["P1", "healthy", "ghost1.csv", "", ""],
                       ["P2", "healthy", "ghost2.csv", "", ""],
                       ["P3", "DMD", "ghost3.csv", "", ""]])
    return m


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


@contextmanager
def in_process(monkeypatch):
    """One usable CPU while the block runs: every `fork_map` stays in this
    process."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


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
        parent, dp_path = os.getpid(), lattice.solve

        def die_in_worker(*args):
            if os.getpid() != parent:  # forked workers inherit the patch
                os._exit(1)
            return dp_path(*args)

        monkeypatch.setattr(lattice, "solve", die_in_worker)
        two_cpus()
        argv = ["report", "--manifest", str(cohort_dir), "--grid-n", "61",
                "--out", str(cohort_dir.parent / "out")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: alignment worker died: ")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []


# a pooled `report` run that prints, as its last line, the OS thread count
# of this process right after each fork, read as Python 3.12 reads it
# before it warns that forking a threaded process may deadlock the child
FORK_THREADS = """
import json, os, sys
threads = []
def count():
    with open("/proc/self/stat") as fh:
        threads.append(int(fh.read().rsplit(")", 1)[1].split()[17]))
os.register_at_fork(after_in_parent=count)
from motionshape.cli import main
rc = main(["report", "--manifest", sys.argv[1], "--out", sys.argv[2],
           "--grid-n", "31"])
print(json.dumps([rc, threads]))
"""


class TestRunPool:
    """One fork pool per run, and no worker left once the run returns."""

    def test_one_pool_per_report_run(self, cohort_dir, tmp_path, pools):
        two_cpus()
        argv = ["report", "--manifest", str(cohort_dir), "--grid-n", "61",
                "--mean-max-iter", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(pools) == 1 and len(pools[0].maps) >= 4
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_one_thread_at_each_fork(self, cohort_dir, tmp_path):
        # field 20 of /proc/self/stat is the thread count
        two_cpus()
        with python(FORK_THREADS, cohort_dir, tmp_path / "out") as run:
            try:
                out, _ = run.communicate(timeout=120)
            finally:
                run.kill()
        rc, threads = json.loads(out.splitlines()[-1])
        assert rc == 0
        assert threads and set(threads) == {1}

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


def report_argv(manifest, out, *flags):
    """`motionshape report` arguments at the settings of FAST."""
    return ["report", "--manifest", str(manifest), "--out", str(out),
            "--grid-n", "61", "--mean-max-iter", "10", *flags]


class TestRunPipeline:
    def test_single_healthy_rejected(self, tmp_path, capsys):
        t = np.linspace(0, 2, 40)
        write_trial(tmp_path / "a.csv", zip(t, np.sin(t)))
        m = tmp_path / "m.csv"
        write_manifest(m, [["P1", "healthy", "a.csv", "", ""]])
        assert main(report_argv(m, tmp_path / "out")) == 2
        assert capsys.readouterr().err == ("error: cannot build reference "
                                           "mean: need >= 2 healthy trials, "
                                           "have 1\n")

    def test_outputs_and_roundtrip(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        assert main(report_argv(cohort_dir, out)) == 0
        _, run = list(stages(cohort_dir, PipelineConfig(**FAST)))[-1]
        report = run
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
        assert main(report_argv(m, out, "--skip-bad")) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["skipped_trials"] == 1
        assert stats["skipped"][0]["label"] == "PX"
        assert len(stats["distances"]) == 5

    def test_report_rebuilt_by_keyword(self, cohort_dir, tmp_path):
        # the benchmark's traced run builds its report this way, without
        # `items` or `alignment`; it must write the same tree
        _, run = list(stages(cohort_dir, PipelineConfig(**FAST)))[-1]
        rebuilt = CohortReport(
            scores=run.scores, t_tests=run.t_tests,
            regressions=run.regressions, matrix_pre=run.matrix_pre,
            matrix_post=run.matrix_post, matrix_summary=run.matrix_summary,
            mean=run.mean, separation=run.separation, rolling=run.rolling,
            rolling_window=run.rolling_window, skipped=run.skipped)
        assert rebuilt.summary_dict() == run.summary_dict()
        for name, report in (("staged", run), ("rebuilt", rebuilt)):
            (tmp_path / name).mkdir()
            write_report(tmp_path / name, report)
        assert tree_bytes(tmp_path / "rebuilt") == \
            tree_bytes(tmp_path / "staged")


def rolling_names(out):
    return sorted(p.name for p in (out / "rolling").iterdir())


def read_stats(out):
    return json.loads((out / "stats.json").read_text())


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
        assert main(report_argv(six, out)) == 0
        assert "P02.csv" in rolling_names(out)
        assert main(report_argv(cohort_dir, out)) == 0
        assert rolling_names(out) == \
            sorted(f"{label}.csv" for label in read_stats(out)["distances"])
        assert sorted(p.name for p in out.iterdir()) == self.REPORT

    def test_skipped_trial(self, six, tmp_path):
        out = tmp_path / "out"
        assert main(report_argv(six, out)) == 0
        write_trial(six.parent / "p02.csv", [(i / 50, 0.0) for i in range(100)])
        assert main(report_argv(six, out, "--skip-bad")) == 0
        stats = read_stats(out)
        assert [s["label"] for s in stats["skipped"]] == ["P02"]
        assert "P02.csv" not in rolling_names(out)
        assert len(rolling_names(out)) == len(stats["distances"]) == 5
        assert sorted(p.name for p in out.iterdir()) == self.REPORT

    def test_failed_writer_keeps_the_old_rolling(self, cohort_dir, six,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        out = tmp_path / "out"
        assert main(report_argv(six, out)) == 0
        before = tree_bytes(out / "rolling")
        calls, write = [], pipeline.write_rolling_csv

        def fail_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return write(*args)

        monkeypatch.setattr(pipeline, "write_rolling_csv", fail_second)
        assert main(report_argv(cohort_dir, out)) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert tree_bytes(out / "rolling") == before
        assert sorted(p.name for p in out.iterdir()) == self.REPORT


class TestLowNormTrials:
    """Trials near the flat-signal floor, and sign-flipped ones, through
    `cli.main`. A warp of slope at most S shrinks an L2 norm by up to
    sqrt(S), so a trial that ingest lets through must keep its aligned
    copies above MIN_SIGNAL_NORM, or one `matrix_post` pair aborts the
    whole `report --skip-bad` run."""

    @pytest.fixture
    def cohort(self, tmp_path):
        return write_cohort(tmp_path / "cohort", n_healthy=4, n_patients=3,
                            seed=0, rate_hz=50.0, duration_s=2.0)

    @staticmethod
    def scale(manifest, label, factor=None, norm=None):
        """Multiply trial `label`'s samples by `factor`, or by what makes
        its smoothed L2 norm at FAST's grid `norm`; returns its path."""
        run = ingest(manifest, PipelineConfig(**FAST))
        item = next(it for it in run.items if it.label == label)
        if norm is not None:
            factor = norm / l2_norm(item.trajectory.values,
                                    item.trajectory.grid)
        data = np.loadtxt(item.entry.trial_path, delimiter=",", skiprows=1)
        write_trial(item.entry.trial_path, zip(data[:, 0], factor * data[:, 1]))
        return item.entry.trial_path

    @pytest.mark.parametrize("label", ["H00", "P01"])
    def test_just_above_min_signal_norm_is_skipped(self, cohort, tmp_path,
                                                    label):
        self.scale(cohort, label, norm=1.05 * MIN_SIGNAL_NORM)
        out = tmp_path / "out"
        assert main(report_argv(cohort, out, "--skip-bad")) == 0
        stats = read_stats(out)
        assert [s["label"] for s in stats["skipped"]] == [label]
        assert "flat signal" in stats["skipped"][0]["reason"]
        assert len(stats["distances"]) == 6

    def test_just_above_min_signal_norm_names_its_file(self, cohort,
                                                       tmp_path, capsys):
        path = self.scale(cohort, "H00", norm=1.05 * MIN_SIGNAL_NORM)
        assert main(report_argv(cohort, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        slope = PipelineConfig(**FAST).dp_max_slope
        floor = math.sqrt(slope) * MIN_SIGNAL_NORM
        assert err.startswith(f"error: {path}: flat signal (L2 norm 1.05e-12 "
                              f"< {floor:g})")

    @pytest.mark.parametrize("label, factor, norm", [
        ("H00", None, 3 * MIN_SIGNAL_NORM), ("P01", None, 3 * MIN_SIGNAL_NORM),
        ("H00", -1.0, None), ("P01", -1.0, None)],
        ids=["healthy at 3x", "patient at 3x", "healthy flipped",
             "patient flipped"])
    def test_trial_scores(self, cohort, tmp_path, label, factor, norm):
        self.scale(cohort, label, factor, norm)
        out = tmp_path / "out"
        assert main(report_argv(cohort, out, "--skip-bad")) == 0
        stats = read_stats(out)
        assert stats["skipped"] == []
        assert label in stats["distances"]


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

    def test_one_patient_skips_t_tests(self, tmp_path):
        m = write_cohort(tmp_path / "small", n_healthy=3, n_patients=1, seed=1)
        reason = "need >= 2 trials per group"
        assert self.stats(m, tmp_path / "out")["t_tests"] == {
            metric: {"skipped": reason}
            for metric in ("amplitude", "phase", "cosine")}

    def test_no_patients_leave_matrix_summary_empty(self, tmp_path):
        m = write_cohort(tmp_path / "healthy", n_healthy=3, n_patients=0,
                         seed=1)
        out = tmp_path / "out"
        assert main(report_argv(m, out)) == 0
        assert read_stats(out)["matrix_summary"] == {"pre": None,
                                                     "post": None}

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

        monkeypatch.setattr(lattice, "_arrival_costs", out_of_memory)
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
