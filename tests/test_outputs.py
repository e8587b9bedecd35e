import itertools
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

try:
    import fcntl
except ImportError:  # Windows: no flock
    fcntl = None

from motionshape import cli, lattice, outputs, pipeline
from motionshape.core import fork_map, worker_pool
from motionshape.cli import main
from motionshape.outputs import publish
from motionshape.synthetic import write_cohort

from conftest import python, tree_bytes, two_cpus


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

    def test_failed_rename_in_the_commit_keeps_the_previous_tree(
            self, cohort_dir, tmp_path, monkeypatch, capsys):
        # fail the 1st, 2nd, ... rename of a rerun until a rerun makes
        # fewer renames than that and succeeds
        out = tmp_path / "out"
        args = ["--out", str(out), "--grid-n", "61", "--mean-max-iter", "10"]
        assert main(["report", "--manifest", str(cohort_dir)] + args) == 0
        before, listing = tree_bytes(out), entries(out)
        other = write_cohort(tmp_path / "other", n_healthy=3, n_patients=3,
                             seed=6, rate_hz=50.0, duration_s=2.0)
        moves = {name: getattr(Path, name) for name in ("rename", "replace")}
        for failing in itertools.count(1):
            calls = 0

            def counted(move):
                def counted_move(path, target):
                    nonlocal calls
                    calls += 1
                    if calls == failing:
                        fail()
                    return move(path, target)
                return counted_move

            with monkeypatch.context() as patch:
                for name, move in moves.items():
                    patch.setattr(Path, name, counted(move))
                rc = main(["report", "--manifest", str(other)] + args)
            if rc == 0:
                break
            assert capsys.readouterr().err == "error: disk full\n"
            assert tree_bytes(out) == before and entries(out) == listing, \
                f"rename {failing} failed"
            assert not hidden(out)
        # each old entry moved aside, then each new one moved in
        assert failing - 1 == 2 * len(list(out.iterdir()))
        assert tree_bytes(out) != before
        assert not hidden(out)

    @pytest.mark.skipif(fcntl is None, reason="needs fcntl")
    def test_entry_moved_aside_by_a_killed_commit_is_put_back(
            self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--manifest", str(cohort_dir), "--out",
                     str(out), "--grid-n", "61", "--mean-max-iter", "10"]) == 0
        before, listing = tree_bytes(out), entries(out)
        (out / ".staging-x" / "old").mkdir(parents=True)
        (out / "rolling").rename(out / ".staging-x" / "old" / "rolling")
        (out / ".staging-x" / "old" / "stats.json").write_text("{}")
        with pytest.raises(OSError, match="disk full"):
            with publish(out):
                fail()
        # rolling/ is back; the stale stats.json, whose namesake exists, not
        assert tree_bytes(out) == before and entries(out) == listing

    def test_out_naming_a_file_refused_before_ingest(self, cohort_dir,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        def ingest(*args, **kwargs):
            pytest.fail("ingest called")

        monkeypatch.setattr(pipeline, "ingest", ingest)
        out = tmp_path / "out"
        out.write_text("not a directory")
        for target, reason in ((out, "File exists"),
                               (out / "sub", "Not a directory")):
            rc = main(["report", "--manifest", str(cohort_dir),
                       "--out", str(target)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {target}: {reason}\n"
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("below", ["a/b", "x" * 300],
                             ids=["nested", "name too long"])
    def test_failed_run_removes_the_out_it_created(self, tmp_path, capsys,
                                                   below):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "new" / below
        argv = ["report", "--manifest", str(missing), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {missing}: No such file or directory\n" if below == "a/b"
            else f"error: {out}: File name too long\n")
        assert not (tmp_path / "new").exists()
        # a directory that was there before the run stays
        (tmp_path / "new").mkdir()
        assert main(argv) == 2
        assert entries(tmp_path / "new") == []


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
        parent, dp_path = os.getpid(), lattice.solve

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return dp_path(*args)

        two_cpus()
        out = tmp_path / "out"
        out.mkdir()  # made before the run, so the failed run keeps it
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "solve", die_in_worker)
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
