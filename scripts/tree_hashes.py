#!/usr/bin/env python3
"""Hash every subcommand's output tree and stdout on two seeded cohorts.

    python scripts/tree_hashes.py

Writes the planted cohort (`write_cohort` seed 1234) and the null cohort
(seed 99, `null_effect=True`) into a temporary directory, runs all six CLI
subcommands on each at the default config, and prints one line per run:
the sha256 of its output tree and of its stdout. A tree's hash is the
sha256 of its sorted "<relative path> <file sha256>" lines. Run it in two
checkouts and diff the output to show a change keeps every output
byte-identical. The `motionshape` imported is the one in this checkout.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from motionshape.cli import main as cli_main  # noqa: E402
from motionshape.synthetic import write_cohort  # noqa: E402

COHORTS = {"planted": dict(seed=1234), "null": dict(seed=99, null_effect=True)}
COMMANDS = ("ingest-check", "mean", "align", "distances", "stats", "report")


def tree_hash(root: Path) -> str:
    lines = sorted(f"{p.relative_to(root).as_posix()} "
                   f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                   for p in root.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep `report`'s stdout comparable
        for cohort, kwargs in COHORTS.items():
            manifest = write_cohort(Path(cohort), **kwargs)
            print(f"{cohort:8s} {'cohort':12s} tree {tree_hash(Path(cohort))}")
            for command in COMMANDS:
                out = Path("out") / cohort / command
                argv = [command, "--manifest", str(manifest)]
                if command != "ingest-check":
                    argv += ["--out", str(out)]
                rc, stdout = run(argv)
                tree = tree_hash(out) if out.exists() else "-"
                print(f"{cohort:8s} {command:12s} tree {tree} "
                      f"stdout {stdout} rc {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
