"""The byte-identity gate: `scripts/tree_hashes.py --check` must print the
lines recorded in `scripts/tree_hashes.expected`."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tree_hashes.py"


def test_check_reproduces_the_recorded_lines():
    recorded = SCRIPT.with_name("tree_hashes.expected").read_text() \
        .splitlines()[0].removeprefix("# ")
    running = f"python {platform.python_version()} numpy {np.__version__}"
    if running != recorded:
        pytest.skip(f"recorded with {recorded}; running {running}")
    run = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
