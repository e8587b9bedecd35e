"""Output checks behind the benchmark's `correct` flag and error rate.

An invocation's output tree is every file it wrote under --out, or, for
`ingest-check`, which writes no files, its standard output. The checks are:

- every expected file is present, with one row per trial (m x m for the
  matrices) and the same trial labels everywhere;
- every number is finite;
- the matrices hold the `DistanceMatrix` invariants: zero diagonal,
  symmetric within 1e-9, no entry below -1e-12;
- for the reference seed, the tree's sha256 equals the one recorded from
  the seed commit and every number is within REL_TOL of the recorded one.

Repeated invocations within a run must give byte-identical trees; the
caller compares their sha256.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_SEED = 1234
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6   # outputs carry 9 significant digits
ABS_TOL = 1e-9


class CheckError(Exception):
    """An output failed a check; the message says which and why."""


def read_tree(command: str, out_dir: Path, stdout: bytes) -> dict[str, bytes]:
    if command == "ingest-check":
        return {"stdout.txt": stdout}
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def tree_sha256(tree: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(tree):
        h.update(f"{name}\n{len(tree[name])}\n".encode())
        h.update(tree[name])
    return h.hexdigest()


def _rows(tree: dict[str, bytes], name: str, header: list[str] | None):
    if name not in tree:
        raise CheckError(f"missing output file {name}")
    rows = list(csv.reader(io.StringIO(tree[name].decode())))
    if not rows:
        raise CheckError(f"{name}: empty")
    if header is not None and rows[0] != header:
        raise CheckError(f"{name}: header {rows[0]} != {header}")
    return rows[0], rows[1:]


def _finite(name: str, cells) -> list[float]:
    out = []
    for cell in cells:
        try:
            x = float(cell)
        except ValueError:
            raise CheckError(f"{name}: {cell!r} is not a number") from None
        if not math.isfinite(x):
            raise CheckError(f"{name}: non-finite value {cell!r}")
        out.append(x)
    return out


def _json_numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_numbers(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _json_numbers(item)


def _reject_constant(token: str):
    raise CheckError(f"stats.json: non-finite number {token}")


def _check_matrix(tree, name: str, labels: list[str]) -> list[float]:
    header, rows = _rows(tree, name, ["label"] + labels)
    if [r[0] for r in rows] != labels:
        raise CheckError(f"{name}: row labels differ from distances.csv")
    m = len(labels)
    v = [_finite(name, r[1:]) for r in rows]
    if any(len(r) != m for r in v):
        raise CheckError(f"{name}: not {m} x {m}")
    for i in range(m):
        if abs(v[i][i]) > 1e-9:
            raise CheckError(f"{name}: diagonal entry {i} is {v[i][i]}")
        for j in range(m):
            if abs(v[i][j] - v[j][i]) > 1e-9:
                raise CheckError(f"{name}: not symmetric at ({i}, {j})")
            if v[i][j] < -1e-12:
                raise CheckError(f"{name}: negative entry at ({i}, {j})")
    return [x for r in v for x in r]


def check_tree(command: str, trials: int, grid_n: int,
               tree: dict[str, bytes]) -> dict:
    """Check one output tree; returns its numbers, per file."""
    if command == "ingest-check":
        lines = tree["stdout.txt"].decode().splitlines()
        ok = [ln for ln in lines if ln.startswith("ok ")]
        if len(ok) != trials or any(ln.startswith("skipped ") for ln in lines):
            raise CheckError(f"ingest-check: {len(ok)} of {trials} trials ok")
        if not lines or lines[-1] != f"{trials} trial(s) ok, 0 skipped":
            raise CheckError(f"ingest-check: unexpected summary {lines[-1:]}")
        return {"trials_ok": [float(len(ok))]}

    header = ["participant", "cohort", "amplitude", "phase", "cosine"]
    _, rows = _rows(tree, "distances.csv", header)
    if len(rows) != trials:
        raise CheckError(f"distances.csv: {len(rows)} rows for {trials} trials")
    labels = [r[0] for r in rows]
    if len(set(labels)) != trials:
        raise CheckError("distances.csv: repeated participant labels")
    numbers = {"distances.csv": [x for r in rows
                                 for x in _finite("distances.csv", r[2:])]}
    expected = {"distances.csv"}
    if command == "report":
        expected |= {"matrix_pre.csv", "matrix_post.csv", "mean_healthy.csv",
                     "stats.json"}
        expected |= {f"rolling/{lbl}.csv" for lbl in labels}
        for name in ("matrix_pre.csv", "matrix_post.csv"):
            numbers[name] = _check_matrix(tree, name, labels)
        _, mean_rows = _rows(tree, "mean_healthy.csv", ["t", "value"])
        if len(mean_rows) != grid_n:
            raise CheckError(f"mean_healthy.csv: {len(mean_rows)} rows, "
                             f"expected {grid_n}")
        numbers["mean_healthy.csv"] = [x for r in mean_rows
                                       for x in _finite("mean_healthy.csv", r)]
        if "stats.json" not in tree:
            raise CheckError("missing output file stats.json")
        stats = json.loads(tree["stats.json"], parse_constant=_reject_constant)
        if sorted(stats["distances"]) != sorted(labels):
            raise CheckError("stats.json: distances keys differ from trials")
        if stats["skipped_trials"] != 0:
            raise CheckError(f"stats.json: {stats['skipped_trials']} skipped")
        numbers["stats.json"] = list(_json_numbers(stats))
        window_rows = grid_n - stats["rolling_window"] + 1
        for lbl in labels:
            name = f"rolling/{lbl}.csv"
            _, rrows = _rows(tree, name, ["t_center", "correlation"])
            if len(rrows) != window_rows:
                raise CheckError(f"{name}: {len(rrows)} rows, "
                                 f"expected {window_rows}")
            numbers[name] = [x for r in rrows for x in _finite(name, r)]
    if set(tree) != expected:
        raise CheckError(f"output files differ from the expected set: "
                         f"extra {sorted(set(tree) - expected)}, "
                         f"missing {sorted(expected - set(tree))}")
    return numbers


def summarise(numbers: dict) -> dict:
    """Every number of distances.csv; for other files their count, sum, sum
    of |x| and sum of squares."""
    return {name: v if name == "distances.csv" else
            [float(len(v)), math.fsum(v), math.fsum(map(abs, v)),
             math.fsum(x * x for x in v)]
            for name, v in sorted(numbers.items())}


def check_reference(workload: str, sha: str, numbers: dict) -> None:
    """Compare a reference-seed tree with the one recorded from the seed commit."""
    ref = json.loads(REFERENCE_FILE.read_text())[workload]
    got = summarise(numbers)
    if sorted(got) != sorted(ref["numbers"]):
        raise CheckError("numeric files differ from the reference")
    for name, want in ref["numbers"].items():
        if len(got[name]) != len(want):
            raise CheckError(f"{name}: {len(got[name])} numbers, reference "
                             f"has {len(want)}")
        for x, r in zip(got[name], want):
            if abs(x - r) > ABS_TOL + REL_TOL * abs(r):
                raise CheckError(f"{name}: {x!r} differs from reference "
                                 f"{r!r} by more than {REL_TOL:g} relative")
    if sha != ref["tree_sha256"]:
        raise CheckError(f"tree sha256 {sha} != reference {ref['tree_sha256']}")
