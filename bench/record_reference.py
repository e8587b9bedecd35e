"""Record bench/reference.json from the current sources.

    python3 bench/record_reference.py

Runs every workload once on the reference seed, through the CLI and through
the traced run, and stores the output tree's sha256, its numbers as
`checks.summarise` gives them, and the run's DP solve count. Runs on the
reference seed are then checked against this file. The committed file was
recorded from the seed commit; record it again only in a change that means
to alter the outputs, and say so.
"""

import json
import shutil
import sys

import checks
from run import SRC, WORK, Child
from workloads import WORKLOADS, make_cohort


def main() -> int:
    sys.path.insert(0, str(SRC))
    reference = {}
    for w in WORKLOADS.values():
        workdir = WORK / f"record-{w.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            manifest = make_cohort(w, checks.REFERENCE_SEED, workdir / "cohort")
            out, traced_out = workdir / "out", workdir / "traced_out"
            cli = Child("invoke.py", w.argv(manifest, out), workdir, "cli")
            traced = Child("traced.py", [w.name, str(manifest), str(traced_out),
                                         "0"], workdir, "traced")
            if not (cli.ok and traced.ok):
                raise SystemExit(f"{w.name}: a child failed")
            tree = checks.read_tree(w.command, out, cli.stdout)
            traced_tree = checks.read_tree(w.command, traced_out,
                                           traced.stdout)
            sha = checks.tree_sha256(tree)
            if checks.tree_sha256(traced_tree) != sha:
                raise SystemExit(f"{w.name}: traced tree differs from CLI tree")
            numbers = checks.check_tree(w.command, w.trials,
                                        w.config().grid_n, tree)
            reference[w.name] = {
                "tree_sha256": sha,
                "numbers": checks.summarise(numbers),
                "dp_solves_total": traced.result["metrics"]["dp_solves_total"],
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{w.name}: {sha} dp_solves_total="
              f"{reference[w.name]['dp_solves_total']}")
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
