"""One CLI invocation in a fresh interpreter, timed from inside.

    python3 bench/invoke.py RESULT.json [CLI ARGS...]

Times `import motionshape.cli`, then `motionshape.cli.main(CLI ARGS)`, and
writes both durations, the exit code, the process's peak RSS and CPU time to
RESULT.json. With no CLI ARGS it only imports (a set-up probe). The CLI's
own output goes to this process's stdout and stderr unchanged.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import motionshape.cli as cli
    import_s = time.perf_counter() - t0

    rc, wall_s = 0, None
    if argv:
        t1 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t1
        sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(result_path, "w") as fh:
        json.dump({
            "rc": rc,
            "import_s": import_s,
            "wall_s": wall_s,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "module": cli.__file__,
        }, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
