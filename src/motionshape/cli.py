"""Command-line front-end.

Each subcommand runs `pipeline.stages` up to the stage it needs, in one
worker pool, then writes that stage's files, which land in --out only if
it succeeds:

    ingest-check   parse + preprocess every trial, report problems
    mean           elastic mean of the healthy cohort -> mean_healthy.csv
    align          align every trial to the healthy mean -> aligned/warps CSVs
    distances      per-trial distance triples -> distances.csv
    stats          t-tests and regressions -> stats.json
    report         everything, including matrices and rolling correlations

All subcommands accept a config file (key = value lines) plus one override
flag per PipelineConfig field, spelled --field-name.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl
from .core import worker_pool
from .inputs import PipelineConfig
from .outputs import (publish, write_alignment_csvs, write_distances_csv,
                      write_mean_csv, write_stats_json)

__all__ = ["build_parser", "main"]


def _add_common(p: argparse.ArgumentParser, needs_out: bool) -> None:
    p.add_argument("--manifest", required=True, type=Path,
                   help="cohort manifest CSV")
    p.add_argument("--config", type=Path, default=None,
                   help="config file (key = value lines)")
    if needs_out:
        p.add_argument("--out", required=True, type=Path,
                       help="output directory")
    p.add_argument("--skip-bad", action="store_true",
                   help="record bad trials as skipped instead of aborting")
    for f in fields(PipelineConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def _config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name)
                 for f in fields(PipelineConfig)
                 if getattr(args, f.name) is not None}
    if args.config is not None:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig(**overrides)


# Each handler gets the chain's record after its subcommand's last stage and
# writes its files into `into`, staged for `out`; it returns what to print.

def _ingest_check(run: pl.CohortReport, into, out) -> str:
    lines = [f"ok      {it.label}  ({it.entry.cohort}, n={it.trajectory.grid.n})"
             for it in run.items]
    lines += [f"skipped {label}: {reason}" for label, reason in run.skipped]
    lines.append(f"{len(run.items)} trial(s) ok, {len(run.skipped)} skipped")
    return "\n".join(lines)


def _mean(run: pl.CohortReport, into: Path, out: Path) -> str:
    write_mean_csv(into / "mean_healthy.csv", run.mean)
    return (f"elastic mean written; iterations={run.separation.iterations} "
            f"converged={run.separation.converged}")


def _align(run: pl.CohortReport, into: Path, out: Path) -> str:
    write_alignment_csvs(into, [it.label for it in run.items], run.alignment)
    write_mean_csv(into / "mean_healthy.csv", run.mean)
    return f"aligned {len(run.items)} trial(s) to the healthy mean"


def _distances(run: pl.CohortReport, into: Path, out: Path) -> str:
    write_distances_csv(into / "distances.csv", run.scores)
    return f"wrote {len(run.scores)} distance triple(s)"


def _stats(run: pl.CohortReport, into: Path, out: Path) -> str:
    write_stats_json(into / "stats.json", run.summary_dict())
    return "wrote stats.json"


def _report(run: pl.CohortReport, into: Path, out: Path) -> str:
    pl.write_report(into, run)
    return (f"report complete: {len(run.scores)} trial(s), "
            f"{len(run.skipped)} skipped, outputs in {out}")


# subcommand -> (last stage of pipeline.stages it runs, handler)
_COMMANDS = {
    "ingest-check": ("ingest", _ingest_check),
    "mean": ("mean", _mean),
    "align": ("score", _align),
    "distances": ("score", _distances),
    "stats": ("stats", _stats),
    "report": ("report", _report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionshape",
        description="Elastic shape analysis of motion trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (last, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        _add_common(p, needs_out=last != "ingest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    last, handler = _COMMANDS[args.command]
    out = getattr(args, "out", None)
    try:
        config = _config(args)
        with (publish(out) if out is not None else nullcontext()) as into, \
                worker_pool():
            run = next(run for stage, run in pl.stages(args.manifest, config,
                                                       args.skip_bad)
                       if stage == last)
            text = handler(run, into, out)
        print(text)
    except (ValueError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename and exc.strerror:
            message = f"{exc.filename}: {exc.strerror}"  # not "[Errno 17] ..."
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
