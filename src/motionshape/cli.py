"""Command-line front-end.

Each subcommand runs `pipeline.stages` up to the stage it needs, then
writes that stage's files:

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
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl


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
    for f in fields(pl.PipelineConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def _config(args: argparse.Namespace) -> pl.PipelineConfig:
    overrides = {f.name: getattr(args, f.name)
                 for f in fields(pl.PipelineConfig)
                 if getattr(args, f.name) is not None}
    if args.config is not None:
        return pl.PipelineConfig.from_file(args.config, overrides)
    return pl.PipelineConfig(**overrides)


# Each handler gets the chain's record after its subcommand's last stage,
# writes its files into `out` and returns what to print.

def _ingest_check(run: pl.Run, out) -> str:
    ingested = run.ingested
    lines = [f"ok      {it.label}  ({it.entry.cohort}, n={it.trajectory.grid.n})"
             for it in ingested.items]
    lines += [f"skipped {label}: {reason}" for label, reason in ingested.skipped]
    lines.append(f"{len(ingested.items)} trial(s) ok, "
                 f"{len(ingested.skipped)} skipped")
    return "\n".join(lines)


def _mean(run: pl.Run, out: Path) -> str:
    pl.write_mean_csv(out / "mean_healthy.csv", run.separation.mean)
    return (f"elastic mean written; iterations={run.separation.iterations} "
            f"converged={run.separation.converged}")


def _align(run: pl.Run, out: Path) -> str:
    pl.write_alignment_csvs(out, [it.label for it in run.ingested.items],
                            run.alignment)
    pl.write_mean_csv(out / "mean_healthy.csv", run.separation.mean)
    return f"aligned {len(run.ingested.items)} trial(s) to the healthy mean"


def _distances(run: pl.Run, out: Path) -> str:
    pl.write_distances_csv(out / "distances.csv", run.scores)
    return f"wrote {len(run.scores)} distance triple(s)"


def _stats(run: pl.Run, out: Path) -> str:
    pl.write_stats_json(out / "stats.json", run.report)
    return "wrote stats.json"


def _report(run: pl.Run, out: Path) -> str:
    pl.write_report(out, run.report)
    return (f"report complete: {len(run.report.scores)} trial(s), "
            f"{len(run.report.skipped)} skipped, outputs in {out}")


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
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        run = next(run for stage, run in pl.stages(args.manifest, config,
                                                   args.skip_bad)
                   if stage == last)
        print(handler(run, out))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
