"""Command-line front-end.

Subcommands mirror the pipeline stages so each can be exercised alone:

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


def _prepare(args, config):
    ingested = pl.ingest(args.manifest, config, skip_bad=args.skip_bad)
    separation = pl.build_healthy_mean(ingested.items, config)
    return ingested, separation


def _cmd_ingest_check(args, config) -> int:
    ingested = pl.ingest(args.manifest, config, skip_bad=args.skip_bad)
    for it in ingested.items:
        print(f"ok      {it.label}  ({it.entry.cohort}, n={config.grid_n})")
    for label, reason in ingested.skipped:
        print(f"skipped {label}: {reason}")
    print(f"{len(ingested.items)} trial(s) ok, {len(ingested.skipped)} skipped")
    return 0


def _cmd_mean(args, config) -> int:
    _, separation = _prepare(args, config)
    pl.write_mean_csv(args.out / "mean_healthy.csv", separation.mean)
    print(f"elastic mean written; iterations={separation.iterations} "
          f"converged={separation.converged}")
    return 0


def _cmd_align(args, config) -> int:
    ingested, separation = _prepare(args, config)
    _, alignment = pl.score_against_mean(ingested.items, separation.mean, config)
    pl.write_alignment_csvs(args.out, [it.label for it in ingested.items],
                            alignment)
    pl.write_mean_csv(args.out / "mean_healthy.csv", separation.mean)
    print(f"aligned {len(ingested.items)} trial(s) to the healthy mean")
    return 0


def _cmd_distances(args, config) -> int:
    ingested, separation = _prepare(args, config)
    scores, _ = pl.score_against_mean(ingested.items, separation.mean, config)
    pl.write_distances_csv(args.out / "distances.csv", scores)
    print(f"wrote {len(scores)} distance triple(s)")
    return 0


def _cmd_stats(args, config) -> int:
    ingested, separation = _prepare(args, config)
    scores, _ = pl.score_against_mean(ingested.items, separation.mean, config)
    report = pl.CohortReport(
        scores=scores,
        t_tests=pl.cohort_t_tests(scores),
        regressions=pl.cohort_regressions(scores),
        matrix_pre=None,
        matrix_post=None,
        matrix_summary={"pre": None, "post": None},
        mean=separation.mean,
        separation=separation,
        rolling={},
        rolling_window=0,
        skipped=ingested.skipped,
    )
    pl.write_stats_json(args.out / "stats.json", report)
    print("wrote stats.json")
    return 0


def _cmd_report(args, config) -> int:
    report = pl.run_pipeline(args.manifest, config, args.out,
                             skip_bad=args.skip_bad)
    n = len(report.scores)
    print(f"report complete: {n} trial(s), "
          f"{len(report.skipped)} skipped, outputs in {args.out}")
    return 0


_COMMANDS = {
    "ingest-check": (_cmd_ingest_check, False),
    "mean": (_cmd_mean, True),
    "align": (_cmd_align, True),
    "distances": (_cmd_distances, True),
    "stats": (_cmd_stats, True),
    "report": (_cmd_report, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionshape",
        description="Elastic shape analysis of motion trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_out) in _COMMANDS.items():
        p = sub.add_parser(name)
        _add_common(p, needs_out)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, needs_out = _COMMANDS[args.command]
    try:
        config = _config(args)
        if needs_out:
            args.out.mkdir(parents=True, exist_ok=True)
        return handler(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
