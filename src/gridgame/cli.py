"""Command-line experiment runner.

Subcommands: `train` builds and persists level-K policy hierarchies, `sweep`
evaluates configured pairings across the q3_max grid into sweep.csv, `eval`
scores a single pairing, and `trace` writes one step-by-step rollout for
plotting.  All read a JSON config (see `experiment.load_config`) and an
output directory; identical (config, seed) invocations produce identical
bytes, whatever `--jobs` says.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import experiment


def _add_common(parser: argparse.ArgumentParser, *, required: bool,
                levels: bool = True) -> None:
    # `required` makes the cell options mandatory rather than filters.
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    if levels:
        for option in ("--defender-level", "--attacker-level"):
            parser.add_argument(option, type=int, required=required, default=None)
    parser.add_argument("--q3max", type=float, required=required, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridgame",
        description="Level-K reinforcement-learning battles on a three-node feeder")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train and persist policy hierarchies")
    _add_common(train, required=False, levels=False)

    sweep = sub.add_parser("sweep", help="evaluate pairings across q3_max values")
    _add_common(sweep, required=False)
    for command in (train, sweep):
        command.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes (default: the usable CPUs; at most one "
                 "per CPU and per work unit)")

    ev = sub.add_parser("eval", help="evaluate one pairing")
    _add_common(ev, required=True)

    trace = sub.add_parser("trace", help="write one rollout trace CSV")
    _add_common(trace, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first `main` call, not at import; reused after."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = experiment.load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "train":
            written, failures = experiment.run_train(
                config, out_dir, q3_max=args.q3max, seed=args.seed,
                jobs=args.jobs)
            print(f"wrote {len(written)} policy file(s) and manifest.json "
                  f"to {out_dir}")
            for failure in failures:
                print(f"training failure: {failure}", file=sys.stderr)
            return 1 if failures else 0
        if args.command == "sweep":
            records = experiment.run_sweep(
                config, out_dir, q3_max=args.q3max, seed=args.seed,
                defender_level=args.defender_level,
                attacker_level=args.attacker_level, jobs=args.jobs)
            print(f"wrote {len(records)} row(s) to {out_dir / 'sweep.csv'}")
            return 0
        if args.command == "eval":
            summary = experiment.run_eval(config, out_dir, args.defender_level,
                                          args.attacker_level, args.q3max,
                                          args.seed)
            print(f"pairing D{args.defender_level}/A{args.attacker_level} "
                  f"at q3_max={args.q3max:g}, seed={summary['seed']}")
            print(f"  defender avg reward/step: "
                  f"{summary['defender_avg_reward_per_step']:.6f} "
                  f"(per-episode std {summary['defender_std']:.6f})")
            print(f"  attacker avg reward/step: "
                  f"{summary['attacker_avg_reward_per_step']:.6f} "
                  f"(per-episode std {summary['attacker_std']:.6f})")
            print(f"  episodes: {summary['episodes']}")
            print(f"  per-episode CSV: {out_dir / summary['csv']}")
            return 0
        if args.command == "trace":
            path = experiment.run_trace(config, out_dir, args.defender_level,
                                        args.attacker_level, args.q3max,
                                        args.seed)
            print(f"wrote {path}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
