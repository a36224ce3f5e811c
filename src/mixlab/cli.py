"""Command-line interface.

    mixlab <subcommand> --config cfg.json [--seed S] [--out PATH]
                        [--format csv|json] [--threads T]

Subcommands mirror the experiment kinds: tv-curve, sweep, coupling,
bounds, hitting, oracle-check.  The config file is a JSON object; the
optional flags override the matching config keys.  Exit status: 0 on
success; 1 for an invalid or unreadable config (every problem is listed
on stderr), for an infeasible run (a threshold not reached within the
horizon, exact stepping estimated beyond the stepping cap of 300 s, a
bounds run beyond its cap of geometric waits, a sampler time cap of
2**62 or more, or arrays too large to allocate) or for an output path
that cannot be written; 2 when oracle-check finds a violated identity.
"""

from __future__ import annotations

import argparse
import sys

from .config import COMMON, KINDS, ConfigError, load_config, parse_config
from .experiments import OracleFailure, run_experiment
from .records import write_record


class _Parser(argparse.ArgumentParser):
    # argument errors are config errors as far as exit codes are concerned
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=None, help="worker threads for sweeps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        file_kind = raw.get("kind")
        if file_kind is not None and file_kind != args.kind:
            raise ConfigError(
                [f"config kind {file_kind!r} does not match subcommand {args.kind!r}"]
            )
        raw["kind"] = args.kind
        for key in COMMON:  # each common key has a flag of its name
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        config = parse_config(raw)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1

    failures: list[str] = []
    try:
        record = run_experiment(config)
    except OracleFailure as exc:
        record, failures = exc.record, exc.failures
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        write_record(record, config.out, config.format)
    except OSError as exc:
        print(f"error: cannot write {config.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    for name in failures:
        print(f"oracle violation: {name}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
