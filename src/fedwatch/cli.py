"""Command-line front door: run experiments, sweep parameters, list aggregators.

Exit codes: 0 success, 2 config/validation error, 3 runtime/numeric
failure or out of memory, 4 I/O failure. Any failure prints one
machine-parsable line to stderr prefixed ``error:``, of at most
``LINE_BYTES`` bytes with its newline.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .config import AGGREGATORS, ConfigError, build_config, load_config
from .engine import EngineError, run, sweep, write_run_outputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4
LINE_BYTES = 200


def _fail(code: int, message: str) -> int:
    """Print ``error: message`` to stderr as one line: the message's line
    breaks of every kind become spaces, and a line that would take more than
    LINE_BYTES bytes with its newline, as stderr encodes it, is cut after a
    whole character and ends in ``...``."""
    line = " ".join(f"error: {message}".splitlines())
    if len(line.encode("utf-8", "backslashreplace")) >= LINE_BYTES:
        kept = line[:LINE_BYTES - 4]
        while len(kept.encode("utf-8", "backslashreplace")) > LINE_BYTES - 4:
            kept = kept[:-1]
        line = kept + "..."
    print(line, file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot read config: {e}")
    if args.seed is not None:
        config = build_config({**config.to_dict(), "seed": args.seed})
    start = time.monotonic()
    result = run(config)
    elapsed = time.monotonic() - start
    try:
        write_run_outputs(args.out, config, result, elapsed)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write outputs: {e}")
    return EXIT_OK


def _parse_sweep_value(text: str):
    """A bool, int, float or else the string; ValueError for an integer of
    more digits than int() reads, which float() would take as inf."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise
    try:
        return float(text)
    except ValueError:
        return text


def cmd_sweep(args) -> int:
    try:
        config = load_config(args.config)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot read config: {e}")
    try:
        values = [_parse_sweep_value(v) for v in args.values.split(",") if v != ""]
    except ValueError as e:
        raise ConfigError(args.param, str(e)) from None
    try:
        sweep(config, args.param, values, out_dir=args.out)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write outputs: {e}")
    return EXIT_OK


def cmd_list_aggregators(_args) -> int:
    for entry in AGGREGATORS.values():
        rendered = ",".join(f"{p.name}={p.default!r}" for p in entry.params)
        print(f"{entry.name}\t{rendered}".rstrip())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 2, as a config error is;
    each subcommand's parser is of this class too."""

    def error(self, message: str):
        sys.exit(_fail(EXIT_CONFIG, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedwatch",
        description="Deterministic federated-learning simulator with monitored, robust aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a config over values of one field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. aggregator.params.sigma_k")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_list = sub.add_parser("list-aggregators", help="print the aggregator roster")
    p_list.set_defaults(func=cmd_list_aggregators)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        return _fail(EXIT_CONFIG, str(e))
    except EngineError as e:
        return _fail(EXIT_RUNTIME, str(e))
    except MemoryError as e:
        return _fail(EXIT_RUNTIME, f"out of memory: {e}" if str(e) else "out of memory")


if __name__ == "__main__":
    sys.exit(main())
