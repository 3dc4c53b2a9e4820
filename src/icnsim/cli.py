"""Command-line front end: run | gen | bench | dump-protocol.

Exit codes: 0 success, 1 invalid spec or arguments (usage errors too),
2 simulation failure.  Set ICNSIM_LOG to error|info|debug for diagnostics
on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from .bench import run_sweep
from .deploy import Deployment
from .fid import FidParams
from .simnet import LimitExceeded
from .topospec import SpecError, check_params, generate_random, load_spec
from .wire import encode, golden_messages

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("ICNSIM_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(path: Optional[str], text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.topology)
    except FileNotFoundError:
        return _fail(1, f"topology file {args.topology!r} not found")
    except SpecError as exc:
        return _fail(1, f"invalid spec: {exc}")
    net = Deployment(spec, seed=args.seed)
    try:
        report = net.run_bootstrap()
    except LimitExceeded as exc:
        return _fail(2, f"simulation did not converge: {exc}")
    _write(args.out, report.to_csv())
    if args.dump_topology:
        sys.stdout.write(net.graph.dump())
    if not net.all_done():
        detail = "; ".join(f"{name}: {why}" for name, why in sorted(net.failures.items()))
        return _fail(2, f"bootstrap incomplete ({detail or 'pending nodes'})")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = generate_random(args.switches, args.links, args.hosts, args.seed)
    except SpecError as exc:
        return _fail(1, exc)
    _write(args.out, spec.to_json())
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"links: expected LO..HI, got {text!r}") from None


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        result = run_sweep(*_parse_range(args.links), args.step, args.repeats, args.seed)
    except SpecError as exc:
        return _fail(1, exc)
    except ValueError as exc:  # the message starts with the argument at fault
        return _fail(1, f"--{exc}")
    except (LimitExceeded, RuntimeError) as exc:
        return _fail(2, exc)
    _write(args.out, result.to_csv())
    return 0


def _cmd_dump_protocol(args: argparse.Namespace) -> int:
    try:
        check_params(args.m, args.k, prefix="--")
    except SpecError as exc:
        return _fail(1, exc)
    params = FidParams(m=args.m, k=args.k)
    for name, msg in golden_messages(params):
        sys.stdout.write(f"{name}: {encode(msg, params).hex()}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the code of every invalid argument."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icnsim", description="ICN-over-SDN bootstrap simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="bootstrap a topology spec and write span CSV")
    run.add_argument("--topology", required=True, help="topology spec JSON file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the seed embedded in the spec")
    run.add_argument("--out", default=None, help="CSV output path (default stdout)")
    run.add_argument("--dump-topology", action="store_true",
                     help="print the TM graph after the run")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen", help="generate a random connected topology spec")
    gen.add_argument("--switches", type=int, required=True)
    gen.add_argument("--links", type=int, required=True,
                     help="switch-to-switch link count")
    gen.add_argument("--hosts", type=int, default=0)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None, help="spec output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="formation-time sweep over link counts")
    bench.add_argument("--links", required=True, help="range LO..HI")
    bench.add_argument("--step", type=int, default=10)
    bench.add_argument("--repeats", type=int, default=20)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", default=None, help="CSV output path (default stdout)")
    bench.set_defaults(func=_cmd_bench)

    dump = sub.add_parser("dump-protocol", help="print golden wire vectors")
    dump.add_argument("--m", type=int, default=256)
    dump.add_argument("--k", type=int, default=5)
    dump.set_defaults(func=_cmd_dump_protocol)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
