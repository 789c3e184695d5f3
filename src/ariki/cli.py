"""Command-line front end.

Subcommands mirror the library: enumerate, a-value, symbol, a-seq, a-graph,
crystal, bijection, canonical, decomp, typeb, verify.  Charge parameters
come from --d/--e/--charges; the weight shift is always the minimal one, as
no output depends on it; typeb a-values takes no --e, as type B a-values
do not depend on e.  Exit codes: 0 success, 1 internal assertion failure
or a failed verify check, 2 invalid parameters or an unknown option, an
--mp above MAX_MP_RANK cells or a symbol --shift (the extra symbol
height) above MAX_MP_RANK among them.  Output is byte-identical
across runs and hash seeds.  canonical, decomp and typeb stream their text
to stdout once it is all computed; a reader that closes the pipe early ends
the run with exit 0.
"""

import argparse
import os
import sys

from . import render
from .charge import ChargeParams
from .partitions import parse_multipartition, rank

# Largest --mp rank accepted.  A single column is the slowest shape (the
# tallest symbol); 500 cells at d = 3 take about 0.12 s including start-up.
# It also caps symbol --shift, whose symbol table grows linearly with it.
MAX_MP_RANK = 500


def _add_charge_args(sub):
    sub.add_argument("--d", type=int, default=1, help="number of components")
    sub.add_argument("--e", type=int, required=True, help="order of the root of unity")
    sub.add_argument("--charges", default="0",
                     help="comma-separated charges 0 <= v_0 <= ... < e")


def _charge_params(args) -> ChargeParams:
    try:
        v = tuple(int(x) for x in args.charges.split(","))
    except ValueError:
        raise ValueError(f"cannot parse charges {args.charges!r}")
    return ChargeParams(args.d, args.e, v)


def _multipartition(args, require_partitions=True):
    mp = parse_multipartition(args.mp, require_partitions)
    if rank(mp) > MAX_MP_RANK:
        raise ValueError(f"--mp has rank {rank(mp)}, above the limit {MAX_MP_RANK}")
    return mp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ariki",
        description="Exact crystal, a-function and canonical-basis computations "
                    "for Ariki-Koike algebras at roots of unity.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("enumerate", help="list all d-partitions of rank n")
    sub.add_argument("--d", type=int, default=1)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("a-value", help="a-value of a multipartition")
    _add_charge_args(sub)
    sub.add_argument("--mp", required=True, help='multipartition, e.g. "2.2,2.2.1"')

    sub = subs.add_parser("symbol", help="ordinary and weight-shifted symbol")
    _add_charge_args(sub)
    sub.add_argument("--mp", required=True)
    sub.add_argument("--shift", dest="symbol_shift", type=int, default=0,
                     help="extra symbol height (default 0)")

    sub = subs.add_parser("a-seq", help="residue sequence of a diagonal-crystal vertex")
    _add_charge_args(sub)
    sub.add_argument("--mp", required=True)

    sub = subs.add_parser("a-graph", help="optimal-addition chain of a vertex")
    _add_charge_args(sub)
    sub.add_argument("--mp", required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("crystal", help="crystal graph up to rank n")
    _add_charge_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--order", choices=("am", "flotw"), default="flotw")
    sub.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    sub = subs.add_parser("bijection", help="crystal bijection image of a vertex")
    _add_charge_args(sub)
    sub.add_argument("--mp", required=True)
    sub.add_argument("--inverse", action="store_true",
                     help="map a diagonal-crystal label back instead")

    sub = subs.add_parser("canonical", help="canonical basis at rank n")
    _add_charge_args(sub)
    sub.add_argument("--n", type=int, required=True)

    sub = subs.add_parser("decomp", help="decomposition matrix at rank n")
    _add_charge_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("typeb", help="type B basic sets, a-values, matrices")
    actions = sub.add_subparsers(dest="action", required=True)
    for action in ("basic-set", "a-values", "decomp"):
        act = actions.add_parser(action)
        act.add_argument("--n", type=int, required=True)
        if action != "a-values":  # type B a-values read no e
            act.add_argument("--e", type=int, required=True)
        act.add_argument("--format", choices=("text", "json"), default="text")

    subs.add_parser("verify", help="run the invariant suite")

    return parser


def run(args) -> int:
    out = sys.stdout
    cmd = args.command
    if cmd == "enumerate":
        out.write(render.render_enumerate(args.d, args.n, args.format))
    elif cmd == "a-value":
        p = _charge_params(args)
        out.write(render.render_a_value(p, _multipartition(args)))
    elif cmd == "symbol":
        p = _charge_params(args)
        mc = _multipartition(args, require_partitions=False)
        if args.symbol_shift > MAX_MP_RANK:
            raise ValueError(f"--shift {args.symbol_shift} is above the limit {MAX_MP_RANK}")
        out.write(render.render_symbol(p, mc, args.symbol_shift))
    elif cmd == "a-seq":
        p = _charge_params(args)
        out.write(render.render_a_seq(p, _multipartition(args)))
    elif cmd == "a-graph":
        p = _charge_params(args)
        out.write(render.render_a_graph(p, _multipartition(args), args.format))
    elif cmd == "crystal":
        p = _charge_params(args)
        fmt = "dot" if args.dot else "json"
        out.write(render.render_crystal(p, args.n, args.order, fmt))
    elif cmd == "bijection":
        p = _charge_params(args)
        out.write(render.render_bijection(p, _multipartition(args), args.inverse))
    elif cmd == "canonical":
        p = _charge_params(args)
        render.write_canonical(out, p, args.n)
    elif cmd == "decomp":
        p = _charge_params(args)
        render.write_decomp(out, p, args.n, args.format)
    elif cmd == "typeb":
        render.write_typeb(out, args.n, getattr(args, "e", None), args.action, args.format)
    elif cmd == "verify":
        # only verify loads the check suite (and subprocess, which it runs)
        from .verification import run_all
        if not run_all(report=lambda line: out.write(line + "\n")):
            return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # values like "-,1.1" must be passed as --mp=-,1.1
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # argparse parses a value of "--" (as in --mp=--) to [] instead of a string
    listed = [name for name, value in vars(args).items() if isinstance(value, list)]
    if listed:
        print(f"error: invalid value for {listed[0]}", file=sys.stderr)
        return 2
    try:
        code = run(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader took what it wanted (as `ariki decomp ... | head` does);
        # end quietly, with stdout pointed where the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
