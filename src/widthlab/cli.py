"""Command-line interface.

Subcommands: ``param`` (one parameter of one graph), ``verify`` (named
checks over families), ``construct`` (substitutions and the gamma family),
``mwis`` (the three MWIS algorithms), and ``list-checks``.

Exit codes: 0 success / check passed, 1 check failed, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import partial

from .checks import CHECK_NAMES, CHECKS, DEFAULT_SEED, CheckSpec, enumerated_graph6, run_check
from .config import DEFAULT_BUDGETS, Budgets, load_config
from .constructions import (
    SubstitutionKind,
    gamma_family,
    subdivided_claw,
    substitute,
    substitution_order,
)
from .decomp import CostKind
from .formats import FORMATS, GRAPH6_MAX_N, FormatError, emit, parse, to_graph6
from .graphs import BudgetExceededError, Graph, named_graph, named_order, random_graph
from .modulators import ALPHA, ModulatorSpec, modulator_number, parameter
from .mwis import WeightedGraph, mwis_bipartite, mwis_exact, mwis_via_oct


class UsageError(Exception):
    pass


def _read_graph(args) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from None
    try:
        return parse(text, args.format)
    except FormatError as exc:
        raise UsageError(f"cannot parse {args.input} as {args.format}: {exc}") from None


def _write(text: str) -> None:
    # Once the reader closes stdout (``| head``), the rest goes to devnull.
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _witness_json(witness):
    if hasattr(witness, "to_json"):
        return witness.to_json()
    if isinstance(witness, tuple):
        return list(witness)
    return witness


def cmd_param(args) -> int:
    g = _read_graph(args)
    name, kind = args.parameter, CostKind.parse(args.kind)
    if name.startswith("alpha-"):
        name, kind = name.removeprefix("alpha-"), ALPHA
    name = {"n": "order", "max-degree": "delta"}.get(name, name)
    start = time.perf_counter()
    if ":" in name:
        value, witness = modulator_number(g, ModulatorSpec.parse(name.removeprefix("mu:")), kind)
    else:
        value, witness = parameter(name, kind)(g, DEFAULT_BUDGETS)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    out = {
        "parameter": args.parameter,
        "kind": kind.value,
        "value": value,
        "elapsed_ms": elapsed_ms,
    }
    if args.witness and witness is not None:
        out["witness"] = _witness_json(witness)
    _write(json.dumps(out, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    budgets, configured = DEFAULT_BUDGETS, {}
    if args.config:
        budgets, configured = load_config(
            args.config, {name: check.defaults for name, check in CHECKS.items()}
        )
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.check not in CHECK_NAMES:
        raise UsageError(
            f"unknown check {args.check!r}; see `widthlab list-checks`"
        )
    params = dict(configured.get(args.check, {}))  # the flags below override the file
    if args.max_n is not None:
        params["max_n"] = args.max_n
    # --seed also seeds the random: family, so checks without a seed accept it.
    if args.seed is not None and "seed" in CHECKS[args.check].defaults:
        params["seed"] = args.seed
    if args.rho is not None:
        params["rhos"] = [args.rho]
    if args.c is not None:
        params["cs"] = [args.c]
    if args.kind is not None:
        params["kinds"] = [args.kind]
    if args.family is not None:
        check_orders = CHECKS[args.check].orders
        params["graphs"] = _resolve_family(args.family, args.seed, budgets, check_orders)
    report = run_check(
        CheckSpec(args.check, params),
        budgets=budgets,
        jobs=args.jobs,
        log_path=args.log,
    )
    _write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    return 0 if report.passed else 1


def _resolve_family(
    text: str, seed: int | None, budgets: Budgets = DEFAULT_BUDGETS, check_orders=None
) -> list[str]:
    """The graph6 members of a ``--family`` value.

    A ``stars:``, ``paths:``, ``random:`` or ``named:`` member's order is
    read from the family's parameters before any member is built.  The
    orders, in family order up to the first one above every budget of the
    run, go first to ``check_orders``, the check's own test of its members
    (``Check.orders``) when it has one.  A member above every budget then
    exits 2: every family check fails it as over budget, and building it
    could take any time and memory."""
    head, _, rest = text.partition(":")
    members = None  # (order, graph maker) per member, made lazily in family order
    try:
        if head in ("all", "upto"):
            n = int(rest)
        elif head == "file":
            with open(rest) as fh:
                graphs = [line.strip() for line in fh if line.strip()]
        elif head in ("stars", "paths", "named"):
            if head == "named":
                names = rest.split(",")
            else:
                lo, hi = rest.split("-")
                prefix = "star" if head == "stars" else "P"
                names = (f"{prefix}{q}" for q in range(int(lo), int(hi) + 1))
            members = ((named_order(name), partial(named_graph, name)) for name in names)
        elif head == "random":
            size, p, count = rest.split(",")
            base = seed if seed is not None else DEFAULT_SEED
            members = (
                (int(size), partial(random_graph, int(size), float(p), base + i))
                for i in range(int(count))
            )
        else:
            raise UsageError(f"bad family {text!r}")
        if members is not None:
            cap = max(dataclasses.astuple(budgets))
            sizes, makers = [], []
            for order, make in members:
                sizes.append(order)
                makers.append(make)
                if order > cap:
                    break
            if check_orders is not None:
                check_orders(sizes, budgets)
            if sizes and sizes[-1] > cap:
                raise UsageError(
                    f"bad family {text!r}: a member has {sizes[-1]} vertices, "
                    f"above every budget of the run (at most {cap})"
                )
            graphs = [to_graph6(make()) for make in makers]
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad family {text!r}: {exc}") from None
    if head in ("all", "upto"):
        # Enumerated outside the wrap: an n out of range reads as it does
        # for --max-n.
        graphs = enumerated_graph6(n, n if head == "all" else 1)
    if not graphs:
        raise UsageError(f"bad family {text!r}: no graphs")
    return graphs


def cmd_construct(args) -> int:
    if args.iterate < 0:
        raise UsageError(f"--iterate must be non-negative, got {args.iterate}")
    if args.kind == "gamma":
        g = gamma_family(args.n)
    elif args.kind == "subdivided-claw":
        g = subdivided_claw()
    else:
        kind = SubstitutionKind.parse(args.kind)
        n = 1
        for _ in range(args.iterate):  # stops within a few steps of a huge count
            n = substitution_order(n, kind)
            if n > GRAPH6_MAX_N:
                raise UsageError(
                    f"--iterate {args.iterate} passes {GRAPH6_MAX_N} vertices, "
                    "more than any reader takes"
                )
        g = Graph(1, (0,))
        for _ in range(args.iterate):
            g = substitute(g, kind)
    _write(emit(g, args.format) + ("\n" if args.format == "graph6" else ""))
    return 0


def cmd_mwis(args) -> int:
    g = _read_graph(args)
    if args.weights:
        try:
            with open(args.weights) as fh:
                weights = tuple(int(line) for line in fh.read().split())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read weights: {exc}") from None
    else:
        weights = (1,) * g.n
    wg = WeightedGraph(g, weights)
    start = time.perf_counter()
    if args.algorithm == "exact":
        result = mwis_exact(wg)
    elif args.algorithm == "bipartite":
        result = mwis_bipartite(wg)
    else:
        result = mwis_via_oct(wg, args.k)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    out = {
        "algorithm": args.algorithm,
        "weight": result.weight,
        "set": list(result.vertices),
        "elapsed_ms": elapsed_ms,
    }
    _write(json.dumps(out, sort_keys=True) + "\n")
    return 0


def cmd_list_checks(args) -> int:
    _write("".join(name + "\n" for name in CHECK_NAMES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Exact graph width parameters, their independence "
        "variants, modulators, and per-graph verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param", help="compute one parameter of one graph")
    p.add_argument("parameter", help="e.g. alpha, omega, tw, alpha-pw, vc, tw:2")
    p.add_argument("--input", required=True, help="graph file, or - for stdin")
    p.add_argument("--format", default="graph6", choices=list(FORMATS))
    p.add_argument("--kind", default="card", help="card or alpha")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("check")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--log", default=None, help="JSONL per-instance log path")
    p.add_argument("--rho", default=None, help="override target parameter (slack)")
    p.add_argument("--c", type=int, default=None, help="override threshold (slack)")
    p.add_argument("--kind", default=None, help="restrict cost kind (slack)")
    p.add_argument("--family", default=None, help="all:N, upto:N, stars:A-B, paths:A-B, random:N,P,COUNT, named:..., file:PATH")
    p.add_argument("--config", default=None, help="JSON budgets/check params override")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit constructed graphs")
    kinds = [kind.value for kind in SubstitutionKind] + ["gamma", "subdivided-claw"]
    p.add_argument("kind", choices=kinds)
    p.add_argument("--iterate", type=int, default=1, help="substitution count from K1")
    p.add_argument("--n", type=int, default=1, help="gamma family index")
    p.add_argument("--format", default="graph6", choices=list(FORMATS))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("mwis", help="maximum weight independent set")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="graph6", choices=list(FORMATS))
    p.add_argument("--weights", default=None, help="file, one integer per vertex")
    p.add_argument("--algorithm", default="exact", choices=["exact", "bipartite", "oct"])
    p.add_argument("--k", type=int, default=0, help="OCT independence bound")
    p.set_defaults(func=cmd_mwis)

    p = sub.add_parser("list-checks", help="list registered checks")
    p.set_defaults(func=cmd_list_checks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, FormatError, BudgetExceededError, ValueError, KeyError) as exc:
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]  # str() of a KeyError quotes its message
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # e.g. the chi and matching searches: no budget bounds their depth
        command = f"param {args.parameter}" if args.command == "param" else args.command
        print(f"error: {command}: the input is too deep for the recursive search", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
