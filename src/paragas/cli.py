"""Command line front end.

Subcommands: gas (price a block), schedule (exact or greedy schedule plus a
Gantt rendering), check (fixtures and the property comparison matrix),
simulate (fee-market simulation).  Exit codes: 0 ok, 1 check failure,
2 usage or input error.

The environment variable PARAGAS_INSTANCE_CAP overrides the exact
scheduler's instance size cap, an integer from 1 to MAX_INSTANCE_CAP.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache

from .core import (BlockError, echo, format_approx, format_rational,
                   parse_block, parse_weights, rational_of)
from .feemarket import (BaseFeeBelowFloor, BaseFeeState, BlockResult,
                        WorkloadConfig, simulate, workload)
from .gcm import MECHANISMS, TABLE_MECHANISMS, PricingEnv
from .properties import (PROPERTIES, FixtureMismatch, property_matrix,
                         run_fixture_suite)
from .render import gantt_svg, gantt_text
from .sampling import SamplerConfig
from .scheduler import (MAX_INSTANCE_CAP, InstanceTooLarge, InvalidSchedule,
                        SchedulerConfig, greedy_schedule, makespan,
                        optimal_schedule, validate_schedule)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2

INSTANCE_CAP_ENV = "PARAGAS_INSTANCE_CAP"


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {echo(value)}")
        return n
    return parse


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(value)}")


def _one_of(*choices: str) -> dict:
    """``add_argument`` keywords for a flag taking one of ``choices``: the
    usage lists them, and a refused value gets argparse's message with the
    value cut by ``echo``."""
    def parse(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {echo(value)} "
                f"(choose from {', '.join(map(repr, choices))})")
        return value
    return {"choices": choices, "type": parse}


def _listed(metavar: str, *choices: str) -> dict:
    """``_one_of(*choices)`` for a long list: the usage shows ``metavar``
    and the help lists the choices, so that both wrap on a narrow
    terminal."""
    return {**_one_of(*choices), "metavar": metavar,
            "help": ", ".join(choices)}


def _threads(value: str):
    return None if value == "unbounded" else _int_at_least(2)(value)


# The ``add_argument`` keywords of the block argument, --mech and --threads,
# each declared here once for every subcommand that takes it.
_BLOCK = {"help": "block JSON file"}
_MECH = {"default": "current", **_listed("MECH", *MECHANISMS)}
_THREADS = {"type": _threads, "default": 2, "metavar": "N|unbounded"}


def _positive_rational(flag: str, value: str) -> Fraction:
    q = rational_of(flag, value)
    if q <= 0:
        raise UsageError(f"{flag} must be > 0, got {echo(value)}")
    return q


def _scheduler_cfg(threads) -> SchedulerConfig:
    cap = os.environ.get(INSTANCE_CAP_ENV)
    if cap is None:
        return SchedulerConfig(threads=threads)
    try:
        return SchedulerConfig(threads=threads, instance_cap=int(cap))
    except ValueError:
        raise UsageError(f"{INSTANCE_CAP_ENV} must be an integer from 1 to "
                         f"{MAX_INSTANCE_CAP}, got {echo(cap)}")


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}")


def _threads_label(threads) -> str:
    return "unbounded" if threads is None else threads


# ---------------------------------------------------------------------------
# gas


def cmd_gas(args) -> int:
    txs, weights = parse_block(_read(args.block, "block file"))
    if args.weights is not None:
        weights = parse_weights(_read(args.weights, "weights file"))
    cfg = _scheduler_cfg(args.threads)
    env = PricingEnv(weights=weights, scheduler_cfg=cfg)
    per_tx = {tx.tx_id: env.gas(txs, tx, args.mech) for tx in txs}
    total = sum(per_tx.values(), Fraction(0))
    v = env.value(txs)
    report = {
        "mechanism": args.mech,
        "block_value": format_rational(v),
        "per_tx": {tx_id: format_rational(g)
                   for tx_id, g in sorted(per_tx.items())},
        "total": format_rational(total),
        "config": {"block": args.block,
                   "threads": _threads_label(args.threads),
                   "weights": args.weights,
                   "instance_cap": cfg.instance_cap},
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"mechanism {args.mech}, threads {_threads_label(args.threads)}"
              f", block {args.block}")
        for tx_id, g in sorted(per_tx.items()):
            print(f"  {tx_id}: {format_rational(g)} (~{format_approx(g)})")
        print(f"total {format_rational(total)}, "
              f"v(T) = {format_rational(v)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# schedule


def cmd_schedule(args) -> int:
    txs, _ = parse_block(_read(args.block, "block file"))
    cfg = _scheduler_cfg(args.threads)
    if args.mode == "exact":
        schedule = optimal_schedule(txs, cfg)
    else:
        schedule = greedy_schedule(txs, cfg)
    report = validate_schedule(schedule, txs, cfg)
    if not report.valid:
        raise InvalidSchedule(f"computed schedule is invalid: "
                              f"{report.to_dict()}")
    if args.format == "svg":
        print(gantt_svg(schedule))
        return EXIT_OK
    if args.format == "text":
        print(f"mode {args.mode}, threads {_threads_label(args.threads)}, "
              f"block {args.block}")
        print(gantt_text(schedule))
        return EXIT_OK
    doc = {
        "starts": {tx_id: format_rational(s)
                   for tx_id, s in sorted(schedule.starts.items())},
        "makespan": format_rational(makespan(schedule)),
        "validity": report.to_dict(),
        "config": {"block": args.block, "mode": args.mode,
                   "threads": _threads_label(args.threads),
                   "instance_cap": cfg.instance_cap},
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    mechs = TABLE_MECHANISMS if args.mech == "all" else (args.mech,)
    props = PROPERTIES if args.prop == "all" else (args.prop,)
    failures = []
    fixture_count = 0
    for mech in mechs:
        try:
            fixture_count += len(run_fixture_suite(mech))
        except FixtureMismatch as exc:
            failures.append(f"fixture mismatch ({mech}): {exc}")
    sampler = SamplerConfig(seed=args.seed)
    report = property_matrix(mechs, sampler, args.budget, props)
    failures += [f"matrix mismatch {mech}/{prop}: computed {got}, "
                 f"expected {want}" for mech, prop, got, want
                 in report.mismatches]
    cells = {f"{mech}/{prop}": cell
             for (mech, prop), cell in report.cells.items()}
    doc = {
        "config": {"mechanisms": list(mechs), "properties": list(props),
                   "seed": args.seed, "budget": args.budget,
                   "sampler": {"max_txs": sampler.max_txs,
                               "key_pool": sampler.key_pool,
                               "time_range": list(sampler.time_range),
                               "threads": [_threads_label(t)
                                           for t in sampler.threads]}},
        "fixture_checks": fixture_count,
        "cells": {name: {"symbol": c.symbol, "trials": c.trials,
                         "strict": c.strict_count, "equal": c.equal_count,
                         "witness": c.witness}
                  for name, c in sorted(cells.items())},
        "failures": failures,
        "ok": not failures,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"seed {args.seed}, budget {args.budget}, "
              f"{fixture_count} fixture values checked")
        for name, cell in sorted(cells.items()):
            print(f"  {name}: {cell.symbol} ({cell.trials} trials)")
        for f in failures:
            print(f"  FAIL: {f}")
        print("ok" if not failures else "FAILED")
    return EXIT_OK if not failures else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# simulate

CSV_COLUMNS = ("block_index", "base_fee", "gas_used", "gas_limit",
               "makespan", "included_count")


def _row(index: int, result: BlockResult, gas_limit: Fraction) -> tuple:
    """A simulate row, in ``CSV_COLUMNS`` order, for CSV and JSON alike."""
    return (index, format_rational(result.base_fee),
            format_rational(result.gas_used), format_rational(gas_limit),
            format_rational(result.makespan), len(result.included))


def cmd_simulate(args) -> int:
    if args.workload is not None:
        try:
            wl_cfg = WorkloadConfig.from_json(
                _read(args.workload, "workload config"))
        except BlockError as exc:
            raise UsageError(f"cannot read workload config: {exc}")
        if args.seed is not None:
            wl_cfg = replace(wl_cfg, seed=args.seed)
    else:
        wl_cfg = WorkloadConfig(seed=args.seed or 0)
    cfg = _scheduler_cfg(args.threads)
    env = PricingEnv(scheduler_cfg=cfg)
    base_fee = _positive_rational("--base-fee", args.base_fee)
    target = _positive_rational("--target", args.target)
    try:
        state0 = BaseFeeState(base_fee=base_fee, target_gas=target,
                              adjustment_denominator=args.denominator)
    except BaseFeeBelowFloor as exc:
        raise UsageError(f"--base-fee: {exc}")
    gas_limit = _positive_rational("--gas-limit", args.gas_limit)
    blocks = simulate(workload(wl_cfg, args.blocks, args.mech, env),
                      args.mech, env, state0, gas_limit)
    # Each row is written as its block is built, so memory stays flat
    # however many blocks run.
    out, state = sys.stdout, state0
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for index, (result, state) in enumerate(blocks):
            writer.writerow(_row(index, result, gas_limit))
        return EXIT_OK
    # The bytes of print(json.dumps(doc, indent=2)), one row at a time.
    # A block that fails part-way still leaves a whole document: the rows
    # before it and the base fee after the last completed block.
    config = {"mechanism": args.mech, "blocks": args.blocks,
              "seed": wl_cfg.seed, "gas_limit": args.gas_limit,
              "target": args.target, "base_fee": args.base_fee,
              "denominator": args.denominator,
              "threads": _threads_label(args.threads)}
    out.write(json.dumps({"config": config}, indent=2)[:-2]
              + ',\n  "rows": [')
    sep = "\n    "
    try:
        for index, (result, state) in enumerate(blocks):
            row = dict(zip(CSV_COLUMNS, _row(index, result, gas_limit)))
            out.write(sep + json.dumps(row, indent=2).replace("\n", "\n    "))
            sep = ",\n    "
    finally:
        final = json.dumps(format_rational(state.base_fee))
        out.write(f'\n  ],\n  "final_base_fee": {final}\n}}\n')
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paragas",
        description="Gas computation mechanisms for parallel execution: "
                    "exact makespan scheduling, block pricing, property "
                    "checks and a minimal fee market.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gas = sub.add_parser("gas", help="price a block")
    p_gas.add_argument("block", **_BLOCK)
    p_gas.add_argument("--mech", **_MECH)
    p_gas.add_argument("--threads", **_THREADS)
    p_gas.add_argument("--weights", default=None,
                       help="JSON weights file (overrides block weights)")
    p_gas.add_argument("--format", default="json", **_one_of("json", "text"))
    p_gas.set_defaults(fn=cmd_gas)

    p_sched = sub.add_parser("schedule", help="schedule a block")
    p_sched.add_argument("block", **_BLOCK)
    p_sched.add_argument("--threads", **_THREADS)
    p_sched.add_argument("--mode", default="exact",
                         **_one_of("exact", "greedy"))
    p_sched.add_argument("--format", default="json",
                         **_one_of("json", "text", "svg"))
    p_sched.set_defaults(fn=cmd_schedule)

    p_check = sub.add_parser(
        "check", help="run counterexample fixtures and the property matrix")
    p_check.add_argument("--mech", default="all",
                         **_listed("MECH", "all", *TABLE_MECHANISMS))
    p_check.add_argument("--prop", default="all",
                         **_listed("PROP", "all", *PROPERTIES))
    p_check.add_argument("--seed", type=_int, default=0)
    p_check.add_argument("--budget", type=_int_at_least(1), default=2000)
    p_check.add_argument("--format", default="text",
                         **_one_of("json", "text"))
    p_check.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="run a fee-market simulation")
    p_sim.add_argument("--mech", **_MECH)
    p_sim.add_argument("--blocks", type=_int_at_least(1), default=100)
    p_sim.add_argument("--seed", type=_int, default=None)
    p_sim.add_argument("--workload", default=None,
                       help="workload config JSON file")
    p_sim.add_argument("--gas-limit", default="20")
    p_sim.add_argument("--target", default="10")
    p_sim.add_argument("--base-fee", default="1")
    p_sim.add_argument("--denominator", type=_int_at_least(1), default=8)
    p_sim.add_argument("--threads", **_THREADS)
    p_sim.add_argument("--format", default="csv", **_one_of("csv", "json"))
    p_sim.set_defaults(fn=cmd_simulate)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused by every
    later call in the process.  Parsing leaves it as it was, and argparse
    reads the terminal width and the output streams when it prints, so a
    reused parser prints what a fresh one would."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except (UsageError, BlockError, InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader of stdout has gone (say, `| head`): stop quietly, with
        # stdout on devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
