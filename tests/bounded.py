"""Bounded-exhaustive checks of subset tables, prices and the pair
properties of the comparison matrix, used by the tests.

Tables and prices: every multiset block of 1 to ``max_txs`` transactions
over a small domain of shapes (a time and a key set) is built, at each
thread count.  Every entry of the block's subset table must equal
``exhaustive_makespan`` of that subset, and every Shapley and raw Banzhaf
price must equal the one ``exhaustive.py`` computes from the definitions.
The makespan of a subset depends only on the multiset of its shapes, so
each multiset is enumerated once per thread count.

Pair properties: for every multiset base of 0 to ``max_base`` transactions
and every ordered pair (tx1, tx2) of shapes, at each thread count, the
properties P1-P3, P5 and P6 are checked with ``check_property`` for every
mechanism whose cell in the expected matrix is not ``x``.  A pair that does
not meet a property's premise is refused by its check and skipped; P5
bundles tx1 and tx2 into x3 with ``concatenate``, and P6 decides its own
premise.  Every other cell is then a statement about the whole domain, not
about a sample.

Run by hand on a larger domain, from the repository root:

    PYTHONPATH=src python3 tests/bounded.py --times 1 2 3 --keys a b ab
    PYTHONPATH=src python3 tests/bounded.py --max-txs 5
    PYTHONPATH=src python3 tests/bounded.py --properties

With ``--properties`` the domain defaults to times {1, 2, 3}, key sets
{a}, {b}, {a, b} and bases of up to 3 transactions (``--max-txs``), at 2
and 3 threads.  A key set is written as its one-letter keys (``ab`` is
{a, b}).  The exit code is 1 if any entry or price differs or any property
is violated.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from paragas import (PricingEnv, SchedulerConfig, TxSet, check_property,
                     concatenate, load_expected_matrix, make_transaction,
                     subset_value_table)
from paragas.properties import (REGISTRY, VIOLATED, BundlingInstance,
                                MalformedInstance, PairInstance)

from exhaustive import banzhaf, exhaustive_makespan, shapley_subset

TIMES = (1, 2)
KEY_SETS = ("a", "b", "ab", "c")
MAX_TXS = 4
THREADS = (2, 3, None)

# The pair properties' domain in the tests, and the larger default of a run
# by hand.
PAIR_PROPERTIES = ("key_monotonicity", "time_monotonicity",
                   "key_time_monotonicity", "bundling",
                   "scheduling_monotonicity")
PAIR_TIMES = (1, 2)
PAIR_KEY_SETS = ("a", "b", "ab")
PAIR_MAX_BASE = 2
PAIR_THREADS = (2, 3)
HAND_TIMES = (1, 2, 3)
HAND_MAX_BASE = 3


@dataclass(frozen=True)
class BoundedReport:
    pairs: int  # (block, thread count) pairs checked
    entries: int  # subset-table entries compared
    prices: int  # Shapley and Banzhaf prices compared
    mismatches: tuple  # (what, block shapes, threads, subset or tx id)


def blocks(times=TIMES, key_sets=KEY_SETS, max_txs=MAX_TXS):
    """Every multiset block of 1..``max_txs`` shapes, ids t0, t1, ...
    in the order of the shapes."""
    shapes = [(t, keys) for t in times for keys in key_sets]
    for size in range(1, max_txs + 1):
        for chosen in combinations_with_replacement(shapes, size):
            yield TxSet(make_transaction(f"t{i}", t, list(keys))
                        for i, (t, keys) in enumerate(chosen))


def _shape(txs) -> tuple:
    return tuple(sorted((tx.time, tuple(sorted(tx.keys))) for tx in txs))


def check_bounded(times=TIMES, key_sets=KEY_SETS, max_txs=MAX_TXS,
                  threads=THREADS) -> BoundedReport:
    pairs = entries = prices = 0
    mismatches = []
    exact: dict[tuple, Fraction] = {}
    for block in blocks(times, key_sets, max_txs):
        for n in threads:
            cfg = SchedulerConfig(threads=n)
            table = subset_value_table(block, cfg)
            for ids, v in table.values.items():
                sub = block.subset(ids)
                key = (_shape(sub), n)
                if key not in exact:
                    exact[key] = exhaustive_makespan(sub, n)
                entries += 1
                if v != exact[key]:
                    mismatches.append(("entry", _shape(block), n,
                                       sorted(ids)))
            env = PricingEnv(scheduler_cfg=cfg)
            for tx in block:
                for mech, want in (("shapley", shapley_subset),
                                   ("banzhaf", banzhaf)):
                    prices += 1
                    if env.gas(block, tx, mech) != want(block, tx, table):
                        mismatches.append((mech, _shape(block), n,
                                           tx.tx_id))
            pairs += 1
    return BoundedReport(pairs, entries, prices, tuple(mismatches))


@dataclass(frozen=True)
class PairReport:
    checks: int  # check_property calls whose premise held
    violations: tuple  # (property, mechanism, threads, witness)


def _pair_instances(cls, base: TxSet, shapes):
    """An instance of ``cls`` on ``base`` for every ordered pair of
    ``shapes``."""
    for (t1, k1), (t2, k2) in product(shapes, repeat=2):
        tx1 = make_transaction("x1", t1, list(k1))
        tx2 = make_transaction("x2", t2, list(k2))
        if cls is BundlingInstance:
            yield BundlingInstance(base, tx1, tx2, concatenate(tx1, tx2, "x3"))
        else:
            yield PairInstance(base, tx1, tx2)


def check_pair_properties(times=PAIR_TIMES, key_sets=PAIR_KEY_SETS,
                          max_base=PAIR_MAX_BASE,
                          threads=PAIR_THREADS) -> PairReport:
    expected = load_expected_matrix()["rows"]
    cells = [(prop, [mech for mech, row in expected.items()
                     if row[prop] != "x"]) for prop in PAIR_PROPERTIES]
    shapes = [(t, keys) for t in times for keys in key_sets]
    envs = {n: PricingEnv(scheduler_cfg=SchedulerConfig(threads=n))
            for n in threads}
    checks = 0
    violations = []
    for base in [TxSet(), *blocks(times, key_sets, max_base)]:
        for n, env in envs.items():
            for prop, mechs in cells:
                cls = REGISTRY[prop].instance
                for inst in _pair_instances(cls, base, shapes):
                    for mech in mechs:
                        try:
                            outcome = check_property(prop, mech, inst, env)
                        except MalformedInstance:
                            break  # the premise fails for every mechanism
                        checks += 1
                        if outcome.verdict == VIOLATED:
                            violations.append((prop, mech, n,
                                               outcome.witness))
    return PairReport(checks, tuple(violations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--properties", action="store_true",
                        help="check the pair properties, not the tables")
    parser.add_argument("--times", type=int, nargs="+")
    parser.add_argument("--keys", nargs="+",
                        help="key sets, each as its one-letter keys")
    parser.add_argument("--max-txs", type=int,
                        help="transactions of a block, or of a base")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if args.properties:
        report = check_pair_properties(
            args.times or HAND_TIMES, args.keys or PAIR_KEY_SETS,
            HAND_MAX_BASE if args.max_txs is None else args.max_txs)
        print(f"{report.checks} checks, {len(report.violations)} "
              f"violations in {time.perf_counter() - began:.1f} s")
        for violation in report.violations[:20]:
            print(*violation)
        return 1 if report.violations else 0
    report = check_bounded(args.times or TIMES, args.keys or KEY_SETS,
                           MAX_TXS if args.max_txs is None else args.max_txs)
    took = time.perf_counter() - began
    print(f"{report.pairs} block-thread pairs, {report.entries} entries, "
          f"{report.prices} prices, {len(report.mismatches)} mismatches "
          f"in {took:.1f} s")
    for mismatch in report.mismatches[:20]:
        print(*mismatch)
    return 1 if report.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
