"""Bounded-exhaustive checks of subset tables, prices and the properties of
the comparison matrix, used by the tests.

Tables and prices: every multiset block of 1 to ``max_txs`` transactions
over a small domain of shapes (a time and a key set) is built, at each
thread count.  Every entry of the block's subset table must equal
``exhaustive_makespan`` of that subset, and every Shapley and raw Banzhaf
price must equal the one ``exhaustive.py`` computes from the definitions.
The lower bound the scheduler's ``_bounds`` gives the whole block must not
exceed its v(T), and ``optimal_schedule`` must return the starts of the
plain search with the static floor (``static_floor_starts``).
The makespan of a subset depends only on the multiset of its shapes, so
each multiset is enumerated once per thread count.

Properties: every instance of a small domain of shapes is checked with
``check_property`` at each thread count, for every mechanism whose cell in
the expected matrix is not ``x``.  Every such cell is then a statement about
the whole domain, not about a sample.  The instances of each property:

- P1-P3, P5 and P6: every multiset base of 0 to ``max_base`` transactions
  and every ordered pair (tx1, tx2) of shapes.  A pair that does not meet a
  property's premise is refused by its check and skipped; P5 bundles tx1
  and tx2 into x3 with ``concatenate``, and P6 decides its own premise.
- P4: every such base, every multiset superset of 1 to ``max_base``
  transactions and every sub-multiset of it.
- P7: every multiset block of 1 to ``EFFICIENCY_MAX_TXS`` transactions.
- P8: every ordered pair of multiset blocks of 0 to ``ESTIMATION_MAX_TXS``
  transactions each, with one transaction of each shape added to both.

Run by hand on a larger domain, from the repository root:

    PYTHONPATH=src python3 tests/bounded.py --times 1 2 3 --keys a b ab
    PYTHONPATH=src python3 tests/bounded.py --max-txs 5
    PYTHONPATH=src python3 tests/bounded.py --properties
    PYTHONPATH=src python3 tests/bounded.py --properties efficiency

With ``--properties`` (all eight, or those named) the domain defaults to
times {1, 2, 3}, key sets {a}, {b}, {a, b} and bases and supersets of up
to 3 transactions (``--max-txs``), at 2 and 3 threads.  A key set is
written as its one-letter keys (``ab`` is {a, b}).  The exit code is 1 if
any entry or price differs or any property is violated.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product

from paragas import (PricingEnv, SchedulerConfig, TxSet, check_property,
                     concatenate, load_expected_matrix, make_transaction,
                     optimal_schedule, scheduler, subset_value_table)
from paragas.properties import (PROPERTIES, REGISTRY, VIOLATED,
                                BundlingInstance, EfficiencyInstance,
                                EstimationInstance, MalformedInstance,
                                PairInstance, SetInclusionInstance)

from exhaustive import banzhaf, exhaustive_makespan, shapley_subset

TIMES = (1, 2)
KEY_SETS = ("a", "b", "ab", "c")
MAX_TXS = 4
THREADS = (2, 3, None)

# The properties' domain in the tests, and the larger default of a run by
# hand.
PAIR_PROPERTIES = ("key_monotonicity", "time_monotonicity",
                   "key_time_monotonicity", "bundling",
                   "scheduling_monotonicity")
PAIR_TIMES = (1, 2)
PAIR_KEY_SETS = ("a", "b", "ab")
PAIR_MAX_BASE = 2
PAIR_THREADS = (2, 3)
HAND_TIMES = (1, 2, 3)
HAND_MAX_BASE = 3
EFFICIENCY_MAX_TXS = 5
ESTIMATION_MAX_TXS = 2


@dataclass(frozen=True)
class BoundedReport:
    pairs: int  # (block, thread count) pairs checked
    entries: int  # subset-table entries compared
    prices: int  # Shapley and Banzhaf prices compared
    mismatches: tuple  # (what, block shapes, threads, subset or tx id)


def blocks(times=TIMES, key_sets=KEY_SETS, max_txs=MAX_TXS, prefix="t"):
    """Every multiset block of 1..``max_txs`` shapes, ids t0, t1, ... (or
    ``prefix`` and a number) in the order of the shapes."""
    shapes = [(t, keys) for t in times for keys in key_sets]
    for size in range(1, max_txs + 1):
        for chosen in combinations_with_replacement(shapes, size):
            yield TxSet(make_transaction(f"{prefix}{i}", t, list(keys))
                        for i, (t, keys) in enumerate(chosen))


def _shape(txs) -> tuple:
    return tuple(sorted((tx.time, tuple(sorted(tx.keys))) for tx in txs))


def static_floor_starts(block, threads) -> dict:
    """The starts, by id, of the plain branch and bound on the whole block:
    from the greedy schedule, with the static lower bound as its floor, no
    table and no budget."""
    sc = scheduler.compiled(block)
    items = range(len(block))
    span, starts = scheduler._greedy(sc, threads, sc.order)
    found = scheduler._search(sc, threads, items, span,
                              sc.bound(threads)(0, (), items))[1]
    if found is not None:
        starts = {}
        while found is not None:
            (batch, start), found = found
            starts.update(dict.fromkeys(batch, start))
    return sc.schedule(block, starts).starts


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
            sc = scheduler.compiled(block)
            floor = Fraction(scheduler._bounds(sc, n)[0], sc.scale)
            if floor > exact[_shape(block), n]:
                mismatches.append(("floor", _shape(block), n, floor))
            if optimal_schedule(block, cfg).starts != \
                    static_floor_starts(block, n):
                mismatches.append(("starts", _shape(block), n, None))
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
class PropertyReport:
    checks: int  # check_property calls whose premise held
    violations: tuple  # (property, mechanism, threads, witness)


def _pairs(cls, times, key_sets, max_base):
    """An instance of ``cls`` for every base and ordered pair of shapes."""
    shapes = [(t, keys) for t in times for keys in key_sets]
    for base in [TxSet(), *blocks(times, key_sets, max_base)]:
        for (t1, k1), (t2, k2) in product(shapes, repeat=2):
            tx1 = make_transaction("x1", t1, list(k1))
            tx2 = make_transaction("x2", t2, list(k2))
            if cls is BundlingInstance:
                yield BundlingInstance(base, tx1, tx2,
                                       concatenate(tx1, tx2, "x3"))
            else:
                yield PairInstance(base, tx1, tx2)


def _inclusions(times, key_sets, max_base):
    """P4: every base, superset and sub-multiset of the superset."""
    supersets = list(blocks(times, key_sets, max_base, "x"))
    for base in [TxSet(), *blocks(times, key_sets, max_base)]:
        for superset in supersets:
            subsets = {_shape(chosen): chosen
                       for size in range(len(superset) + 1)
                       for chosen in combinations(superset, size)}
            for chosen in subsets.values():
                yield SetInclusionInstance(base, TxSet(chosen), superset)


def _efficiencies(times, key_sets, max_base):
    """P7: every block of up to EFFICIENCY_MAX_TXS transactions."""
    return map(EfficiencyInstance,
               blocks(times, key_sets, EFFICIENCY_MAX_TXS))


def _estimations(times, key_sets, max_base):
    """P8: every ordered pair of small blocks and every added shape."""
    def small(prefix):
        return [TxSet(), *blocks(times, key_sets, ESTIMATION_MAX_TXS,
                                 prefix)]
    txs = [make_transaction("x", t, list(keys))
           for t in times for keys in key_sets]
    for block1, block2 in product(small("a"), small("b")):
        for tx in txs:
            yield EstimationInstance(block1, block2, tx)


# property -> (times, key_sets, max_base) -> every instance of the domain
INSTANCES = {**{prop: partial(_pairs, REGISTRY[prop].instance)
                for prop in PAIR_PROPERTIES},
             "set_inclusion": _inclusions, "efficiency": _efficiencies,
             "easy_gas_estimation": _estimations}


def check_properties(props, times=PAIR_TIMES, key_sets=PAIR_KEY_SETS,
                     max_base=PAIR_MAX_BASE,
                     threads=PAIR_THREADS) -> PropertyReport:
    expected = load_expected_matrix()["rows"]
    envs = {n: PricingEnv(scheduler_cfg=SchedulerConfig(threads=n))
            for n in threads}
    checks = 0
    violations = []
    for prop in props:
        mechs = [mech for mech, row in expected.items() if row[prop] != "x"]
        for inst in INSTANCES[prop](times, key_sets, max_base):
            for n, env in envs.items():
                for mech in mechs:
                    try:
                        outcome = check_property(prop, mech, inst, env)
                    except MalformedInstance:
                        break  # the premise fails for every mechanism
                    checks += 1
                    if outcome.verdict == VIOLATED:
                        violations.append((prop, mech, n, outcome.witness))
    return PropertyReport(checks, tuple(violations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--properties", nargs="*", choices=PROPERTIES,
                        help="check these properties (all when none is "
                        "named), not the tables")
    parser.add_argument("--times", type=int, nargs="+")
    parser.add_argument("--keys", nargs="+",
                        help="key sets, each as its one-letter keys")
    parser.add_argument("--max-txs", type=int,
                        help="transactions of a block, or of a base "
                        "and of a superset")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if args.properties is not None:
        report = check_properties(
            args.properties or PROPERTIES, args.times or HAND_TIMES,
            args.keys or PAIR_KEY_SETS,
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
