"""Bounded-exhaustive check of subset tables and prices, used by the tests.

Every multiset block of 1 to ``max_txs`` transactions over a small domain
of shapes (a time and a key set) is built, at each thread count.  Every
entry of the block's subset table must equal ``exhaustive_makespan`` of
that subset, and every Shapley and raw Banzhaf price must equal the one
``exhaustive.py`` computes from the definitions.  The makespan of a subset
depends only on the multiset of its shapes, so each multiset is enumerated
once per thread count.

Run by hand on a larger domain, from the repository root:

    PYTHONPATH=src python3 tests/bounded.py --times 1 2 3 --keys a b ab
    PYTHONPATH=src python3 tests/bounded.py --max-txs 5

A key set is written as its one-letter keys (``ab`` is {a, b}).  The exit
code is 1 if any entry or price differs.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from paragas import (PricingEnv, SchedulerConfig, TxSet, make_transaction,
                     subset_value_table)

from exhaustive import banzhaf, exhaustive_makespan, shapley_subset

TIMES = (1, 2)
KEY_SETS = ("a", "b", "ab", "c")
MAX_TXS = 4
THREADS = (2, 3, None)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--times", type=int, nargs="+", default=TIMES)
    parser.add_argument("--keys", nargs="+", default=KEY_SETS,
                        help="key sets, each as its one-letter keys")
    parser.add_argument("--max-txs", type=int, default=MAX_TXS)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    report = check_bounded(args.times, args.keys, args.max_txs)
    took = time.perf_counter() - began
    print(f"{report.pairs} block-thread pairs, {report.entries} entries, "
          f"{report.prices} prices, {len(report.mismatches)} mismatches "
          f"in {took:.1f} s")
    for mismatch in report.mismatches[:20]:
        print(*mismatch)
    return 1 if report.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
