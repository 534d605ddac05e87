"""Independent reference implementations used only by the tests.

The makespan oracle here enumerates every active schedule with no pruning,
no bounds and no greedy incumbent, so it shares no shortcuts with the
library's branch-and-bound search.  The pricing oracles compute one
transaction at a time straight from the definitions, reading v(S) through
``table_value`` in exact rationals, where the library prices a whole block
by folding the finished table's integer values.  The marginal-sum sweep
sums the marginals of the table by coalition size.  The
schedule validator compares every pair of transactions and counts the
running ones at every start, where the library sweeps sorted intervals.
The block packer compares and adds plain Fractions and orders bids by one
sort on (-price, id), where the library packs on integers over common
denominators with two stable sorts.
"""
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from paragas import TxSet, gas
from paragas.scheduler import ValidityReport, Violation


def exhaustive_makespan(txs: TxSet, threads) -> Fraction:
    """Minimum makespan by brute force over all active schedules.

    ``threads`` is an int >= 2 or None for unbounded.
    """
    txs = list(txs)
    if not txs:
        return Fraction(0)
    best = [sum((tx.time for tx in txs), Fraction(0))]  # serial upper bound

    def explore(clock, running, remaining):
        # running: list of (end_time, tx)
        if not remaining:
            reached = max([clock] + [end for end, _ in running])
            if reached < best[0]:
                best[0] = reached
            return
        locked = set()
        for _, tx in running:
            locked |= tx.keys
        eligible = [tx for tx in remaining if not (tx.keys & locked)]
        room = len(eligible) if threads is None \
            else min(len(eligible), threads - len(running))
        for size in range(room + 1):
            for combo in combinations(eligible, size):
                keys = set()
                ok = True
                for tx in combo:
                    if tx.keys & keys:
                        ok = False
                        break
                    keys |= tx.keys
                if not ok:
                    continue
                if size == 0 and not running:
                    continue
                new_running = running + [(clock + tx.time, tx) for tx in combo]
                new_remaining = [tx for tx in remaining if tx not in combo]
                if not new_remaining:
                    explore(clock, new_running, new_remaining)
                    continue
                next_clock = min(end for end, _ in new_running)
                explore(next_clock,
                        [(e, tx) for e, tx in new_running if e > next_clock],
                        new_remaining)

    explore(Fraction(0), [], txs)
    return best[0]


def table_value(vtable, ids) -> Fraction:
    """v(S) of the subset of ids ``ids``, read from a SubsetValueTable,
    whose bit i of a mask stands for ``vtable.ids[i]``."""
    mask = sum(1 << vtable.ids.index(tx_id) for tx_id in ids)
    return Fraction(vtable.scaled[mask], vtable.scale)


def _coalitions(block, tx):
    """Every subset of the block without ``tx``, as frozensets of ids."""
    others = sorted(block.ids - {tx.tx_id})
    for mask in range(1 << len(others)):
        yield frozenset(others[i] for i in range(len(others))
                        if mask >> i & 1)


def shapley_subset(block, tx, vtable) -> Fraction:
    """Shapley value as the size-weighted sum of marginals over coalitions."""
    n = len(block)
    total = Fraction(0)
    for chosen in _coalitions(block, tx):
        marginal = table_value(vtable, chosen | {tx.tx_id}) \
            - table_value(vtable, chosen)
        total += Fraction(factorial(len(chosen))
                          * factorial(n - len(chosen) - 1),
                          factorial(n)) * marginal
    return total


def shapley_permutation(block, tx, vtable) -> Fraction:
    """Shapley value as the mean marginal over all n! arrival orders."""
    total = Fraction(0)
    for order in permutations(sorted(block.ids)):
        preceding = frozenset(order[:order.index(tx.tx_id)])
        total += (table_value(vtable, preceding | {tx.tx_id})
                  - table_value(vtable, preceding))
    return total / factorial(len(block))


def banzhaf(block, tx, vtable, normalized=False) -> Fraction:
    """Raw Banzhaf value (mean marginal over coalitions), or its share of
    v(T) scaled so the block's prices sum to v(T)."""
    raw = sum((table_value(vtable, chosen | {tx.tx_id})
               - table_value(vtable, chosen)
               for chosen in _coalitions(block, tx)), Fraction(0)) \
        / 2 ** (len(block) - 1)
    if not normalized:
        return raw
    raw_total = sum((banzhaf(block, other, vtable) for other in block),
                    Fraction(0))
    v_block = table_value(vtable, block.ids)
    return raw if raw_total == 0 else raw * v_block / raw_total


class NonMonotoneValue(ValueError):
    """A marginal contribution v(S + i) - v(S) is negative."""


def marginal_sums(block, v) -> list:
    """sums[i][s]: the integer marginals v(S + i) - v(S) over the
    coalitions S of size s without i, by one sweep over the scaled table
    ``v`` (bit i is the i-th transaction of ``block``), which must be
    monotone."""
    n = len(block)
    sums = [[0] * n for _ in range(n)]
    full = (1 << n) - 1
    for mask in range(full + 1):
        size = mask.bit_count()
        here = v[mask]
        free = full ^ mask
        while free:
            bit = free & -free
            free ^= bit
            marginal = v[mask | bit] - here
            i = bit.bit_length() - 1
            if marginal < 0:
                raise NonMonotoneValue(
                    f"marginal of {block.txs[i].tx_id!r} to a coalition of "
                    f"{size} is negative: v is not monotone")
            sums[i][size] += marginal
    return sums


def quadratic_validate_schedule(schedule, txs: TxSet, cfg) -> ValidityReport:
    """``validate_schedule`` by pairwise comparison: the same violations in
    the same order, in O(n^2) time."""
    violations = []
    for tx in txs:
        if tx.tx_id not in schedule.starts:
            violations.append(Violation("missing-tx", tx.tx_id))
    for tx_id in schedule.starts:
        if tx_id not in txs:
            violations.append(Violation("unknown-tx", tx_id))
    if violations:
        return ValidityReport(False, tuple(violations))

    items = [(tx, schedule.starts[tx.tx_id]) for tx in txs]
    # Conflict exclusion: shared keys require disjoint open intervals.
    for i, (tx1, s1) in enumerate(items):
        for tx2, s2 in items[i + 1:]:
            if tx1.keys & tx2.keys:
                if s1 < s2 + tx2.time and s2 < s1 + tx1.time:
                    violations.append(Violation(
                        "conflict-overlap", f"{tx1.tx_id},{tx2.tx_id}"))
    # Concurrency cap: sweep over start instants.
    if cfg.threads is not None:
        for tx, start in items:
            running = sum(1 for other, s in items
                          if s <= start < s + other.time)
            if running > cfg.threads:
                violations.append(Violation(
                    "concurrency-exceeded", f"t={start} running={running}"))
                break
    return ValidityReport(not violations, tuple(violations))


def fraction_block(mempool, gas_limit, mech, env, state) -> tuple:
    """``build_block`` on plain Fractions: the chosen bids in packing
    order, and per transaction the final gas, the fee and the gap between
    declared and final gas, and the block's gas used."""
    eligible = sorted((b for b in mempool
                       if b.max_price_per_gas >= state.base_fee),
                      key=lambda b: (-b.max_price_per_gas, b.tx.tx_id))
    chosen, total = [], Fraction(0)
    for bid in eligible:
        if total + bid.declared_gas <= gas_limit:
            chosen.append(bid)
            total += bid.declared_gas
    included = TxSet(b.tx for b in chosen)
    gases = {b.tx.tx_id: gas(included, b.tx, mech, env) for b in chosen}
    fees = {tx_id: g * state.base_fee for tx_id, g in gases.items()}
    gaps = {b.tx.tx_id: b.declared_gas - gases[b.tx.tx_id] for b in chosen}
    return (tuple(chosen), gases, fees, gaps,
            sum(gases.values(), Fraction(0)))
