"""Gas computation mechanisms behind one uniform interface.

``gas(block, tx, mechanism, env)`` returns the exact rational amount of gas
charged to ``tx`` when the block ``block`` is executed.  The mechanisms
differ only in what they read: ``constant`` charges one unit, ``current``
and ``weighted_area`` read the transaction (and the ``PricingEnv``'s
weights), TPM, ESM and XSM read v(T) from the env's makespan oracle, and
Shapley and Banzhaf read the block's 2^|T| subset-value table.  Both come
from the scheduler, which alone checks the instance cap and keeps the exact
answers of a block: ``PricingEnv.vtable_for`` is a call to
``scheduler.kept_table``, which returns the table kept with the block at the
env's thread count or fills and keeps it.  The prices derived from a table
are cached on it, so a block is filled once however many mechanisms or envs
price it, and tables and prices are freed with the block.

Coalition sums.  With v the table's scaled values and w_s = s!(n - s - 1)!
(w_n = 0), the Shapley price of i is A_i - B over n! scale, where
  A_i = sum over U with i of (w_(|U|-1) + w_|U|) v(U),
  B   = sum over U of w_|U| v(U),
since it is the sum over S without i of w_|S| (v(S + i) - v(S)), each set
U with i is S + i for exactly one S without i, and the sets without i are
all sets less those with i.  The Shapley prices sum to v(T) (v of the
empty set is 0), so n B = sum over i of A_i - n! v(T).  In the same way the
raw Banzhaf price of i is 2 sum over U with i of v(U) - sum over U of v(U),
over 2^(n-1) scale.  ``_block_prices`` takes the sums over the U with i
from the finished table, for every i at once, by halving folds: the upper
half of a list indexed by mask holds the sets with its top bit, and adding
it to the lower half leaves a list of half the length whose upper half
holds the next bit.  The folds run on ``FOLD_MASKS`` masks at a time, so
their temporary lists do not grow with the table, and add with
``map(operator.add, ...)``, so the additions run in C; a bit above the
chunk gets the sum of every chunk whose masks hold it.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, mul
from typing import NamedTuple

from .core import Transaction, TxSet, WeightTable
from .scheduler import (SchedulerConfig, SubsetValueTable, ValueOracle,
                        kept_table)


class TxNotInSet(ValueError):
    pass


class BlockPrices(NamedTuple):
    """Shapley and raw Banzhaf prices of every transaction of a block."""
    shapley: dict
    banzhaf: dict
    banzhaf_total: Fraction


FOLD_MASKS = 1 << 12  # masks a fold takes at a time


def _fold_into(sums: list, fold: list, base: int, low: int) -> int:
    """Add to ``sums[bit]`` the values of ``fold`` whose masks hold that
    bit, where ``fold`` holds the values of the 2^low masks from ``base``
    on, and return their total."""
    for bit in reversed(range(low)):
        half = len(fold) >> 1
        upper = fold[half:]
        sums[bit] += sum(upper)
        fold = list(map(add, fold[:half], upper))
    total = fold[0]
    for bit in range(low, len(sums)):
        if base >> bit & 1:
            sums[bit] += total
    return total


def _price_numerators(scaled: list, n: int) -> tuple[list, list]:
    """Per transaction, the integer Shapley numerator over n! scale and
    the raw Banzhaf one over 2^(n-1) scale, from the scaled values of an
    n-transaction table; see the module docstring."""
    w = [factorial(s) * factorial(n - s - 1) for s in range(n)] + [0]
    coeff = [0] + [w[s - 1] + w[s] for s in range(1, n + 1)]  # of A, by |U|
    a, with_v = [0] * n, [0] * n  # A_i, and the sum of v(U) over U with i
    all_v = 0
    span = min(1 << n, FOLD_MASKS)
    low = span.bit_length() - 1  # the bits a chunk's masks vary in
    for base in range(0, 1 << n, span):
        chunk = scaled[base:base + span]
        all_v += _fold_into(with_v, chunk, base, low)
        sizes = map(int.bit_count, range(base, base + span))
        _fold_into(a, list(map(mul, map(coeff.__getitem__, sizes), chunk)),
                   base, low)
    b = (sum(a) - factorial(n) * scaled[-1]) // n if n else 0
    return [m - b for m in a], [2 * m - all_v for m in with_v]


def _block_prices(vtable: SubsetValueTable) -> BlockPrices:
    """Shapley and raw Banzhaf prices of the whole block, cached on the
    table: the numerators of ``_price_numerators`` over n! and 2^(n-1)
    times the table's scale."""
    if vtable.prices is not None:
        return vtable.prices
    n = len(vtable.ids)
    shapley_nums, banzhaf_nums = _price_numerators(vtable.scaled, n)
    shapley_den = factorial(n) * vtable.scale
    banzhaf_den = (1 << max(n - 1, 0)) * vtable.scale
    vtable.prices = BlockPrices(
        {tx_id: Fraction(m, shapley_den)
         for tx_id, m in zip(vtable.ids, shapley_nums)},
        {tx_id: Fraction(m, banzhaf_den)
         for tx_id, m in zip(vtable.ids, banzhaf_nums)},
        Fraction(sum(banzhaf_nums), banzhaf_den))
    return vtable.prices


def _banzhaf_normalized(block: TxSet, tx: Transaction,
                        env: PricingEnv) -> Fraction:
    # The raw total of a block that holds tx includes v({tx}) = t > 0.
    vtable = env.vtable_for(block)
    prices = _block_prices(vtable)
    v_block = Fraction(vtable.scaled[-1], vtable.scale)  # last mask: all of T
    return prices.banzhaf[tx.tx_id] * v_block / prices.banzhaf_total


# mechanism -> (block, tx, env) -> gas, in presentation order.
_GAS = {
    "current": lambda block, tx, env: tx.time,
    "weighted_area": lambda block, tx, env: tx.time * sum(
        (env.weights.get(k) for k in tx.keys), Fraction(1)),
    "shapley": lambda block, tx, env:
        _block_prices(env.vtable_for(block)).shapley[tx.tx_id],
    "banzhaf": lambda block, tx, env:
        _block_prices(env.vtable_for(block)).banzhaf[tx.tx_id],
    "banzhaf_normalized": _banzhaf_normalized,
    "tpm": lambda block, tx, env:
        tx.time / block.total_time() * env.value(block),
    "esm": lambda block, tx, env: env.value(block) / len(block),
    "xsm": lambda block, tx, env: env.value(block) / 3 ** len(block),
    "constant": lambda block, tx, env: Fraction(1),
}

MECHANISMS = tuple(_GAS)

# Mechanisms in the main property comparison (in presentation order).
TABLE_MECHANISMS = ("current", "weighted_area", "shapley", "banzhaf",
                    "tpm", "esm", "xsm")


def gas(block: TxSet, tx: Transaction, mechanism: str,
        env: PricingEnv) -> Fraction:
    price = _GAS.get(mechanism)
    if price is None:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if tx not in block:
        raise TxNotInSet(f"transaction {tx.tx_id!r} is not in the block")
    return price(block, tx, env)


class PricingEnv:
    """The pricing environment: weights, the scheduler config and a
    makespan oracle, reused across many blocks (property checks price
    thousands of closely related blocks)."""

    def __init__(self, weights: WeightTable | None = None,
                 scheduler_cfg: SchedulerConfig | None = None):
        self.weights = weights or WeightTable()
        self.scheduler_cfg = scheduler_cfg or SchedulerConfig()
        self.oracle = ValueOracle(self.scheduler_cfg)

    def vtable_for(self, block: TxSet) -> SubsetValueTable:
        """The block's subset-value table at this env's thread count: the
        scheduler's kept table, filled on first use."""
        return kept_table(block, self.scheduler_cfg)

    def gas(self, block: TxSet, tx: Transaction, mechanism: str) -> Fraction:
        return gas(block, tx, mechanism, self)

    def block_gas(self, block: TxSet, subset: TxSet,
                  mechanism: str) -> Fraction:
        """Total gas of the transactions in ``subset`` within ``block``;
        ``gas`` refuses one that is not in the block."""
        return sum((gas(block, tx, mechanism, self) for tx in subset),
                   Fraction(0))

    def value(self, block: TxSet) -> Fraction:
        return self.oracle.value(block)
