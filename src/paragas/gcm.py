"""Gas computation mechanisms behind one uniform interface.

``gas(block, tx, mechanism, env)`` returns the exact rational amount of gas
charged to ``tx`` when the block ``block`` is executed.  The mechanisms
differ only in what they read: ``current``, ``weighted_area`` and
``constant`` read the transaction (and the ``PricingEnv``'s weights or
constant), TPM, ESM and XSM read v(T) from the env's makespan oracle, and
Shapley and Banzhaf read the block's 2^|T| subset-value table.  That table,
and the prices derived from it, are kept with the block's compiled form, one
per thread count, so a block is filled once however many mechanisms or envs
price it, and both are freed with the block.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .core import Transaction, TxSet, WeightTable
from .scheduler import (SchedulerConfig, SubsetValueTable, ValueOracle,
                        compiled, subset_value_table)


class TxNotInSet(ValueError):
    pass


class SubsetNotContained(ValueError):
    pass


class BlockPrices(NamedTuple):
    """Shapley and raw Banzhaf prices of every transaction of a block."""
    shapley: dict
    banzhaf: dict
    banzhaf_total: Fraction


def _block_prices(vtable: SubsetValueTable) -> BlockPrices:
    """Prices of the whole block from the integer marginal sums by
    coalition size that ``subset_value_table`` records while it fills the
    table, cached on the table.  Shapley weights size s by
    s!(n - s - 1)!/n!, Banzhaf weights every coalition by 1/2^(n-1); both
    divide by the table's scale once at the end."""
    if vtable.prices is not None:
        return vtable.prices
    sums, n = vtable.marginal_sums, len(vtable.ids)
    weights = [factorial(s) * factorial(n - s - 1) for s in range(n)]
    shapley_den = factorial(n) * vtable.scale
    banzhaf_den = (1 << max(n - 1, 0)) * vtable.scale
    shapley, banzhaf = {}, {}
    for tx_id, by_size in zip(vtable.ids, sums):
        shapley[tx_id] = Fraction(
            sum(w * m for w, m in zip(weights, by_size)), shapley_den)
        banzhaf[tx_id] = Fraction(sum(by_size), banzhaf_den)
    vtable.prices = BlockPrices(
        shapley, banzhaf, Fraction(sum(map(sum, sums)), banzhaf_den))
    return vtable.prices


def _banzhaf_normalized(block: TxSet, tx: Transaction,
                        env: PricingEnv) -> Fraction:
    # The raw total of a block that holds tx includes v({tx}) = t > 0.
    vtable = env.vtable_for(block)
    prices = _block_prices(vtable)
    return prices.banzhaf[tx.tx_id] * vtable.value(block.ids) \
        / prices.banzhaf_total


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
    "constant": lambda block, tx, env: env.constant,
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
    """The pricing environment: weights, the constant (> 0), the scheduler
    config and a makespan oracle, reused across many blocks (property
    checks price thousands of closely related blocks)."""

    def __init__(self, weights: WeightTable | None = None,
                 scheduler_cfg: SchedulerConfig | None = None,
                 constant: Fraction = Fraction(1)):
        if constant <= 0:
            raise ValueError(f"constant must be > 0, got {constant}")
        self.weights = weights or WeightTable()
        self.scheduler_cfg = scheduler_cfg or SchedulerConfig()
        self.constant = Fraction(constant)
        self.oracle = ValueOracle(self.scheduler_cfg)

    def vtable_for(self, block: TxSet) -> SubsetValueTable:
        """The block's subset-value table at this env's thread count, from
        its compiled form when a table is already kept there."""
        cfg = self.scheduler_cfg
        vtable = compiled(block).tables.get(cfg.threads)
        if vtable is None or len(block) > cfg.instance_cap:
            vtable = subset_value_table(block, cfg)  # refuses |T| > cap
        return vtable

    def gas(self, block: TxSet, tx: Transaction, mechanism: str) -> Fraction:
        return gas(block, tx, mechanism, self)

    def block_gas(self, block: TxSet, subset: TxSet,
                  mechanism: str) -> Fraction:
        """Total gas of the transactions in ``subset`` within ``block``."""
        for tx in subset:
            if tx not in block:
                raise SubsetNotContained(
                    f"transaction {tx.tx_id!r} is not in the block")
        return sum((gas(block, tx, mechanism, self) for tx in subset),
                   Fraction(0))

    def value(self, block: TxSet) -> Fraction:
        return self.oracle.value(block)
