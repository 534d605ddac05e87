"""Gas computation mechanisms behind one uniform interface.

``gas(block, tx, mechanism, env)`` returns the exact rational amount of gas
charged to ``tx`` when the block ``block`` is executed.  The ``PricingEnv``
holds everything a mechanism reads besides the block: the key weights, the
constant, the scheduler config, a makespan oracle and the block's
subset-value table, which only Shapley and Banzhaf pricing build; TPM, ESM
and XSM read v(T) from the oracle.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .core import Transaction, TxSet, WeightTable
from .scheduler import (SchedulerConfig, SubsetValueTable, ValueOracle,
                        subset_value_table)

MECHANISMS = ("current", "weighted_area", "shapley", "banzhaf",
              "banzhaf_normalized", "tpm", "esm", "xsm", "constant")

# Mechanisms in the main property comparison (in presentation order).
TABLE_MECHANISMS = ("current", "weighted_area", "shapley", "banzhaf",
                    "tpm", "esm", "xsm")

# Mechanisms whose gas for a transaction never depends on the rest of the block.
EASY_ESTIMATION = frozenset({"current", "weighted_area", "constant"})


class TxNotInSet(ValueError):
    pass


class SubsetNotContained(ValueError):
    pass


class MissingVTable(ValueError):
    pass


class NormalizationUndefined(ValueError):
    pass


def _require_member(block: TxSet, tx: Transaction) -> None:
    if tx.tx_id not in block or block.get(tx.tx_id) != tx:
        raise TxNotInSet(f"transaction {tx.tx_id!r} is not in the block")


def gas_current(block: TxSet, tx: Transaction) -> Fraction:
    _require_member(block, tx)
    return tx.time


def gas_weighted_area(block: TxSet, tx: Transaction,
                      weights: WeightTable) -> Fraction:
    _require_member(block, tx)
    return tx.time * sum((weights.get(k) for k in tx.keys), Fraction(1))


def gas_constant(block: TxSet, tx: Transaction, constant: Fraction) -> Fraction:
    _require_member(block, tx)
    if constant <= 0:
        raise ValueError(f"constant must be > 0, got {constant}")
    return Fraction(constant)


class BlockPrices(NamedTuple):
    """Shapley and raw Banzhaf prices of every transaction of a block."""
    shapley: dict
    banzhaf: dict
    banzhaf_total: Fraction


def block_prices(block: TxSet, vtable: SubsetValueTable) -> BlockPrices:
    """Prices of the whole block from the integer marginal sums by
    coalition size, cached on the table.

    The sums are the ones ``subset_value_table`` records while it fills the
    table; a table without them (one built by hand) is refused.  Shapley
    weights size s by s!(n - s - 1)!/n!, Banzhaf weights every coalition by
    1/2^(n-1); both divide by the table's scale once at the end.
    """
    sums = vtable.marginal_sums
    if vtable.base != block or sums is None:
        raise MissingVTable("a subset-value table of the block from "
                            "subset_value_table is required")
    if vtable.prices is not None:
        return vtable.prices
    n = len(block)
    weights = [factorial(s) * factorial(n - s - 1) for s in range(n)]
    shapley_den = factorial(n) * vtable.scale
    banzhaf_den = (1 << max(n - 1, 0)) * vtable.scale
    shapley, banzhaf = {}, {}
    for tx, by_size in zip(block, sums):
        shapley[tx.tx_id] = Fraction(
            sum(w * m for w, m in zip(weights, by_size)), shapley_den)
        banzhaf[tx.tx_id] = Fraction(sum(by_size), banzhaf_den)
    vtable.prices = BlockPrices(
        shapley, banzhaf, Fraction(sum(map(sum, sums)), banzhaf_den))
    return vtable.prices


def gas_shapley(block: TxSet, tx: Transaction,
                vtable: SubsetValueTable) -> Fraction:
    _require_member(block, tx)
    return block_prices(block, vtable).shapley[tx.tx_id]


def gas_banzhaf(block: TxSet, tx: Transaction, vtable: SubsetValueTable,
                normalized: bool = False) -> Fraction:
    _require_member(block, tx)
    prices = block_prices(block, vtable)
    raw = prices.banzhaf[tx.tx_id]
    if not normalized:
        return raw
    v_block = vtable.value(block.ids)
    if prices.banzhaf_total == 0:
        if v_block == 0:
            return raw
        raise NormalizationUndefined(
            "raw Banzhaf total is 0 but v(T) > 0")
    return raw * v_block / prices.banzhaf_total


def gas_tpm(block: TxSet, tx: Transaction, v_block: Fraction) -> Fraction:
    _require_member(block, tx)
    return tx.time / block.total_time() * v_block


def gas_esm(block: TxSet, tx: Transaction, v_block: Fraction) -> Fraction:
    _require_member(block, tx)
    return v_block / len(block)


def gas_xsm(block: TxSet, tx: Transaction, v_block: Fraction) -> Fraction:
    _require_member(block, tx)
    return v_block / 3 ** len(block)


def gas(block: TxSet, tx: Transaction, mechanism: str,
        env: PricingEnv) -> Fraction:
    if mechanism == "current":
        return gas_current(block, tx)
    if mechanism == "weighted_area":
        return gas_weighted_area(block, tx, env.weights)
    if mechanism == "constant":
        return gas_constant(block, tx, env.constant)
    if mechanism == "shapley":
        return gas_shapley(block, tx, env.vtable_for(block))
    if mechanism in ("banzhaf", "banzhaf_normalized"):
        return gas_banzhaf(block, tx, env.vtable_for(block),
                           normalized=mechanism == "banzhaf_normalized")
    v_block = env.value(block)
    if mechanism == "tpm":
        return gas_tpm(block, tx, v_block)
    if mechanism == "esm":
        return gas_esm(block, tx, v_block)
    if mechanism == "xsm":
        return gas_xsm(block, tx, v_block)
    raise ValueError(f"unknown mechanism {mechanism!r}")


class PricingEnv:
    """The pricing environment: weights, the constant, the scheduler config,
    a makespan oracle and the blocks' subset-value tables, reused across
    many blocks (property checks price thousands of closely related
    blocks)."""

    def __init__(self, weights: WeightTable | None = None,
                 scheduler_cfg: SchedulerConfig | None = None,
                 constant: Fraction = Fraction(1)):
        self.weights = weights or WeightTable()
        self.scheduler_cfg = scheduler_cfg or SchedulerConfig()
        self.constant = constant
        self.oracle = ValueOracle(self.scheduler_cfg)
        self._vtables: dict[TxSet, SubsetValueTable] = {}

    def vtable_for(self, block: TxSet) -> SubsetValueTable:
        cached = self._vtables.get(block)
        if cached is not None:
            return cached
        vtable = subset_value_table(block, self.scheduler_cfg)
        if len(self._vtables) > 4096:  # blocks rarely repeat across trials
            self._vtables.clear()
        self._vtables[block] = vtable
        return vtable

    def gas(self, block: TxSet, tx: Transaction, mechanism: str) -> Fraction:
        return gas(block, tx, mechanism, self)

    def block_gas(self, block: TxSet, subset: TxSet,
                  mechanism: str) -> Fraction:
        """Total gas of the transactions in ``subset`` within ``block``."""
        for tx in subset:
            if tx.tx_id not in block or block.get(tx.tx_id) != tx:
                raise SubsetNotContained(
                    f"transaction {tx.tx_id!r} is not in the block")
        return sum((gas(block, tx, mechanism, self) for tx in subset),
                   Fraction(0))

    def value(self, block: TxSet) -> Fraction:
        return self.oracle.value(block)
