"""A minimal posted-price fee market on top of a gas computation mechanism.

Users submit bids (a transaction plus a maximum price per gas unit), blocks
are built greedily under a gas limit, everyone included pays gas * base_fee,
and the base fee adjusts toward a gas target after every block.

The base fee lives on a grid of ``BASE_FEE_GRID`` units per price unit and
moves by EIP-1559's integer rule (https://eips.ethereum.org/EIPS/eip-1559),
so it stays a rational with a denominator dividing the grid however long
the run.  A starting fee off the grid is taken as given and lands on the
grid at its first update; one below ``min_base_fee`` is refused.

For mechanisms whose gas depends on the rest of the block, the declared gas
of a bid is an estimate (the transaction priced alone in an otherwise empty
block) and the real gas is recomputed once on the final included set.  No
fixed point is attempted; the per-transaction gap between estimate and final
gas is ``BlockResult.per_tx_gap``, which no command prints.  The estimate
never understates the final total, so the gas limit still binds.

``build_block`` packs on exact integers: ``core.over_lcm`` scales the base
fee and the bids' prices to one common denominator, the gas limit and the
declared gases to another, so the eligibility filter, the price sort and
the packing loop compare and subtract ints, and ``gas_used`` is one integer
sum over the lcm of the final gases' denominators.  A result keeps its
chosen bids and their final gases; ``per_tx_fee`` and ``per_tx_gap`` are
computed from them when read, since no command prints them.

``simulate`` is a generator: it yields each block as it is built and keeps
none of them, so the memory of a run does not grow with its length.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import itemgetter

from .core import (MalformedDocument, Transaction, TxSet, echo,
                   format_rational, json_object, load_json, over_lcm,
                   to_rational)
from .gcm import PricingEnv
from .sampling import draw_keys, rng_for
from .scheduler import InstanceTooLarge


@dataclass(frozen=True)
class Bid:
    tx: Transaction
    max_price_per_gas: Fraction
    declared_gas: Fraction

    def __post_init__(self):
        # A rational's sign is its numerator's: compare ints, not Fractions.
        if self.max_price_per_gas.numerator < 0:
            raise ValueError("max_price_per_gas must be >= 0")
        if self.declared_gas.numerator <= 0:
            raise ValueError("declared_gas must be > 0")


def make_bid(tx: Transaction, max_price_per_gas, mech: str,
             env: PricingEnv) -> Bid:
    """Bid with the declared gas set to the single-transaction estimate."""
    declared = env.gas(TxSet._sorted((tx,)), tx, mech)
    return Bid(tx, to_rational(max_price_per_gas), declared)


class BaseFeeBelowFloor(ValueError):
    """A base fee under ``min_base_fee``, which no update could reach."""


@dataclass(frozen=True)
class BaseFeeState:
    base_fee: Fraction = Fraction(1)
    target_gas: Fraction = Fraction(10)
    adjustment_denominator: int = 8
    min_base_fee = Fraction(1, 1000)  # a constant, not a field

    def __post_init__(self):
        if self.base_fee <= 0 or self.target_gas <= 0:
            raise ValueError("base_fee and target_gas must be > 0")
        if self.adjustment_denominator < 1:
            raise ValueError("adjustment_denominator must be >= 1")
        if self.base_fee < self.min_base_fee:
            raise BaseFeeBelowFloor(
                f"base fee {format_rational(self.base_fee)} is below the "
                f"minimum base fee {format_rational(self.min_base_fee)}")


BASE_FEE_GRID = 10**9  # base-fee units per price unit (wei per gwei)


def base_fee_update(state: BaseFeeState, gas_used: Fraction) -> BaseFeeState:
    """EIP-1559 step on the grid.  With u = floor(base_fee * BASE_FEE_GRID)
    units, d = gas_used - target and D = target * adjustment_denominator,
    the fee becomes u + max(floor(u*d/D), 1) units above the target and
    u - floor(u*|d|/D) units below it, but never less than ``min_base_fee``;
    at the target the state is returned unchanged."""
    fee, target = state.base_fee, state.target_gas
    # u*d/D = u * num / den, with target's denominator cancelled out.
    num = gas_used.numerator * target.denominator \
        - target.numerator * gas_used.denominator
    if num == 0:
        return state
    units = fee.numerator * BASE_FEE_GRID // fee.denominator
    den = gas_used.denominator * target.numerator \
        * state.adjustment_denominator
    if num > 0:
        units += max(units * num // den, 1)
    else:
        units -= units * -num // den
    return replace(state, base_fee=max(Fraction(units, BASE_FEE_GRID),
                                       state.min_base_fee))


@dataclass(frozen=True)
class BlockResult:
    """One built block.  Fees and gaps are not kept: ``per_tx_fee`` and
    ``per_tx_gap`` compute them from the final gases when read."""
    included: TxSet
    chosen: tuple         # the included bids, in the order they were packed
    per_tx_gas: dict      # id -> final gas, in the same order
    gas_used: Fraction
    makespan: Fraction
    base_fee: Fraction

    @property
    def per_tx_fee(self) -> dict:
        """id -> gas * base_fee."""
        return {tx_id: g * self.base_fee
                for tx_id, g in self.per_tx_gas.items()}

    @property
    def per_tx_gap(self) -> dict:
        """id -> declared_gas - final gas."""
        return {b.tx.tx_id: b.declared_gas - self.per_tx_gas[b.tx.tx_id]
                for b in self.chosen}


def build_block(mempool: list, gas_limit: Fraction, mech: str,
                env: PricingEnv, state: BaseFeeState) -> BlockResult:
    if gas_limit.numerator <= 0:
        raise ValueError("gas_limit must be > 0")
    # The base fee and the prices over one denominator, the gas limit and
    # the declared gases over another: filter, sort and packing read ints.
    (floor, *prices), _ = over_lcm(
        [state.base_fee, *[b.max_price_per_gas for b in mempool]])
    eligible = [(p, b) for p, b in zip(prices, mempool) if p >= floor]
    # Highest price first, ties by id: two stable sorts, no negated keys.
    eligible.sort(key=lambda pb: pb[1].tx.tx_id)
    eligible.sort(key=itemgetter(0), reverse=True)
    (room, *gases), _ = over_lcm(
        [gas_limit, *[b.declared_gas for _, b in eligible]])
    chosen = []
    for gas, (_, bid) in zip(gases, eligible):
        if gas <= room:
            chosen.append(bid)
            room -= gas
    included = TxSet(b.tx for b in chosen)
    gas_map = {b.tx.tx_id: env.gas(included, b.tx, mech) for b in chosen}
    used, den = over_lcm(gas_map.values())
    return BlockResult(included, tuple(chosen), gas_map,
                       Fraction(sum(used), den), env.value(included),
                       state.base_fee)


# ---------------------------------------------------------------------------
# Seeded workload generation and simulation


def _is_int(value, low: int | None = None) -> bool:
    return type(value) is int and (low is None or value >= low)


def _is_int_range(value, low: int) -> bool:
    """Whether ``value`` is a pair of integers lo <= hi with lo >= low."""
    return (isinstance(value, tuple) and len(value) == 2
            and _is_int(value[0], low) and _is_int(value[1], value[0]))


MAX_BIDS_PER_BLOCK = 10_000
MAX_KEYS_PER_TX = 64
MAX_KEY_POOL = sys.maxsize  # draw_keys takes the len() of the pool's range


@dataclass(frozen=True)
class WorkloadConfig:
    """Bid stream parameters: integer counts >= 1, at most
    ``MAX_BIDS_PER_BLOCK`` bids per block, at most ``MAX_KEY_POOL`` keys in
    the pool, at most ``key_pool`` and at most ``MAX_KEYS_PER_TX`` keys per
    transaction, integer ranges of times (lo >= 1) and of price numerators
    (lo >= 0)."""

    seed: int = 0
    bids_per_block: int = 8
    time_range: tuple[int, int] = (1, 4)
    key_pool: int = 5
    max_keys_per_tx: int = 2
    price_range: tuple[int, int] = (1, 4)  # numerators over price_denominator
    price_denominator: int = 2

    def __post_init__(self):
        checks = {
            "seed": _is_int(self.seed),
            "bids_per_block": _is_int(self.bids_per_block, 1)
            and self.bids_per_block <= MAX_BIDS_PER_BLOCK,
            "time_range": _is_int_range(self.time_range, 1),
            "key_pool": _is_int(self.key_pool, 1)
            and self.key_pool <= MAX_KEY_POOL,
            "max_keys_per_tx": _is_int(self.max_keys_per_tx, 1)
            and self.max_keys_per_tx <= MAX_KEYS_PER_TX
            and _is_int(self.key_pool, self.max_keys_per_tx),
            "price_range": _is_int_range(self.price_range, 0),
            "price_denominator": _is_int(self.price_denominator, 1),
        }
        bad = [f"{name}={echo(getattr(self, name))}"
               for name, ok in checks.items() if not ok]
        if bad:
            raise MalformedDocument(f"bad workload fields: {', '.join(bad)}")

    @classmethod
    def from_json(cls, text: str) -> "WorkloadConfig":
        kwargs = dict(json_object(load_json(text), "workload",
                                  [f.name for f in fields(cls)]))
        for name in ("time_range", "price_range"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def workload(cfg: WorkloadConfig, blocks: int, mech: str, env: PricingEnv):
    """Deterministic bid stream: one list of bids per block."""
    rng = rng_for(cfg, "workload")
    for block_index in range(blocks):
        bids = []
        for i in range(cfg.bids_per_block):
            keys = draw_keys(rng, cfg.key_pool,
                             rng.randint(1, cfg.max_keys_per_tx))
            tx = Transaction(f"b{block_index}_{i}",
                             Fraction(rng.randint(*cfg.time_range)), keys)
            price = Fraction(rng.randint(*cfg.price_range),
                             cfg.price_denominator)
            bids.append(make_bid(tx, price, mech, env))
        yield bids


def simulate(mempools, mech: str, env: PricingEnv, state0: BaseFeeState,
             gas_limit: Fraction):
    """Build one block per mempool and yield ``(result, state)``: the
    block's BlockResult and the base-fee state after it.  Nothing is kept
    from one block to the next.  A block over the instance cap is named in
    the error: every block's makespan is exact, whatever the mechanism."""
    state = state0
    for index, mempool in enumerate(mempools):
        try:
            result = build_block(mempool, gas_limit, mech, env, state)
        except InstanceTooLarge as exc:
            raise InstanceTooLarge(
                f"block {index}: {exc}; the makespan column needs the exact "
                f"v(T) of every block") from None
        state = base_fee_update(state, result.gas_used)
        yield result, state
