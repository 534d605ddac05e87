"""The scheduler axioms S1-S4 as a sampled check, used only by the tests."""
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from paragas import Transaction, TxSet, concatenate


def fresh_key(used: Iterable[str], prefix: str = "k") -> str:
    """Mint a storage key outside the given set (the key universe is unbounded)."""
    used = set(used)
    i = 0
    while f"{prefix}!{i}" in used:
        i += 1
    return f"{prefix}!{i}"


@dataclass(frozen=True)
class AxiomWitness:
    axiom: str
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    passed: bool
    witnesses: tuple[AxiomWitness, ...]


def check_scheduler_axioms(value_fn: Callable[[TxSet], Fraction],
                           sampler: Callable[[int], tuple[TxSet, Transaction, Transaction]],
                           trials: int) -> AxiomReport:
    """Checks S1 (monotone in T), S2 (monotone under bundling), S3 (monotone
    under the (t, K) preorder) and S4 (empty set) on sampled instances.

    ``sampler(i)`` must return a deterministic (T, tx1, tx2) with tx1, tx2
    not in T and distinct ids.
    """
    witnesses: list[AxiomWitness] = []
    if value_fn(TxSet()) != 0:
        witnesses.append(AxiomWitness("S4", "v(empty) != 0"))
    for i in range(trials):
        base, tx1, tx2 = sampler(i)
        with_tx1 = base.with_txs(tx1)
        with_both = base.with_txs(tx1, tx2)
        # S1: T subset T' implies v(T) <= v(T')
        if not (value_fn(base) <= value_fn(with_tx1) <= value_fn(with_both)):
            witnesses.append(AxiomWitness(
                "S1", f"trial {i}: v not monotone under set growth"))
            break
        # S2: bundling two transactions never makes scheduling easier
        bundle_id = "bundle!" + tx1.tx_id + "+" + tx2.tx_id
        tx3 = concatenate(tx1, tx2, bundle_id)
        if value_fn(with_both) > value_fn(base.with_txs(tx3)):
            witnesses.append(AxiomWitness(
                "S2", f"trial {i}: v({{tx1,tx2}}) > v({{concat}})"))
            break
        # S3: replace tx1 by a dominating transaction (same time or larger,
        # superset of keys) and v must not decrease.
        bigger = Transaction("big!" + tx1.tx_id, tx1.time + tx2.time,
                             tx1.keys | tx2.keys |
                             {fresh_key(base.all_keys() | tx1.keys | tx2.keys)})
        if value_fn(with_tx1) > value_fn(base.with_txs(bigger)):
            witnesses.append(AxiomWitness(
                "S3", f"trial {i}: v decreased under dominating replacement"))
            break
    return AxiomReport(trials, not witnesses, tuple(witnesses))
