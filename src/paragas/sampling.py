"""Seeded random instance generation for property checks and axiom tests.

Samplers deliberately bias toward key contention (small key pool): property
violations live in contended instances.  The same seed always yields the same
instance stream.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Transaction, TxSet


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    max_txs: int = 6
    key_pool: int = 6
    time_range: tuple[int, int] = (1, 5)
    threads: tuple = (2, 3)  # thread counts to draw from; None = unbounded


def rng_for(cfg: SamplerConfig, *stream: object) -> random.Random:
    """An independent deterministic stream per (seed, label...) pair.

    String seeds hash deterministically in random.Random (unlike tuples,
    whose hash depends on PYTHONHASHSEED).
    """
    return random.Random("|".join([str(cfg.seed)] + [str(s) for s in stream]))


def sample_time(rng: random.Random, cfg: SamplerConfig) -> Fraction:
    return Fraction(rng.randint(*cfg.time_range))


def draw_keys(rng: random.Random, pool: int, count: int) -> frozenset[str]:
    """``count`` distinct keys of k1 .. k<pool>, drawn by index as
    ``rng.sample`` draws from the list of their names, so that a large pool
    costs no memory."""
    return frozenset([f"k{i}" for i in rng.sample(range(1, pool + 1), count)])


MAX_KEYS = 3  # keys of a sampled transaction, at most


def sample_keys(rng: random.Random, cfg: SamplerConfig) -> frozenset[str]:
    count = rng.randint(1, min(MAX_KEYS, cfg.key_pool))
    return draw_keys(rng, cfg.key_pool, count)


def sample_transaction(rng: random.Random, cfg: SamplerConfig,
                       tx_id: str) -> Transaction:
    return Transaction(tx_id, sample_time(rng, cfg), sample_keys(rng, cfg))


def sample_txset(rng: random.Random, cfg: SamplerConfig,
                 size: int | None = None, prefix: str = "t") -> TxSet:
    if size is None:
        size = rng.randint(0, cfg.max_txs)
    return TxSet(sample_transaction(rng, cfg, f"{prefix}{i}")
                 for i in range(size))
