"""Concurrent schedules under the simple lock-based execution policy.

A schedule assigns each transaction a start time; a transaction holds all its
storage keys for the duration [start, start + t).  Validity means conflicting
transactions never overlap and at most n run at any instant.  The exact
minimum makespan v(T) is found by depth-first branch and bound over *active*
schedules (every start coincides with time 0 or some completion); some optimal
schedule is always active, so the search is complete.

Integer scaling.  The schedulers multiply every time of a block by the least
common multiple L of the time denominators and work on Python ints, turning
start times back into rationals (start / L) only at the end.  This is exact:
validity compares sums of times, which keep their order when every time is
multiplied by L, so v(T) = v_L(T) / L.  In units of 1/L every start of an
active schedule is a sum of times, hence an integer, and so is every
makespan; the bound "remaining work over n threads" may therefore be rounded
up.

Lattice bounds.  ``subset_value_table`` fills v(S) by increasing bit mask, so
v(S - i) is known for every i in S when S comes up.  Then
  lb = max(max_i v(S - i), heaviest key, longest time, ceil(work / n))
  ub = min_i v(S - i) + t_i
bracket v(S): removing a transaction from a valid schedule leaves it valid
(so v(S - i) <= v(S)), and appending i after an optimal schedule of S - i,
when nothing else runs, is valid (so v(S) <= v(S - i) + t_i).  When lb >= ub
the value is ub without any search.  Otherwise the greedy schedule of S may
lower ub (it is valid, so its makespan is at least v(S)), and if lb < ub
still, the search starts from ub as its incumbent and stops as soon as the
incumbent reaches lb, since no schedule can beat a lower bound.  The search
also prunes a node at clock c with transactions R not yet started when
c + v(R) reaches the incumbent: R is a proper subset of S, so v(R) is
already in the table, and R's transactions all start at c or later.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .core import Transaction, TxSet, concatenate, fresh_key

UNBOUNDED = None


class InstanceTooLarge(ValueError):
    pass


class InvalidSchedule(RuntimeError):
    """A schedule computed by this module failed validation: a fault in the
    scheduler, not in its input."""


@dataclass(frozen=True)
class SchedulerConfig:
    threads: int | None = 2  # None means unbounded
    instance_cap: int = 12

    def __post_init__(self):
        if self.threads is not None and self.threads < 2:
            raise ValueError(f"thread count must be >= 2, got {self.threads}")

    def has_capacity(self, running: int) -> bool:
        return self.threads is None or running < self.threads


@dataclass(frozen=True)
class Schedule:
    txs: TxSet
    starts: dict  # tx_id -> Fraction start time

    def end(self, tx_id: str) -> Fraction:
        return self.starts[tx_id] + self.txs.get(tx_id).time

    def intervals(self) -> list[tuple[str, Fraction, Fraction]]:
        return sorted((tx_id, start, start + self.txs.get(tx_id).time)
                      for tx_id, start in self.starts.items())


def makespan(schedule: Schedule) -> Fraction:
    if not schedule.starts:
        return Fraction(0)
    return max(start + schedule.txs.get(tx_id).time
               for tx_id, start in schedule.starts.items())


@dataclass(frozen=True)
class Violation:
    kind: str  # "missing-tx" | "unknown-tx" | "conflict-overlap" | "concurrency-exceeded"
    detail: str


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {"valid": self.valid,
                "violations": [{"kind": v.kind, "detail": v.detail}
                               for v in self.violations]}


def validate_schedule(schedule: Schedule, txs: TxSet,
                      cfg: SchedulerConfig) -> ValidityReport:
    violations: list[Violation] = []
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


class _Scaled:
    """A block in integer form: transaction i is the i-th of the TxSet (id
    order), its time is ``times[i]`` in units of 1/``scale``, and its keys
    are the small ints ``keys[i]`` (bit set ``masks[i]``)."""

    __slots__ = ("txs", "scale", "times", "keys", "masks", "nkeys")

    def __init__(self, txs: TxSet):
        self.txs = txs
        fractions = [tx.time for tx in txs]
        self.scale = scale = lcm(*(t.denominator for t in fractions))
        self.times = [t.numerator * (scale // t.denominator)
                      for t in fractions]
        index: dict[str, int] = {}
        self.keys, self.masks = [], []
        for tx in txs:
            ks = [index.setdefault(k, len(index)) for k in tx.keys]
            mask = 0
            for k in ks:
                mask |= 1 << k
            self.keys.append(ks)
            self.masks.append(mask)
        self.nkeys = len(index)

    def schedule(self, starts: dict) -> Schedule:
        """The Schedule whose transaction i starts at ``starts[i]``."""
        txs = self.txs.txs
        return Schedule(self.txs, {txs[i].tx_id: Fraction(s, self.scale)
                                   for i, s in starts.items()})

    def static_bound(self, items, threads: int | None) -> int:
        """Lower bound on the makespan of ``items``: the longest time, the
        heaviest key and, with n threads, the work over n rounded up."""
        times, keys = self.times, self.keys
        load = [0] * self.nkeys
        work = longest = 0
        for i in items:
            t = times[i]
            work += t
            if t > longest:
                longest = t
            for k in keys[i]:
                load[k] += t
        lb = max(longest, max(load))
        if threads is not None:
            lb = max(lb, -(-work // threads))
        return lb


def _greedy(sc: _Scaled, threads: int | None, items) -> tuple[int, dict]:
    """The list schedule of ``items``: longest time first (ties by id); at
    each event time start every eligible transaction in list order.
    Returns its makespan and its starts by index."""
    times, masks = sc.times, sc.masks
    pending = sorted(items, key=lambda i: (-times[i], i))
    starts: dict[int, int] = {}
    running: list[tuple[int, int]] = []  # (end, i)
    clock = span = 0
    while pending:
        locked = 0
        for _end, i in running:
            locked |= masks[i]
        waiting = []
        for i in pending:
            if (threads is None or len(running) < threads) \
                    and not masks[i] & locked:
                starts[i] = clock
                running.append((clock + times[i], i))
                locked |= masks[i]
                span = max(span, clock + times[i])
            else:
                waiting.append(i)
        pending = waiting
        if pending:
            clock = min(end for end, _ in running)
            running = [(end, i) for end, i in running if end > clock]
    return span, starts


def greedy_schedule(txs: TxSet, cfg: SchedulerConfig) -> Schedule:
    """Deterministic list scheduling: longest time first (ties by id); at each
    event time start every eligible transaction in list order."""
    if not len(txs):
        return Schedule(txs, {})
    sc = _Scaled(txs)
    return sc.schedule(_greedy(sc, cfg.threads, range(len(txs)))[1])


class _Reached(Exception):
    """The incumbent met the lower bound, so nothing can beat it."""


def _search(sc: _Scaled, threads: int | None, items, best: int, floor: int,
            below: list | None = None) -> tuple[int, tuple | None]:
    """Branch and bound over active schedules of the transactions ``items``
    (indices in id order), seeded with an achievable makespan ``best`` and
    stopped once the incumbent reaches the lower bound ``floor``.

    ``below``, if given, holds v(R) (scaled) for every proper subset R of
    ``items`` by bit mask: the transactions left at time c start at or
    after c, so c + v(R) bounds any completion.

    Returns the least makespan and, if it beats ``best``, its starts as a
    linked list ``((batch, start), rest)`` of transactions started
    together; otherwise None for the starts.
    """
    times, keys, masks, nkeys = sc.times, sc.keys, sc.masks, sc.nkeys
    found: list = [best, None]

    def lower_bound(clock: int, running: list, remaining: list) -> int:
        lb = clock
        held = 0  # work of the running transactions left after `clock`
        for end, _i in running:
            if end > lb:
                lb = end
            held += end - clock
        load = [0] * nkeys
        work = longest = 0
        for i in remaining:
            t = times[i]
            work += t
            if t > longest:
                longest = t
            for k in keys[i]:
                load[k] += t
        if threads is not None:
            # All residual work happens after `clock` on at most n threads;
            # every makespan is an integer, so the quotient rounds up.
            cand = clock - (-(work + held) // threads)
        else:
            cand = clock + longest
        if cand > lb:
            lb = cand
        # Per-key serialization: every remaining user of key k runs after the
        # running holder of k (if any) finishes.
        cand = clock + max(load)
        if cand > lb:
            lb = cand
        for end, i in running:
            for k in keys[i]:
                if load[k] and end + load[k] > lb:
                    lb = end + load[k]
        return lb

    def recurse(clock: int, running: list, remaining: list, left: int,
                starts, reached: int) -> None:
        if lower_bound(clock, running, remaining) >= found[0]:
            return
        locked = 0
        for _end, i in running:
            locked |= masks[i]
        room = len(remaining) if threads is None else threads - len(running)
        # The sets of eligible transactions that can start together at
        # `clock` (with their key masks and transaction bits), in
        # depth-first include-first order over `remaining`.
        batches = [((), 0, 0)]
        for i in reversed(remaining):
            m = masks[i]
            if not m & locked:
                bit = 1 << i
                batches = [((i,) + batch, m | used, bit | bits)
                           for batch, used, bits in batches
                           if not m & used and len(batch) < room] + batches
        for batch, _used, bits in batches:
            if not batch and not running:
                continue  # nothing runs: dead branch
            new_reached = reached
            for i in batch:
                if clock + times[i] > new_reached:
                    new_reached = clock + times[i]
            if new_reached >= found[0]:
                continue  # every completion ends at or after new_reached
            new_starts = ((batch, clock), starts)
            if bits == left:
                found[0] = new_reached
                found[1] = new_starts
                if new_reached <= floor:
                    raise _Reached
                continue
            new_running = running + [(clock + times[i], i) for i in batch]
            next_clock = min(e for e, _ in new_running)
            if below is not None and \
                    next_clock + below[left ^ bits] >= found[0]:
                continue
            recurse(next_clock,
                    [(e, i) for e, i in new_running if e > next_clock],
                    [i for i in remaining if not bits >> i & 1],
                    left ^ bits, new_starts, new_reached)

    try:
        recurse(0, [], list(items), sum(1 << i for i in items), None, 0)
    except _Reached:
        pass
    return found[0], found[1]


def _optimal(sc: _Scaled, cfg: SchedulerConfig) -> tuple[int, dict]:
    """Least scaled makespan of the whole block and starts achieving it:
    the greedy schedule unless the search beats it."""
    if len(sc.times) > cfg.instance_cap:
        raise InstanceTooLarge(
            f"|T| = {len(sc.times)} exceeds instance cap {cfg.instance_cap}")
    if not sc.times:
        return 0, {}
    items = range(len(sc.times))
    incumbent, starts = _greedy(sc, cfg.threads, items)
    best, found = _search(sc, cfg.threads, items, incumbent,
                          sc.static_bound(items, cfg.threads))
    if found is not None:
        starts = {}
        while found is not None:
            (batch, start), found = found
            starts.update(dict.fromkeys(batch, start))
    return best, starts


def optimal_schedule(txs: TxSet, cfg: SchedulerConfig) -> Schedule:
    sc = _Scaled(txs)
    return sc.schedule(_optimal(sc, cfg)[1])


def optimal_makespan(txs: TxSet, cfg: SchedulerConfig) -> Fraction:
    """v(T): the exact minimum makespan over all valid schedules."""
    sc = _Scaled(txs)
    return Fraction(_optimal(sc, cfg)[0], sc.scale)


MEMO_CAP = 1 << 15  # makespans an oracle keeps before starting afresh


class ValueOracle:
    """Memoized access to v(T); the makespan only depends on the multiset of
    (time, keys) tuples and the thread count, so results are shared across
    blocks.  The memo holds at most ``MEMO_CAP`` entries."""

    def __init__(self, cfg: SchedulerConfig):
        self.cfg = cfg
        self._memo: dict[tuple, Fraction] = {}

    def value(self, txs: TxSet) -> Fraction:
        key = txs.shape_key()
        got = self._memo.get(key)
        if got is None:
            got = optimal_makespan(txs, self.cfg)
            if len(self._memo) >= MEMO_CAP:
                self._memo.clear()
            self._memo[key] = got
        return got


class SubsetValueTable:
    """v(S) for subsets S of a base set.

    ``scaled`` maps a bit mask to scale * v(S), where bit i stands for the
    i-th transaction of ``base`` in id order.  A table from
    ``subset_value_table`` holds every mask; one from ``whole`` holds only
    the full block.  ``values`` reads the same numbers keyed by frozensets
    of ids.  ``prices`` is left for the gcm module to cache the block's
    Shapley and Banzhaf prices in.
    """

    def __init__(self, base: TxSet, scale: int, scaled: dict):
        self.base = base
        self.scale = scale
        self.scaled = scaled
        self.prices = None
        self._bit = {tx.tx_id: 1 << i for i, tx in enumerate(base)}

    @classmethod
    def whole(cls, base: TxSet, value: Fraction) -> "SubsetValueTable":
        """A table that knows only v(base), which TPM, ESM and XSM need."""
        return cls(base, value.denominator,
                   {(1 << len(base)) - 1: value.numerator})

    @property
    def full(self) -> bool:
        return len(self.scaled) == 1 << len(self.base)

    def value(self, ids) -> Fraction:
        mask = 0
        for tx_id in ids:
            mask |= self._bit[tx_id]
        return Fraction(self.scaled[mask], self.scale)

    @property
    def values(self) -> Mapping:
        return _TableValues(self)


class _TableValues(Mapping):
    """frozenset of ids -> v(S), read from a SubsetValueTable."""

    def __init__(self, table: SubsetValueTable):
        self._table = table

    def __getitem__(self, ids) -> Fraction:
        return self._table.value(ids)

    def __len__(self) -> int:
        return len(self._table.scaled)

    def __iter__(self):
        ids = [tx.tx_id for tx in self._table.base]
        for mask in self._table.scaled:
            yield frozenset(tx_id for i, tx_id in enumerate(ids)
                            if mask >> i & 1)


def subset_value_table(txs: TxSet, cfg: SchedulerConfig) -> SubsetValueTable:
    """v(S) for all 2^|T| subsets, filled by increasing mask so that every
    v(S - i) is known before v(S); see the module docstring."""
    if len(txs) > cfg.instance_cap:
        raise InstanceTooLarge(
            f"|T| = {len(txs)} exceeds instance cap {cfg.instance_cap}")
    sc = _Scaled(txs)
    times, threads, n = sc.times, cfg.threads, len(txs)
    v = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lb, ub, rest = 0, None, mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            without = v[mask ^ bit]
            if without > lb:
                lb = without
            top = without + times[bit.bit_length() - 1]
            if ub is None or top < ub:
                ub = top
        if lb < ub:
            items = [i for i in range(n) if mask >> i & 1]
            lb = max(lb, sc.static_bound(items, threads))
            if lb < ub:
                ub = min(ub, _greedy(sc, threads, items)[0])
            if lb < ub:
                ub = _search(sc, threads, items, ub, lb, v)[0]
        v[mask] = ub
    return SubsetValueTable(txs, sc.scale, dict(enumerate(v)))


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
