"""Concurrent schedules under the simple lock-based execution policy.

A schedule assigns each transaction a start time; a transaction holds all its
storage keys for the duration [start, start + t).  Validity means conflicting
transactions never overlap and at most n run at any instant.  The exact
minimum makespan v(T) is found by depth-first branch and bound over *active*
schedules (every start coincides with time 0 or some completion); some optimal
schedule is always active, so the search is complete.

Integer scaling.  The schedulers multiply every time of a block by the least
common multiple L of the time denominators (``core.over_lcm``, which the
validator and the fee market use too) and work on Python ints, turning
start times back into rationals (start / L) only at the end.  This is exact:
validity compares sums of times, which keep their order when every time is
multiplied by L, so v(T) = v_L(T) / L.  In units of 1/L every start of an
active schedule is a sum of times, hence an integer, and so is every
makespan; the bound "remaining work over n threads" may therefore be rounded
up.

Lattice bounds.  ``subset_value_table`` fills v(S) by increasing bit mask, so
v(S - i) and v(S & N(i)) are known for every i in S when S comes up, with
N(i) the transactions sharing a key with i.  No transaction of S & N(i)
overlaps i in a valid schedule of S: cut i's interval out and shift what
ends after it left by t_i, and a valid schedule of S & N(i) remains (a
shifted start still follows every end before i's start, and at any instant
it runs a subset of what ran before), so v(S) >= t_i + v(S & N(i)).  The
fill takes i the lowest transaction of S and keeps work[S] = work[S - i] +
t_i.  With b(S) = max(t_i + v(S & N(i)), ceil(work[S] / n)) (the first
term alone when threads are unbounded),
  lb = max(max_i v(S - i), b(S))
  ub = min_i v(S - i) + t_i
bracket v(S).  Transactions of S that pairwise share a key run one after
another, so the weight of the heaviest such set, clique(S), bounds v(S);
it is at least the longest time and the heaviest key of S.  The lb above
is never below it: clique(S) = max(clique(S - i), t_i + clique(S & N(i))),
as the heaviest set holds i or not, and by induction v >= clique on S - i
and on S & N(i), where the scan reads v(S - i) first.  The bracket holds:
removing a transaction from a valid schedule leaves it valid (so
v(S - i) <= v(S)), and appending i after an optimal schedule of S - i,
when nothing else runs, is valid (so v(S) <= v(S - i) + t_i).  The fill
seeds lb with b(S), scans the i in S and stops as soon as the max and the
min over the i seen so far meet: the partial lb and ub bound v(S) as the
full ones do, so v(S) >= lb >= ub >= v(S) and v(S) = ub, with no search.
A scan that ends with lb < ub has read every i, so the rules below see the
same bounds as a full scan.  Otherwise the greedy schedule of S may lower
ub (it is valid, so its makespan is at least v(S)); if lb < ub still, a
second greedy run whose list puts first the transactions with the heaviest
conflict load work[S & N(i)] + t_i (ties longest time first) may lower it
again.  The fill reads only the makespans, so any list order will do.  If
lb < ub still, the search starts from ub as its incumbent and stops as
soon as the incumbent reaches lb, since no schedule can beat a lower
bound.  The search also prunes a node at clock c with transactions R not
yet started when c + v(R) reaches the incumbent: R is a proper subset of
S, so v(R) is already in the table, and R's transactions all start at c
or later.

Components.  When the thread cap cannot bind, with unbounded threads or
with |S| <= n, a subset S that splits into parts C and S - C sharing no
key runs each part on its own, so v(S) = max(v(C), v(S - C)), both
already in the table.  C is grown from the lowest transaction of S along
shared keys; the rule is tried after the scan, before greedy.

Whole blocks.  Each block is compiled once: ``compiled`` keeps its integer
form, with the greedy list order, in the TxSet.  Only this module decides
whether a block may go to the exact scheduler and where its exact answers
are kept, through two helpers.  The gate, ``_admit``, refuses a block over
the instance cap and returns the compiled form; ``optimal_schedule``,
``optimal_makespan``, ``ValueOracle.value`` and ``subset_value_table`` all
pass it before they read or fill anything.  The compiled form keeps, per
thread count, v(T) once it is known (``known``) and the block's
subset-value table once it is filled (``tables``, with the prices the gcm
module caches on it); both live exactly as long as the block.
``ValueOracle.value`` writes v(T) after its first answer and answers a
later lookup of the block from ``known``.  The table door, ``kept_table``,
returns the kept table or calls ``subset_value_table``, the one caller of
``_fill``, which fills it and keeps it with v(T); the gcm module prices
from this door, and the lattice fallback below goes through it too.
``optimal_makespan``, ``optimal_schedule`` and ``ValueOracle.value`` first
compare the greedy makespan with the static bound ``_Scaled.bound`` at
clock 0 on T (longest time, heaviest key, ceil(work / n)), the bound that
every node of the search applies too.  When the greedy makespan exceeds
it, ``_bounds`` raises this floor to the heaviest clique of T (a weight
pruned branch and bound over the conflict graph that visits each clique
once, so at most 2^|T| nodes, within the search budget below).  When the
floor and the greedy makespan meet, v(T) is the greedy makespan and the
starts are the greedy ones.  These are the starts the search would
return: it only replaces the greedy starts with a strictly shorter
schedule, and none exists.  A higher floor never changes the starts of an
open block either: the floor is at most v(T), and the search reads it only
to stop once its incumbent reaches it, which is at the first optimal
schedule in depth-first order, the one a search with a lower floor keeps
to the end.  Only a block the bounds leave open goes to the oracle's memo
and to the search, which runs on the whole block with a budget of
max(2^|T|, 256) nodes; the oracle hands its gate and bounds to
``optimal_makespan``, so neither runs twice.  If the search runs out,
they take the table from the door, so a later Shapley price or oracle
lookup of the block reads it without a second fill, and read v(T) from it;
for the starts, the search reruns from the greedy incumbent with floor
v(T) and the table's c + v(R) cut.  It returns the same schedule as the
plain search: both return the first optimal schedule in depth-first order,
and while the incumbent is above v(T) no bound cuts the branch that leads
to it.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import inf

from .core import TxSet, over_lcm


class InstanceTooLarge(ValueError):
    pass


class InvalidSchedule(RuntimeError):
    """A schedule computed by this module failed validation: a fault in the
    scheduler, not in its input."""


MAX_INSTANCE_CAP = 20  # a subset table of 20 transactions takes seconds


@dataclass(frozen=True)
class SchedulerConfig:
    threads: int | None = 2  # None means unbounded
    instance_cap: int = 12

    def __post_init__(self):
        if self.threads is not None and self.threads < 2:
            raise ValueError(f"thread count must be >= 2, got {self.threads}")
        if not 1 <= self.instance_cap <= MAX_INSTANCE_CAP:
            raise ValueError(f"instance cap must be in 1..{MAX_INSTANCE_CAP}"
                             f", got {self.instance_cap}")


@dataclass(frozen=True)
class Schedule:
    txs: TxSet
    starts: dict  # tx_id -> Fraction start time


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

    given = [schedule.starts[tx.tx_id] for tx in txs]
    # Exact integers: every start and time over their common denominator.
    whole, _ = over_lcm(given + [tx.time for tx in txs])
    starts = whole[:len(given)]
    ends = [s + t for s, t in zip(starts, whole[len(given):])]
    # Conflict exclusion: shared keys require disjoint open intervals.  Per
    # key, sweep its holders by start; the holders still open at a start
    # overlap the one starting there.
    holders: dict[str, list[int]] = {}
    for i, tx in enumerate(txs):
        for key in tx.keys:
            holders.setdefault(key, []).append(i)
    pairs = set()
    for held in holders.values():
        open_ends: list[tuple] = []
        for j in sorted(held, key=starts.__getitem__):
            while open_ends and open_ends[0][0] <= starts[j]:
                heappop(open_ends)
            pairs.update((min(i, j), max(i, j)) for _end, i in open_ends)
            heappush(open_ends, (ends[j], j))
    violations += [Violation("conflict-overlap",
                             f"{txs.txs[i].tx_id},{txs.txs[j].tx_id}")
                   for i, j in sorted(pairs)]
    # Concurrency cap: at each start (in id order) the transactions running
    # are those started by then less those already ended.
    if cfg.threads is not None:
        by_start, by_end = sorted(starts), sorted(ends)
        for start, shown in zip(starts, given):
            running = (bisect_right(by_start, start)
                       - bisect_right(by_end, start))
            if running > cfg.threads:
                violations.append(Violation(
                    "concurrency-exceeded", f"t={shown} running={running}"))
                break
    return ValidityReport(not violations, tuple(violations))


class _Scaled:
    """A block in integer form: transaction i is the i-th of the TxSet (id
    order), its time is ``times[i]`` in units of 1/``scale``, and its keys
    are the small ints ``keys[i]`` (bit set ``masks[i]``).  ``order`` lists
    every index longest time first (ties by index): the list order of the
    greedy schedule.  ``known`` maps a thread count to v(T), once known,
    and ``tables`` to the block's SubsetValueTable, once filled."""

    __slots__ = ("scale", "times", "keys", "masks", "nkeys", "order", "known",
                 "tables")

    def __init__(self, txs: TxSet):
        self.times, self.scale = over_lcm(tx.time for tx in txs)
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
        # A stable sort keeps ties in index order, also when reversed.
        self.order = sorted(range(len(txs)), key=self.times.__getitem__,
                            reverse=True)
        self.known: dict[int | None, Fraction] = {}
        self.tables: dict[int | None, SubsetValueTable] = {}

    def schedule(self, txs: TxSet, starts: dict) -> Schedule:
        """The Schedule of ``txs`` whose transaction i starts at
        ``starts[i]``."""
        return Schedule(txs, {txs.txs[i].tx_id: Fraction(s, self.scale)
                              for i, s in starts.items()})

    def bound(self, threads: int | None):
        """The one lower bound, as ``lower_bound(clock, running, items)``:
        no schedule that runs the (end, i) pairs ``running`` past ``clock``
        and starts ``items`` at ``clock`` or later ends before it."""
        times, keys = self.times, self.keys
        slots = self.nkeys or 1  # max(load) needs a slot when no key is held

        def lower_bound(clock: int, running, items) -> int:
            load = [0] * slots
            work = longest = 0
            for i in items:
                t = times[i]
                work += t
                if t > longest:
                    longest = t
                for k in keys[i]:
                    load[k] += t
            heaviest = max(load)
            lb = clock + (longest if longest > heaviest else heaviest)
            held = 0  # work of the running transactions left after `clock`
            for end, i in running:
                held += end - clock
                if end > lb:
                    lb = end
                # Every remaining user of key k runs after its holder i.
                for k in keys[i]:
                    if end + load[k] > lb:
                        lb = end + load[k]
            if threads is not None:
                # All residual work happens after `clock` on at most n
                # threads; every makespan is an integer, so round up.
                cand = clock - (-(work + held) // threads)
                if cand > lb:
                    lb = cand
            return lb

        return lower_bound


def compiled(txs: TxSet) -> _Scaled:
    """The integer form of ``txs``, built on first use and kept in the set.
    It holds no reference back to the set, so the two form no cycle and
    are freed together without the cyclic garbage collector."""
    return txs.compiled_form(_Scaled)


def _admit(txs: TxSet, cfg: SchedulerConfig) -> _Scaled:
    """The compiled form of ``txs``, once the block is known to be within
    the instance cap: the one check of the cap, which every exact entry
    point makes before it reads or fills anything of the block."""
    if len(txs) > cfg.instance_cap:
        raise InstanceTooLarge(
            f"|T| = {len(txs)} exceeds instance cap {cfg.instance_cap}")
    return compiled(txs)


def _greedy(sc: _Scaled, threads: int | None, pending: list) -> tuple[int, dict]:
    """The list schedule of ``pending``, given longest time first (ties by
    id, as ``order`` lists them): at each event time start every
    eligible transaction in list order.  Returns its makespan and its
    starts by index."""
    times, masks = sc.times, sc.masks
    starts: dict[int, int] = {}
    running: list[tuple[int, int]] = []  # (end, i)
    clock = span = locked = 0  # locked: the keys of `running`, as a mask
    while pending:
        room = len(pending) if threads is None else threads - len(running)
        waiting = []
        for i in pending:
            if room and not masks[i] & locked:
                starts[i] = clock
                end = clock + times[i]
                running.append((end, i))
                locked |= masks[i]
                room -= 1
                if end > span:
                    span = end
            else:
                waiting.append(i)
        pending = waiting
        if pending:
            clock = min(running)[0]
            still, locked = [], 0
            for end, i in running:
                if end > clock:
                    still.append((end, i))
                    locked |= masks[i]
            running = still
    return span, starts


def greedy_schedule(txs: TxSet, cfg: SchedulerConfig) -> Schedule:
    """Deterministic list scheduling: longest time first (ties by id); at each
    event time start every eligible transaction in list order."""
    sc = compiled(txs)
    return sc.schedule(txs, _greedy(sc, cfg.threads, sc.order)[1])


class _Reached(Exception):
    """The incumbent met the lower bound, so nothing can beat it."""


class _OverBudget(Exception):
    """The search visited more nodes than its budget allows."""


def _search(sc: _Scaled, threads: int | None, items, best: int, floor: int,
            below: list | None = None,
            budget: int | None = None) -> tuple[int, tuple | None]:
    """Branch and bound over active schedules of the transactions ``items``
    (indices in id order), seeded with an achievable makespan ``best`` and
    stopped once the incumbent reaches the lower bound ``floor``.

    ``below``, if given, holds v(R) (scaled) for every proper subset R of
    ``items`` by bit mask: the transactions left at time c start at or
    after c, so c + v(R) bounds any completion.  With a ``budget``, the
    search raises _OverBudget on visiting more nodes than that.

    Returns the least makespan and, if it beats ``best``, its starts as a
    linked list ``((batch, start), rest)`` of transactions started
    together; otherwise None for the starts.
    """
    times, masks = sc.times, sc.masks
    lower_bound = sc.bound(threads)
    found: list = [best, None]
    visited = [0]

    def recurse(clock: int, running: list, remaining: list, left: int,
                starts, reached: int) -> None:
        if budget is not None:
            visited[0] += 1
            if visited[0] > budget:
                raise _OverBudget
        if lower_bound(clock, running, remaining) >= found[0]:
            return
        locked, first = 0, inf  # first: the earliest end of `running`
        for end, i in running:
            locked |= masks[i]
            if end < first:
                first = end
        room = len(remaining) if threads is None else threads - len(running)
        # The sets of eligible transactions that can start together at
        # `clock` (with their key masks, transaction bits, the latest end
        # so far and the next clock once they start), in depth-first
        # include-first order over `remaining`.
        batches = [((), 0, 0, reached, first)]
        for i in reversed(remaining):
            m = masks[i]
            if not m & locked:
                bit, end = 1 << i, clock + times[i]
                batches = [((i,) + batch, m | used, bit | bits,
                            end if end > reach else reach,
                            end if end < soonest else soonest)
                           for batch, used, bits, reach, soonest in batches
                           if not m & used and len(batch) < room] + batches
        for batch, _used, bits, new_reached, next_clock in batches:
            if not batch and not running:
                continue  # nothing runs: dead branch
            if new_reached >= found[0]:
                continue  # every completion ends at or after new_reached
            new_starts = ((batch, clock), starts)
            if bits == left:
                found[0] = new_reached
                found[1] = new_starts
                if new_reached <= floor:
                    raise _Reached
                continue
            if below is not None and \
                    next_clock + below[left ^ bits] >= found[0]:
                continue
            new_running = running + [(clock + times[i], i) for i in batch]
            recurse(next_clock,
                    [(e, i) for e, i in new_running if e > next_clock],
                    [i for i in remaining if not bits >> i & 1],
                    left ^ bits, new_starts, new_reached)

    try:
        recurse(0, [], list(items), sum(1 << i for i in items), None, 0)
    except _Reached:
        pass
    return found[0], found[1]


def _neighbours(masks: list) -> list:
    """For every transaction i, the transactions that share a key with i,
    as a mask."""
    return [sum(1 << j for j, other in enumerate(masks)
                if j != i and mine & other) for i, mine in enumerate(masks)]


def _heaviest_clique(sc: _Scaled, neighbours) -> int:
    """The greatest total time of a set of transactions that pairwise share
    a key: a branch and bound over the cliques of the conflict graph, which
    grows each clique by the candidates adjacent to all of it, longest time
    first, and leaves a node once its weight and all its candidates' times
    together cannot beat the best clique so far.  Each node is a distinct
    clique, so the search visits at most 2^|T| nodes, never more than the
    whole-block search budget max(2^|T|, 256), and it reads ``neighbours``
    once per node below the root."""
    times = sc.times
    best = 0

    def grow(weight: int, candidates: list) -> None:
        nonlocal best
        if weight > best:
            best = weight
        rest = sum(times[i] for i in candidates)
        for k, i in enumerate(candidates):
            if weight + rest <= best:
                return
            rest -= times[i]
            adjacent = neighbours[i]
            grow(weight + times[i],
                 [j for j in candidates[k + 1:] if adjacent >> j & 1])

    grow(0, sc.order)
    return best


def _bounds(sc: _Scaled, threads: int | None) -> tuple[int, int, dict]:
    """A lower bound of v(T), and the makespan and starts of the block's
    greedy schedule, an upper bound; v(T) is the greedy makespan when the
    two meet.  The lower bound is the static one, raised to the heaviest
    clique when the greedy makespan exceeds it."""
    floor = sc.bound(threads)(0, (), range(len(sc.times)))
    span, starts = _greedy(sc, threads, sc.order)
    if span > floor:
        floor = max(floor, _heaviest_clique(sc, _neighbours(sc.masks)))
    return floor, span, starts


def _optimal(txs: TxSet, cfg: SchedulerConfig,
             bounded: tuple | None = None) -> tuple[_Scaled, int, dict]:
    """The compiled block, its least scaled makespan and starts achieving
    it: the greedy schedule unless the search beats it.  ``bounded``, if
    given, is the compiled block followed by its ``_bounds``, for a caller
    that has passed the gate and computed them already."""
    if bounded is None:
        sc = _admit(txs, cfg)
        bounded = (sc, *_bounds(sc, cfg.threads))
    sc, floor, incumbent, starts = bounded
    n, threads = len(txs), cfg.threads
    if incumbent == floor:
        return sc, incumbent, starts
    items = range(n)
    try:
        best, found = _search(sc, threads, items, incumbent, floor,
                              budget=max(1 << n, 256))
    except _OverBudget:
        v = kept_table(txs, cfg).scaled
        best, found = v[-1], None
        if best < incumbent:
            found = _search(sc, threads, items, incumbent, best, v)[1]
    if found is not None:
        starts = {}
        while found is not None:
            (batch, start), found = found
            starts.update(dict.fromkeys(batch, start))
    return sc, best, starts


def optimal_schedule(txs: TxSet, cfg: SchedulerConfig) -> Schedule:
    sc, _best, starts = _optimal(txs, cfg)
    return sc.schedule(txs, starts)


def optimal_makespan(txs: TxSet, cfg: SchedulerConfig,
                     bounded: tuple | None = None) -> Fraction:
    """v(T): the exact minimum makespan over all valid schedules; see
    ``_optimal`` for ``bounded``."""
    sc, best, _starts = _optimal(txs, cfg, bounded)
    return Fraction(best, sc.scale)


MEMO_CAP = 1 << 15  # makespans an oracle keeps before starting afresh


class ValueOracle:
    """Memoized access to v(T); the makespan only depends on the multiset of
    (time, keys) tuples and the thread count, so results are shared across
    blocks.  A block whose v(T) its compiled form already knows is answered
    from there, and one whose greedy makespan meets its static bound from
    the bounds; neither is memoized.  The memo holds at most ``MEMO_CAP``
    entries."""

    def __init__(self, cfg: SchedulerConfig):
        self.cfg = cfg
        self._memo: dict[tuple, Fraction] = {}

    def value(self, txs: TxSet) -> Fraction:
        sc, threads = _admit(txs, self.cfg), self.cfg.threads
        got = sc.known.get(threads)
        if got is not None:
            return got
        bounds = _bounds(sc, threads)
        floor, span, _starts = bounds
        if span == floor:
            got = Fraction(span, sc.scale)
        else:
            key = txs.shape_key()
            got = self._memo.get(key)
            if got is None:
                got = optimal_makespan(txs, self.cfg, (sc, *bounds))
                if len(self._memo) >= MEMO_CAP:
                    self._memo.clear()
                self._memo[key] = got
        sc.known[threads] = got
        return got


class SubsetValueTable:
    """v(S) for subsets S of a block, kept with the block's compiled form.

    ``ids`` lists the block's transaction ids in id order; ``scaled`` is a
    list indexed by bit mask that holds scale * v(S), where bit i stands
    for ``ids[i]``.  ``values`` reads the same numbers keyed by frozensets
    of ids.  The gcm module prices a block from ``scaled`` and caches the
    prices of each kind it is asked for in ``prices``, keyed by the kind.
    The table holds ids, not the TxSet, so the compiled form that keeps it
    forms no cycle with the set.
    """

    def __init__(self, ids: tuple, scale: int, scaled: list):
        self.ids = ids
        self.scale = scale
        self.scaled = scaled
        self.prices: dict = {}

    @property
    def values(self) -> dict:
        """frozenset of ids -> v(S) for every subset S, built when read."""
        ids, scale = self.ids, self.scale
        return {frozenset(tx_id for i, tx_id in enumerate(ids)
                          if mask >> i & 1): Fraction(v, scale)
                for mask, v in enumerate(self.scaled)}


def subset_value_table(txs: TxSet, cfg: SchedulerConfig) -> SubsetValueTable:
    """v(S) for all 2^|T| subsets, filled by increasing mask so that every
    v(S - i) is known before v(S), and kept with the compiled block; see
    the module docstring."""
    sc = _admit(txs, cfg)
    v = _fill(sc, cfg.threads)
    sc.known[cfg.threads] = Fraction(v[-1], sc.scale)
    table = sc.tables[cfg.threads] = SubsetValueTable(
        tuple(tx.tx_id for tx in txs), sc.scale, v)
    return table


def kept_table(txs: TxSet, cfg: SchedulerConfig) -> SubsetValueTable:
    """The block's subset-value table at ``cfg.threads``: the one kept
    with its compiled form, or else a new fill, which is kept there."""
    table = _admit(txs, cfg).tables.get(cfg.threads)
    return table if table is not None else subset_value_table(txs, cfg)


def _fill(sc: _Scaled, threads: int | None) -> list:
    """Scaled v(S) for every mask S, a list in mask order; see the module
    docstring."""
    times, n = sc.times, len(sc.times)
    total, order = sum(times), sc.order
    neighbours = _neighbours(sc.masks)
    v, work = [0] * (1 << n), [0] * (1 << n)
    for mask in range(1, 1 << n):
        # Seed lb with the shift bound of the lowest transaction i of S.
        low = mask & -mask
        i = low.bit_length() - 1
        work[mask] = w = work[mask ^ low] + times[i]
        lb = v[mask & neighbours[i]] + times[i]
        if threads is not None and w > lb * threads:
            lb = -(-w // threads)
        ub, rest = total, mask
        while rest and lb < ub:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            without = v[mask ^ bit]
            if without > lb:
                lb = without
            top = without + times[i]
            if top < ub:
                ub = top
        if lb < ub and (threads is None or mask.bit_count() <= threads):
            part = _component(mask, neighbours)
            if part != mask:
                lb = ub = max(v[part], v[mask ^ part])
        if lb < ub:
            items = [i for i in order if mask >> i & 1]
            ub = min(ub, _greedy(sc, threads, items)[0])
            if lb < ub:
                # Heaviest conflict load first, ties in LPT order.
                items.sort(key=lambda i: work[mask & neighbours[i]]
                           + times[i], reverse=True)
                ub = min(ub, _greedy(sc, threads, items)[0])
            if lb < ub:
                ub = _search(sc, threads, sorted(items), ub, lb, v)[0]
        v[mask] = ub
    return v


def _component(mask: int, neighbours: list) -> int:
    """The transactions of ``mask`` linked to its lowest one by chains of
    shared keys, as a mask."""
    part = todo = mask & -mask
    while todo:
        bit = todo & -todo
        todo ^= bit
        new = neighbours[bit.bit_length() - 1] & mask & ~part
        part |= new
        todo |= new
    return part
