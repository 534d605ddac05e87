"""Property tests of the subset-value table, the schedules and the
efficient mechanisms on random blocks.

Blocks have 2-8 transactions (0-8 for the price folds) with times k/1,
k/2 or k/3, drawn from a key pool of 2 (dense conflicts), 5 or 10 (sparse,
so that subsets often split into conflict-free parts and the component
rule decides them), at 2, 3 or unbounded threads.  The unpruned
enumeration of ``exhaustive.py`` takes seconds on 7 transactions, so it
checks blocks of at most 6.  Blocks with wide-range integer times
(500-1000 or 21000-100000, as real gas spreads) over a dense or a near
conflict-free key pool are checked apart: these are the blocks whose
subsets the bounds leave open most often.  The shift bound v(S) >= t_i +
v(S & N(i)) is checked on the filled table and on exhaustive makespans,
and the lower bound the fill reaches from it before greedy against
brute-force cliques and the static bound.  Every multiset block of 1-4
transactions over a small domain of times and key sets is checked
exhaustively, tables and prices, by ``bounded.py``.  The fills
of the benchmark's price blocks and of ``blocks/*.json`` are pinned to
their greedy runs, searches and search nodes.
"""
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paragas import (DuplicateId, PricingEnv, SchedulerConfig, TxSet,
                     ValueOracle, gcm, greedy_schedule, make_transaction,
                     makespan, optimal_makespan, optimal_schedule, scheduler,
                     subset_value_table, validate_schedule)
from paragas.core import parse_block
from paragas.sampling import SamplerConfig, rng_for, sample_txset

from bounded import check_bounded, static_floor_starts
from exhaustive import exhaustive_makespan, marginal_sums, table_value

threads_st = st.sampled_from((2, 3, None))


@st.composite
def blocks(draw, max_txs=8, min_txs=2):
    pool = draw(st.sampled_from((2, 5, 10)))
    den = draw(st.sampled_from((1, 2, 3)))
    txs = []
    for i in range(draw(st.integers(min_txs, max_txs))):
        keys = draw(st.sets(st.integers(1, pool), min_size=1, max_size=3))
        txs.append(make_transaction(f"t{i}", Fraction(draw(st.integers(1, 6)),
                                                      den),
                                    [f"k{k}" for k in keys]))
    return TxSet(txs)


def searched(block, threads, items):
    """v of the transactions ``items`` (scaled) by the plain branch and
    bound: greedy incumbent, static lower bound, no table and no budget."""
    sc = scheduler.compiled(block)
    incumbent = scheduler._greedy(
        sc, threads, [i for i in sc.order if i in items])[0]
    return scheduler._search(sc, threads, items, incumbent,
                             sc.bound(threads)(0, (), items))[0]


@st.composite
def wide_blocks(draw, max_txs):
    low, high = draw(st.sampled_from(((500, 1000), (21000, 100000))))
    pool = draw(st.sampled_from((2, 5, 1000)))
    txs = []
    for i in range(draw(st.integers(2, max_txs))):
        keys = draw(st.sets(st.integers(1, pool), min_size=1, max_size=2))
        txs.append(make_transaction(f"t{i}", draw(st.integers(low, high)),
                                    [f"k{k}" for k in keys]))
    return TxSet(txs)


@settings(max_examples=60, deadline=None)
@given(block=blocks(max_txs=6), threads=threads_st)
def test_every_entry_is_the_exhaustive_makespan(block, threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    for ids, v in table.values.items():
        assert v == exhaustive_makespan(block.subset(ids), threads), \
            sorted(ids)


@settings(max_examples=100, deadline=None)
@given(block=blocks(), threads=threads_st)
def test_every_entry_is_the_searched_makespan(block, threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    n = len(block)
    for mask in range(1, 1 << n):
        items = [i for i in range(n) if mask >> i & 1]
        assert table.scaled[mask] == searched(block, threads, items), mask


@settings(max_examples=40, deadline=None)
@given(block=wide_blocks(max_txs=6), threads=threads_st)
def test_wide_range_entries_are_the_exhaustive_makespan(block, threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    for ids, v in table.values.items():
        assert v == exhaustive_makespan(block.subset(ids), threads), \
            sorted(ids)


@settings(max_examples=40, deadline=None)
@given(block=wide_blocks(max_txs=8), threads=threads_st)
def test_wide_range_entries_are_the_searched_makespan(block, threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    n = len(block)
    for mask in range(1, 1 << n):
        items = [i for i in range(n) if mask >> i & 1]
        assert table.scaled[mask] == searched(block, threads, items), mask


@settings(max_examples=100, deadline=None)
@given(block=blocks(), threads=threads_st)
def test_adding_a_transaction_costs_between_nothing_and_its_time(block,
                                                                 threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    for ids, v in table.values.items():
        for tx in block:
            if tx.tx_id not in ids:
                assert v <= table_value(table, ids | {tx.tx_id}) \
                    <= v + tx.time


@settings(max_examples=100, deadline=None)
@given(block=blocks(min_txs=0), threads=threads_st)
@example(block=TxSet(), threads=None)
@example(block=TxSet([make_transaction("t0", 2, ["k1"])]), threads=None)
@example(block=TxSet([make_transaction("t0", 2, ["k1"]),
                      make_transaction("t1", 3, ["k1", "k2"])]), threads=None)
def test_folded_prices_price_like_the_sweep(block, threads):
    # The numerators folded from the finished table are the marginal sums
    # of a sweep over every (coalition, transaction) pair, weighted by
    # coalition size: s!(n - s - 1)! for Shapley, 1 for Banzhaf.
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    n = len(block)
    weights = [factorial(s) * factorial(n - s - 1) for s in range(n)]
    sums = marginal_sums(block, table.scaled)
    assert gcm._shapley_numerators(table.scaled, n) == \
        [sum(map(int.__mul__, weights, by_size)) for by_size in sums]
    assert gcm._banzhaf_numerators(table.scaled, n) == \
        [sum(by_size) for by_size in sums]


def heaviest_cliques(block):
    """By brute force, for every mask S: the greatest total time of a set
    of transactions of S that pairwise share a key."""
    sc = scheduler.compiled(block)
    n = len(block)
    cliques = [mask for mask in range(1 << n)
               if all(sc.masks[i] & sc.masks[j]
                      for i in range(n) for j in range(i)
                      if mask >> i & 1 and mask >> j & 1)]
    return [max(sum(sc.times[i] for i in range(n) if c >> i & 1)
                for c in cliques if c & mask == c)
            for mask in range(1 << n)]


def conflict_neighbours(block):
    """For every transaction i, the transactions sharing a key with it, as
    a mask."""
    masks = scheduler.compiled(block).masks
    return [sum(1 << j for j, other in enumerate(masks)
                if j != i and mine & other) for i, mine in enumerate(masks)]


def shift_bound_holds(v, times, neighbours):
    """The first mask S and transaction i of S with v[S] < t_i +
    v[S & N(i)], or None when the shift bound holds throughout ``v``."""
    for mask in range(1, len(v)):
        for i, t in enumerate(times):
            if mask >> i & 1 and v[mask] < t + v[mask & neighbours[i]]:
                return mask, i
    return None


@settings(max_examples=60, deadline=None)
@given(block=st.one_of(blocks(), wide_blocks(max_txs=8)), threads=threads_st)
def test_the_shift_bound_is_sound_and_no_weaker_than_the_clique_one(
        block, threads):
    sc = scheduler.compiled(block)
    n = len(block)
    neighbours = conflict_neighbours(block)
    v = scheduler._fill(sc, threads)
    assert shift_bound_holds(v, sc.times, neighbours) is None
    if n <= 6:
        exact = [exhaustive_makespan(TxSet(tx for i, tx in enumerate(block)
                                           if mask >> i & 1), threads)
                 for mask in range(1 << n)]
        times = [tx.time for tx in block]
        assert shift_bound_holds(exact, times, neighbours) is None
    # The fill seeds lb with the shift bound of the lowest transaction and
    # the area bound.  That seed alone may fall below a clique without the
    # lowest transaction, but the scan reads v(S - low) first, so greedy
    # and the search see at least max(seed, v(S - low)).
    cliques = heaviest_cliques(block)
    static = sc.bound(threads)
    for mask in range(1, 1 << n):
        items = [i for i in range(n) if mask >> i & 1]
        low = items[0]
        seed = sc.times[low] + v[mask & neighbours[low]]
        if threads is not None:
            seed = max(seed, -(-sum(sc.times[i] for i in items) // threads))
        lb = max(seed, v[mask ^ 1 << low])
        assert v[mask] >= lb >= cliques[mask], mask
        assert lb >= static(0, (), items), mask


@settings(max_examples=60, deadline=None)
@given(block=st.one_of(blocks(max_txs=6), wide_blocks(max_txs=6)),
       threads=st.sampled_from((2, 3, 4, None)))
def test_the_clique_floor_is_sound_and_leaves_the_starts_alone(block,
                                                               threads):
    sc = scheduler.compiled(block)
    items = range(len(block))
    static = sc.bound(threads)(0, (), items)
    floor, span, _starts = scheduler._bounds(sc, threads)
    assert Fraction(floor, sc.scale) <= exhaustive_makespan(block, threads)
    if span > static:
        assert floor == max(static, heaviest_cliques(block)[-1])
    else:
        assert floor == static
    assert optimal_schedule(block, SchedulerConfig(threads=threads)).starts \
        == static_floor_starts(block, threads)


def cocktail_party(times):
    """A block whose transactions 2k and 2k + 1 share no key, while every
    two transactions of different pairs share a key of their own."""
    n = len(times)
    keys = [[f"k{min(a, b)}-{max(a, b)}" for b in range(n) if a // 2 != b // 2]
            for a in range(n)]
    return TxSet(make_transaction(f"t{i:02d}", t, keys[i])
                 for i, t in enumerate(times))


class CountingReads(list):
    """A list that counts the reads of its items."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_the_clique_search_on_a_cocktail_party_block_stays_within_its_cap(
        monkeypatch):
    # Only the two transactions of one pair can run together, so with
    # unbounded threads v(T) is the sum over the pairs of their longer
    # time, 10, and so is the heaviest clique (one of each pair); the
    # static bound is 2, the load of one key.  The clique search reads
    # ``neighbours`` once per node below the root, and each node is a
    # distinct clique, so it stays within the whole-block search budget
    # max(2^n, 256).
    block = cocktail_party([1] * 20)
    sc = scheduler.compiled(block)
    neighbours = CountingReads(scheduler._neighbours(sc.masks))
    assert scheduler._heaviest_clique(sc, neighbours) == 10
    nodes = neighbours.reads + 1  # the root reads no neighbours
    assert nodes == 5741  # of the 3^10 = 59049 cliques of the graph
    assert nodes <= max(1 << len(block), 256)
    assert scheduler._bounds(sc, None)[:2] == (10, 10)

    def fail(*_args, **_kwargs):
        raise AssertionError("the bounds left the block open")

    monkeypatch.setattr(scheduler, "_search", fail)
    assert optimal_makespan(block, SchedulerConfig(threads=None,
                                                   instance_cap=20)) == 10


def test_every_small_block_is_tabled_and_priced_exactly():
    # Every multiset block of 1-4 transactions over times {1, 2} and key
    # sets {a}, {b}, {a, b}, {c}, at 2, 3 and unbounded threads.
    report = check_bounded()
    assert report.mismatches == ()
    assert (report.pairs, report.entries) == (1482, 19200)


def test_a_conflict_triangle_fills_without_greedy_or_search():
    # Each pair of the three transactions shares a key, so they run one
    # after another: the clique bound meets the upper bound on every subset.
    block = TxSet(make_transaction(f"t{i}", i + 1, keys)
                  for i, keys in enumerate((["a", "b"], ["b", "c"],
                                            ["a", "c"])))
    assert fill_work(block, 2) == ((0, 0, 0), 6)


@settings(max_examples=100, deadline=None)
@given(block=blocks(), threads=threads_st)
def test_lattice_fallback_gives_the_searched_schedule(block, threads):
    cfg = SchedulerConfig(threads=threads)
    table = subset_value_table(block, cfg)
    items = range(len(block))
    assert table.scaled[(1 << len(block)) - 1] == \
        searched(block, threads, items)

    search = scheduler._search

    def unbudgeted(*args, budget=None, **kwargs):
        return search(*args, **kwargs)

    def exhausted(*args, budget=None, **kwargs):
        if budget is not None:
            raise scheduler._OverBudget
        return search(*args, **kwargs)

    with mock.patch.object(scheduler, "_search", unbudgeted):
        plain = optimal_schedule(block, cfg)
    with mock.patch.object(scheduler, "_search", exhausted):
        fallback = optimal_schedule(block, cfg)
        assert scheduler.optimal_makespan(block, cfg) == \
            table_value(table, block.ids)
    assert fallback.starts == plain.starts
    assert validate_schedule(fallback, block, cfg).valid


@settings(max_examples=100, deadline=None)
@given(block=blocks(), threads=threads_st)
def test_schedules_are_valid_and_the_exact_one_takes_v(block, threads):
    cfg = SchedulerConfig(threads=threads)
    exact = optimal_schedule(block, cfg)
    greedy = greedy_schedule(block, cfg)
    assert validate_schedule(exact, block, cfg).valid
    assert validate_schedule(greedy, block, cfg).valid
    v_block = table_value(subset_value_table(block, cfg), block.ids)
    assert makespan(exact) == v_block <= makespan(greedy)


@pytest.mark.parametrize("mech",
                         ("shapley", "tpm", "esm", "banzhaf_normalized"))
@settings(max_examples=50, deadline=None)
@given(block=blocks(), threads=threads_st)
def test_efficient_mechanisms_charge_v_in_total(mech, block, threads):
    cfg = SchedulerConfig(threads=threads)
    env = PricingEnv(scheduler_cfg=cfg)
    assert env.block_gas(block, block, mech) == \
        table_value(subset_value_table(block, cfg), block.ids)


# Five key-disjoint transactions of times 3, 3, 2, 2, 2: at 2 threads the
# greedy schedule takes 7 and v = 6, so the bounds leave the block open.
OPEN_BLOCK = TxSet(make_transaction(f"t{i}", t, [f"k{i}"])
                   for i, t in enumerate((3, 3, 2, 2, 2)))


@settings(max_examples=100, deadline=None)
@given(block=blocks(), threads=threads_st)
@example(block=OPEN_BLOCK, threads=2)
def test_oracle_search_and_table_agree_on_v(block, threads):
    cfg = SchedulerConfig(threads=threads)
    assert ValueOracle(cfg).value(block) == optimal_makespan(block, cfg) == \
        table_value(subset_value_table(block, cfg), block.ids)


@settings(max_examples=30, deadline=None)
@given(block=blocks(max_txs=6), threads=threads_st)
def test_table_values_yield_every_id_subset_once(block, threads):
    table = subset_value_table(block, SchedulerConfig(threads=threads))
    subsets = list(table.values)
    assert len(subsets) == len(set(subsets)) == 2 ** len(block)
    for mask, ids in enumerate(subsets):
        assert ids == {tx.tx_id for i, tx in enumerate(block)
                       if mask >> i & 1}
        assert table.values[ids] == table_value(table, ids)


def same_set(fast, slow):
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fast.txs == slow.txs
    assert list(fast) == list(slow)
    assert fast.ids == slow.ids
    assert fast.total_time() == slow.total_time()


@settings(max_examples=100, deadline=None)
@given(block=blocks(), data=st.data())
def test_with_txs_and_subset_build_the_same_set(block, data):
    txs = list(block)
    chosen = data.draw(st.lists(st.sampled_from(txs), unique=True))
    extra = [tx for tx in txs if tx not in chosen]
    base = TxSet(chosen)
    same_set(base.with_txs(*extra), TxSet(chosen + extra))
    same_set(base.with_txs(*extra), block)
    ids = {tx.tx_id for tx in chosen}
    same_set(block.subset(ids), TxSet(tx for tx in txs if tx.tx_id in ids))
    if chosen:
        again = make_transaction(chosen[0].tx_id, 1, ["k9"])
        with pytest.raises(DuplicateId):
            base.with_txs(*extra, again)
        with pytest.raises(DuplicateId):
            block.with_txs(again)


# The blocks of the benchmark's price workload, as (transactions, threads,
# key pool, time denominator, draw), drawn from sampler seed 0, and the
# greedy runs, searches and search nodes their subset tables take, with the
# table's v(T) (scaled).  The counts are those of the fill with b(S) from
# the shift bound t_i + v(S & N(i)) and ceil(work / n), the component rule
# at |S| <= n, and a second greedy run, in conflict-load order, on every
# subset the LPT greedy leaves open.  Against the fill with one greedy run
# (its counts in the comments where they differ), each block's greedy runs
# are its former greedy runs plus its former searches, since every former
# search now follows one more greedy run, and its searches and search nodes
# do not rise: a change to the bounds may lower a count but must not raise
# one.
PRICE_FILLS = {
    (9, 2, 4, 1, 5): ((7, 0, 0), 20),
    (9, None, 10, 2, 8): ((90, 0, 0), 21),  # (66, 24, 121)
    (9, 3, 4, 2, 5): ((3, 0, 0), 38),
    (10, 3, 4, 3, 5): ((45, 0, 0), 31),  # (37, 8, 40)
    (10, 2, 4, 2, 6): ((169, 18, 73), 26),  # (124, 45, 194)
    (11, None, 10, 3, 1): ((152, 0, 0), 29),
    (11, 3, 10, 1, 2): ((569, 8, 37), 9),  # (544, 25, 103)
}
BLOCK_FILLS = {
    ("banzhaf_three_tx.json", 2): ((0, 0, 0), 2),
    ("banzhaf_three_tx.json", 3): ((0, 0, 0), 2),
    ("banzhaf_three_tx.json", None): ((0, 0, 0), 2),
    ("four_tx_block.json", 2): ((1, 0, 0), 8),
    ("four_tx_block.json", 3): ((0, 0, 0), 7),
    ("four_tx_block.json", None): ((0, 0, 0), 7),
}
BLOCKS_DIR = Path(__file__).resolve().parents[1] / "blocks"


def price_block(size, pool, den, draw):
    cfg = SamplerConfig(seed=0, key_pool=pool, time_range=(1, 4 * den))
    txs = sample_txset(rng_for(cfg, "price", draw), cfg, size)
    return TxSet(make_transaction(tx.tx_id, tx.time / den, tx.keys)
                 for tx in txs)


def fill_work(block, threads):
    """(greedy runs, searches, search nodes) of the block's table fill, and
    its v(T) (scaled).  A search node is a call of the lower bound made
    inside ``_search``."""
    counts = [0, 0, 0]
    searching = [False]
    greedy, search, bound = scheduler._greedy, scheduler._search, \
        scheduler._Scaled.bound

    def counting_greedy(*args):
        counts[0] += 1
        return greedy(*args)

    def counting_search(*args, **kwargs):
        counts[1] += 1
        searching[0] = True
        try:
            return search(*args, **kwargs)
        finally:
            searching[0] = False

    def counting_bound(sc, threads):
        lower_bound = bound(sc, threads)

        def counted(*args):
            counts[2] += searching[0]
            return lower_bound(*args)
        return counted

    with mock.patch.object(scheduler, "_greedy", counting_greedy), \
            mock.patch.object(scheduler, "_search", counting_search), \
            mock.patch.object(scheduler._Scaled, "bound", counting_bound):
        table = subset_value_table(block, SchedulerConfig(threads=threads))
    return tuple(counts), table.scaled[-1]


@pytest.mark.parametrize("shape", PRICE_FILLS, ids=str)
def test_price_block_fills_do_pinned_work(shape):
    size, threads, pool, den, draw = shape
    assert fill_work(price_block(size, pool, den, draw), threads) == \
        PRICE_FILLS[shape]


@pytest.mark.parametrize("name, threads", BLOCK_FILLS, ids=str)
def test_sample_block_fills_do_pinned_work(name, threads):
    block = parse_block((BLOCKS_DIR / name).read_text(encoding="utf-8"))[0]
    assert fill_work(block, threads) == BLOCK_FILLS[name, threads]
