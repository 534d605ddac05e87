from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragas import scheduler
from paragas import (InstanceTooLarge, Schedule, SchedulerConfig,
                     Transaction, TxSet, ValueOracle, greedy_schedule,
                     make_transaction, makespan, optimal_makespan,
                     optimal_schedule, subset_value_table, validate_schedule)
from paragas.sampling import SamplerConfig, rng_for, sample_transaction, \
    sample_txset

from axioms import check_scheduler_axioms
from exhaustive import (exhaustive_makespan, quadratic_validate_schedule,
                        table_value)

N2 = SchedulerConfig(threads=2)
N3 = SchedulerConfig(threads=3)
UNB = SchedulerConfig(threads=None)


def tx(tx_id, time, keys):
    return make_transaction(tx_id, time, keys)


def fig5_block():
    return TxSet([
        tx("tx1", 2, ["k2", "k3", "k4", "k5", "k6", "k7", "k8"]),
        tx("tx2", 4, ["k2", "k3"]),
        tx("tx3", 5, ["k4", "k5", "k6"]),
        tx("tx4", 2, ["k7", "k8"]),
    ])


def test_four_tx_block_makespans():
    block = fig5_block()
    assert optimal_makespan(block, N3) == 7
    assert optimal_makespan(block, N2) == 8


def test_makespan_basics():
    assert makespan(Schedule(TxSet(), {})) == 0
    single = TxSet([tx("a", 3, ["k1"])])
    assert makespan(Schedule(single, {"a": Fraction(0)})) == 3


def test_validate_three_parallel_layout():
    block = fig5_block()
    starts = {"tx1": Fraction(0), "tx2": Fraction(2),
              "tx3": Fraction(2), "tx4": Fraction(2)}
    sched = Schedule(block, starts)
    assert makespan(sched) == 7
    assert validate_schedule(sched, block, N3).valid
    report = validate_schedule(sched, block, N2)
    assert not report.valid
    assert any(v.kind == "concurrency-exceeded" for v in report.violations)


def test_validate_conflict_overlap():
    block = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k1"])])
    sched = Schedule(block, {"a": Fraction(0), "b": Fraction(0)})
    report = validate_schedule(sched, block, N2)
    assert not report.valid
    assert report.violations[0].kind == "conflict-overlap"


def test_validate_missing_and_unknown():
    block = TxSet([tx("a", 1, ["k1"])])
    report = validate_schedule(Schedule(block, {}), block, N2)
    assert any(v.kind == "missing-tx" for v in report.violations)
    report = validate_schedule(
        Schedule(block, {"a": Fraction(0), "zz": Fraction(0)}), block, N2)
    assert any(v.kind == "unknown-tx" for v in report.violations)


def test_back_to_back_conflicting_txs_are_valid():
    block = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k1"])])
    sched = Schedule(block, {"a": Fraction(0), "b": Fraction(1)})
    assert validate_schedule(sched, block, N2).valid


@st.composite
def scheduled_blocks(draw):
    """A block with a schedule that is valid (greedy), or random starts
    that mostly overlap, sometimes missing a transaction or naming an
    unknown one."""
    den = draw(st.sampled_from((1, 2, 3)))
    pool = draw(st.sampled_from((2, 4, 8)))
    block = TxSet(tx(f"t{i}", Fraction(draw(st.integers(1, 6)), den),
                     [f"k{k}" for k in draw(st.sets(st.integers(1, pool),
                                                    min_size=1, max_size=3))])
                  for i in range(draw(st.integers(0, 12))))
    cfg = SchedulerConfig(threads=draw(st.sampled_from((2, 3, None))))
    if draw(st.booleans()):
        return greedy_schedule(block, cfg), block, cfg
    # Starts draw their own denominator, so that the validator's common
    # denominator is that of the starts and the times together.
    start_den = draw(st.integers(1, 7))
    starts = {t.tx_id: Fraction(draw(st.integers(0, 12 * start_den)),
                                start_den)
              for t in block if draw(st.integers(0, 20))}
    if draw(st.integers(0, 20)) == 0:
        starts["zz"] = Fraction(0)
    return Schedule(block, starts), block, cfg


@settings(max_examples=300, deadline=None)
@given(scheduled_blocks())
def test_validator_agrees_with_the_pairwise_reference(case):
    schedule, block, cfg = case
    assert validate_schedule(schedule, block, cfg) == \
        quadratic_validate_schedule(schedule, block, cfg)


def test_concurrency_detail_prints_the_start_as_given():
    block = TxSet([tx("a", 1, ["k1"]), tx("b", "1/2", ["k2"]),
                   tx("c", 2, ["k3"])])
    starts = {"a": Fraction(1), "b": Fraction(3, 2), "c": Fraction(1, 3)}
    report = validate_schedule(Schedule(block, starts), block, N2)
    assert report.violations == (
        scheduler.Violation("concurrency-exceeded", "t=3/2 running=3"),)
    assert report == quadratic_validate_schedule(Schedule(block, starts),
                                                 block, N2)


def test_optimal_schedule_small_cases():
    single = TxSet([tx("a", 3, ["k1"])])
    sched = optimal_schedule(single, N2)
    assert sched.starts == {"a": Fraction(0)}
    pair = TxSet([tx("a", 1, ["k1"]), tx("b", 3, ["k2"])])
    assert optimal_makespan(pair, N2) == 3
    serial = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k1"])])
    assert optimal_makespan(serial, N2) == 2
    disjoint = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k2"])])
    assert optimal_makespan(disjoint, N2) == 1


def test_keyless_open_block_is_searched():
    # The CLI refuses an empty key set, but a hand-built Transaction may
    # hold none.  Greedy takes 7 and the static bound is 6, so the block
    # reaches the search, whose bound must not need a key.
    block = TxSet(Transaction(f"t{i}", Fraction(t), frozenset())
                  for i, t in enumerate((3, 3, 2, 2, 2)))
    assert makespan(greedy_schedule(block, N2)) == 7
    assert optimal_makespan(block, N2) == 6
    sched = optimal_schedule(block, N2)
    assert validate_schedule(sched, block, N2).valid
    assert makespan(sched) == 6
    assert ValueOracle(N2).value(block) == 6
    assert table_value(subset_value_table(block, N2), block.ids) == 6


def test_greedy_basics():
    assert greedy_schedule(TxSet(), N2).starts == {}
    units = TxSet([tx(f"t{i}", 1, [f"k{i}"]) for i in range(5)])
    assert makespan(greedy_schedule(units, UNB)) == 1
    block = fig5_block()
    sched = greedy_schedule(block, N3)
    assert validate_schedule(sched, block, N3).valid
    assert makespan(sched) >= 7


def test_instance_cap():
    big = TxSet([tx(f"t{i}", 1, [f"k{i}"]) for i in range(13)])
    with pytest.raises(InstanceTooLarge):
        optimal_schedule(big, N2)
    small_cap = SchedulerConfig(threads=2, instance_cap=3)
    with pytest.raises(InstanceTooLarge):
        optimal_schedule(TxSet([tx(f"t{i}", 1, [f"k{i}"])
                                for i in range(4)]), small_cap)
    with pytest.raises(ValueError):
        SchedulerConfig(instance_cap=21)


def test_thread_count_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(threads=1)
    SchedulerConfig(threads=None)  # unbounded is fine


def test_subset_value_table_three_txs():
    block = TxSet([tx("tx1", 1, ["k1"]), tx("tx2", 1, ["k1"]),
                   tx("tx3", 1, ["k2"])])
    table = subset_value_table(block, N2)
    assert table_value(table, frozenset()) == 0
    for tx_id in block.ids:
        assert table_value(table, frozenset({tx_id})) == 1
    assert table_value(table, frozenset({"tx1", "tx2"})) == 2
    assert table_value(table, frozenset({"tx1", "tx3"})) == 1
    assert table_value(table, frozenset({"tx2", "tx3"})) == 1
    assert table_value(table, block.ids) == 2
    # monotone under subset growth
    items = sorted(table.values.items(), key=lambda kv: len(kv[0]))
    for ids, v in items:
        for other, w in items:
            if ids <= other:
                assert v <= w


def test_every_table_entry_matches_exhaustive_search():
    cfg = SamplerConfig(seed=43, key_pool=4, time_range=(1, 6))
    for i in range(18):
        rng = rng_for(cfg, "table-vs-exhaustive", i)
        den = (1, 2, 3)[i % 3]
        threads = (2, 3, None)[i // 3 % 3]
        block = TxSet(make_transaction(t.tx_id, t.time / den, t.keys)
                      for t in sample_txset(rng, cfg, rng.randint(1, 6)))
        table = subset_value_table(block, SchedulerConfig(threads=threads))
        assert len(table.values) == 2 ** len(block)
        for ids, v in table.values.items():
            assert v == exhaustive_makespan(block.subset(ids), threads), \
                (i, threads, sorted(ids))


def test_exact_matches_unpruned_exhaustive_search():
    cfg = SamplerConfig(seed=11, max_txs=5, key_pool=4)
    for i in range(60):
        rng = rng_for(cfg, "vs-exhaustive", i)
        txs = sample_txset(rng, cfg)
        for threads in (2, 3, None):
            got = optimal_makespan(txs, SchedulerConfig(threads=threads))
            want = exhaustive_makespan(txs, threads)
            assert got == want, (i, threads, txs)


def test_exact_beats_or_ties_greedy_and_sandwich_bounds():
    cfg = SamplerConfig(seed=5, max_txs=6, key_pool=5)
    for i in range(80):
        rng = rng_for(cfg, "sandwich", i)
        txs = sample_txset(rng, cfg)
        for scfg in (N2, N3):
            sched = optimal_schedule(txs, scfg)
            assert validate_schedule(sched, txs, scfg).valid
            v = makespan(sched)
            assert v <= makespan(greedy_schedule(txs, scfg))
            assert v <= txs.total_time()
            if len(txs):
                per_key = max(
                    (sum((t.time for t in txs if k in t.keys), Fraction(0))
                     for k in txs.all_keys()), default=Fraction(0))
                assert v >= per_key
                assert v >= txs.total_time() / scfg.threads
                assert v >= max(t.time for t in txs)


def test_unbounded_threads_only_conflicts_matter():
    txs = TxSet([tx(f"t{i}", 2, [f"k{i}"]) for i in range(6)])
    assert optimal_makespan(txs, UNB) == 2
    assert optimal_makespan(txs, N2) == 6


def test_scheduler_axioms_hold_for_exact_scheduler():
    cfg = SamplerConfig(seed=3, max_txs=4, key_pool=4)
    oracle = ValueOracle(N2)

    def sampler(i):
        rng = rng_for(cfg, "axioms", i)
        base = sample_txset(rng, cfg)
        return (base, sample_transaction(rng, cfg, "x1"),
                sample_transaction(rng, cfg, "x2"))

    report = check_scheduler_axioms(oracle.value, sampler, trials=200)
    assert report.passed, report.witnesses


def test_axiom_s1_non_strict_case():
    a = tx("a", 1, ["k1"])
    b = tx("b", 1, ["k2"])
    oracle = ValueOracle(UNB)
    assert oracle.value(TxSet([a])) == oracle.value(TxSet([a, b])) == 1


def open_block(ids, scale=1):
    """Five key-disjoint transactions of times 3, 3, 2, 2, 2 (times
    ``scale``) with the given ids: at 2 threads the greedy schedule takes
    7, the static bound is 6 and v = 6, so the bounds leave the block to
    the memo and the search."""
    return TxSet([tx(tx_id, t * scale, [f"k{i}"])
                  for i, (tx_id, t) in enumerate(zip(ids, (3, 3, 2, 2, 2)))])


def test_value_oracle_memoizes_across_renamings():
    oracle = ValueOracle(N2)
    v1 = oracle.value(open_block("abcde"))
    v2 = oracle.value(open_block("vwxyz"[::-1]))
    assert v1 == v2 == 6
    assert len(oracle._memo) == 1


def test_value_oracle_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(scheduler, "MEMO_CAP", 3)
    oracle = ValueOracle(N2)
    for i in range(1, 11):
        block = open_block("abcde", scale=i)
        assert oracle.value(block) == 6 * i
        assert len(oracle._memo) <= 3
    assert oracle.value(TxSet([tx("a", 2, ["k1"]), tx("b", 1, ["k2"])])) == 2


@pytest.mark.parametrize("cfg", [N2, N3])
def test_value_oracle_reads_v_of_a_tabled_block(cfg, monkeypatch):
    block = open_block("abcde")
    v = table_value(subset_value_table(block, cfg), block.ids)

    def fail(*_args, **_kwargs):
        raise AssertionError("v(T) of a tabled block was computed again")
    monkeypatch.setattr(scheduler, "_greedy", fail)
    monkeypatch.setattr(scheduler, "_search", fail)
    assert ValueOracle(cfg).value(block) == v == {N2: 6, N3: 5}[cfg]


def test_value_oracle_answers_a_repeated_block_without_bounds_or_search(
        monkeypatch):
    oracle = ValueOracle(N2)
    block = open_block("abcde")
    assert oracle.value(block) == 6

    def fail(*_args, **_kwargs):
        raise AssertionError("v(T) of a looked-up block was computed again")
    monkeypatch.setattr(scheduler, "optimal_makespan", fail)
    monkeypatch.setattr(scheduler, "_greedy", fail)
    assert oracle.value(block) == 6
    assert len(oracle._memo) == 1
    # The instance cap still holds for a block whose value is known.
    with pytest.raises(InstanceTooLarge):
        ValueOracle(SchedulerConfig(threads=2, instance_cap=4)).value(block)


def test_value_oracle_schedules_greedily_and_checks_the_cap_once_per_miss(
        monkeypatch):
    calls = {"_greedy": 0, "_admit": 0}

    def counting(name):
        original = getattr(scheduler, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(scheduler, name, counting(name))
    oracle = ValueOracle(N2)
    for i, block in enumerate((open_block("abcde"), open_block("abcde", 2))):
        assert oracle.value(block) == 6 * (i + 1)
        assert len(oracle._memo) == i + 1
        assert calls == {"_greedy": i + 1, "_admit": i + 1}


def test_value_oracle_answers_a_block_the_bounds_settle_without_the_memo():
    block = TxSet([tx("a", 1, ["k1"]), tx("b", 2, ["k1"]),
                   tx("c", "1/2", ["k2"])])
    greedy = greedy_schedule(block, N2)
    oracle = ValueOracle(N2)
    assert oracle.value(block) == makespan(greedy) == 3
    assert oracle.value(block) == optimal_makespan(block, N2)
    assert optimal_schedule(block, N2).starts == greedy.starts
    assert oracle._memo == {}


def test_whole_block_search_budget_covers_small_blocks(monkeypatch):
    # The plain search needs more than 2^4 nodes on this block; with its
    # budget of max(2^n, 256) nodes it finishes without the lattice.
    block = TxSet([tx("t0", 4, ["k2"]), tx("t1", 5, ["k1"]),
                   tx("t2", 1, ["k1", "k2"]), tx("t3", 5, ["k0"])])
    assert makespan(greedy_schedule(block, N2)) == 10

    def no_lattice(*args):
        raise AssertionError("the search ran out of budget")

    monkeypatch.setattr(scheduler, "_fill", no_lattice)
    sched = optimal_schedule(block, N2)
    assert sched.starts == {"t0": 0, "t1": 0, "t2": 5, "t3": 4}
    assert makespan(sched) == optimal_makespan(block, N2) == 9
