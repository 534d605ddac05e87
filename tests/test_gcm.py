import gc
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from paragas import (PricingEnv, SchedulerConfig, TxSet, WeightTable,
                     make_transaction, scheduler, subset_value_table)
from paragas.core import Transaction
from paragas.gcm import MECHANISMS, TxNotInSet, _block_prices
from paragas.scheduler import InstanceTooLarge, SubsetValueTable, ValueOracle
from paragas.sampling import SamplerConfig, rng_for, sample_txset

from exhaustive import (banzhaf, marginal_sums, shapley_permutation,
                        shapley_subset)

N2 = SchedulerConfig(threads=2)


def tx(tx_id, time, keys):
    return make_transaction(tx_id, time, keys)


def env2():
    return PricingEnv(scheduler_cfg=N2)


def test_current_gas_is_time():
    block = TxSet([tx("a", 3, ["k2", "k3"]), tx("b", "7/2", ["k1"])])
    e = env2()
    assert e.gas(block, block.get("a"), "current") == 3
    assert e.gas(block, block.get("b"), "current") == Fraction(7, 2)


def test_current_not_efficient_on_parallel_pair():
    block = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k2"])])
    e = env2()
    assert e.block_gas(block, block, "current") == 2
    assert e.value(block) == 1


def test_weighted_area_unit_weights():
    block = TxSet([tx("a", 3, ["k2", "k3"])])
    e = env2()
    assert e.gas(block, block.get("a"), "weighted_area") == 9  # 3 * (1 + 2)


def test_weighted_area_custom_weights():
    block = TxSet([tx("a", 4, ["k1"])])
    e = PricingEnv(weights=WeightTable(weights={"k1": "1/2"}),
                   scheduler_cfg=N2)
    assert e.gas(block, block.get("a"), "weighted_area") == 6  # 4 * 3/2


def test_weighted_area_bundling_strict_for_different_keys():
    e = env2()
    split_block = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k2"])])
    split = e.block_gas(split_block, split_block, "weighted_area")
    bundled_block = TxSet([tx("c", 2, ["k1", "k2"])])
    bundled = e.gas(bundled_block, bundled_block.get("c"), "weighted_area")
    assert split == 4 and bundled == 6
    assert split < bundled  # strict because the key sets differ


def test_shapley_published_values():
    e = env2()
    b1 = TxSet([tx("a", 1, ["k1"]), tx("b", 3, ["k2"]), tx("c", 2, ["k1"])])
    assert e.gas(b1, b1.get("c"), "shapley") == 1  # (2+2+2+0+0+0)/6
    b2 = TxSet([tx("a", 1, ["k1"]), tx("b", 3, ["k2"]), tx("c", 1, ["k2"])])
    assert e.gas(b2, b2.get("c"), "shapley") == Fraction(5, 6)
    single = TxSet([tx("a", 4, ["k1"])])
    assert e.gas(single, single.get("a"), "shapley") == 4


def test_shapley_permutation_equals_subset_form():
    cfg = SamplerConfig(seed=21, max_txs=5, key_pool=4)
    for i in range(40):
        rng = rng_for(cfg, "shapley-forms", i)
        block = sample_txset(rng, cfg, rng.randint(1, 5))
        table = subset_value_table(block, N2)
        e = env2()
        for t in block:
            assert e.gas(block, t, "shapley") == \
                shapley_subset(block, t, table) == \
                shapley_permutation(block, t, table)


def fractional_block(rng, cfg, size, den):
    """A sampled block whose times are the sampled integers over ``den``."""
    return TxSet(Transaction(t.tx_id, t.time / den, t.keys)
                 for t in sample_txset(rng, cfg, size))


def test_one_sweep_prices_equal_per_transaction_oracles():
    cfg = SamplerConfig(seed=41, key_pool=4, time_range=(1, 6))
    for i in range(36):
        rng = rng_for(cfg, "sweep-vs-oracle", i)
        den = (1, 2, 3)[i % 3]
        threads = (2, 3, None)[i // 3 % 3]
        block = fractional_block(rng, cfg, rng.randint(1, 6), den)
        cfg_n = SchedulerConfig(threads=threads)
        table = subset_value_table(block, cfg_n)
        e = PricingEnv(scheduler_cfg=cfg_n)
        for t in block:
            assert e.gas(block, t, "shapley") == \
                shapley_subset(block, t, table), (i, t)
            assert e.gas(block, t, "banzhaf") == \
                banzhaf(block, t, table), (i, t)
            assert e.gas(block, t, "banzhaf_normalized") == \
                banzhaf(block, t, table, normalized=True), (i, t)


def test_shapley_efficiency():
    cfg = SamplerConfig(seed=22, max_txs=5, key_pool=4)
    e = env2()
    for i in range(30):
        rng = rng_for(cfg, "shapley-eff", i)
        block = sample_txset(rng, cfg)
        assert e.block_gas(block, block, "shapley") == e.value(block)


def test_banzhaf_published_values_and_normalization():
    e = env2()
    block = TxSet([tx("tx1", 1, ["k1"]), tx("tx2", 1, ["k1"]),
                   tx("tx3", 1, ["k2"])])
    got = {t.tx_id: e.gas(block, t, "banzhaf") for t in block}
    assert got == {"tx1": Fraction(3, 4), "tx2": Fraction(3, 4),
                   "tx3": Fraction(1, 4)}
    assert sum(got.values()) == Fraction(7, 4)
    assert e.value(block) == 2
    norm = {t.tx_id: e.gas(block, t, "banzhaf_normalized") for t in block}
    for tx_id in got:
        assert norm[tx_id] == got[tx_id] * Fraction(8, 7)
    assert sum(norm.values()) == 2
    single = TxSet([tx("a", 4, ["k1"])])
    assert e.gas(single, single.get("a"), "banzhaf") == 4


def test_tpm_published_values():
    e = env2()
    b1 = TxSet([tx("a", 1, ["k1"]), tx("b", 3, ["k2"]), tx("c", 2, ["k1"])])
    assert e.value(b1) == 3
    assert e.gas(b1, b1.get("c"), "tpm") == 1  # 2/6 * 3
    b2 = TxSet([tx("a", 1, ["k1"]), tx("b", 3, ["k2"]), tx("c", 1, ["k2"])])
    assert e.value(b2) == 4
    assert e.gas(b2, b2.get("c"), "tpm") == Fraction(4, 5)
    single = TxSet([tx("a", 4, ["k1"])])
    assert e.gas(single, single.get("a"), "tpm") == 4


def test_esm_equal_shares():
    e = env2()
    trio = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k1"]), tx("c", 1, ["k1"])])
    assert e.value(trio) == 3
    for t in trio:
        assert e.gas(trio, t, "esm") == 1
    pair = TxSet([tx("a", 1, ["k1"]), tx("b", 2, ["k1"])])
    assert e.value(pair) == 3
    for t in pair:
        assert e.gas(pair, t, "esm") == Fraction(3, 2)
    single = TxSet([tx("a", 4, ["k1"])])
    assert e.gas(single, single.get("a"), "esm") == 4


def test_xsm_exponential_shares():
    e = env2()
    single = TxSet([tx("a", 1, ["k1"])])
    assert e.gas(single, single.get("a"), "xsm") == Fraction(1, 3)
    pair = TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k2"])])
    assert e.block_gas(pair, pair, "xsm") == Fraction(2, 9)
    trio = TxSet([tx("a", 2, ["k1"]), tx("b", 2, ["k1"]), tx("c", 2, ["k1"])])
    assert e.value(trio) == 6
    assert e.gas(trio, trio.get("a"), "xsm") == Fraction(6, 27)


def test_constant_mechanism():
    e = PricingEnv(scheduler_cfg=N2)
    block = TxSet([tx("a", 3, ["k1"]), tx("b", "1/2", ["k2", "k3"])])
    assert e.gas(block, block.get("a"), "constant") == 1
    assert e.gas(block, block.get("b"), "constant") == 1


def test_tx_must_be_member_of_block():
    e = env2()
    block = TxSet([tx("a", 1, ["k1"])])
    stranger = tx("z", 1, ["k1"])
    for mech in MECHANISMS:
        with pytest.raises(TxNotInSet):
            e.gas(block, stranger, mech)


def test_unknown_mechanism_is_refused():
    block = TxSet([tx("a", 1, ["k1"])])
    with pytest.raises(ValueError, match="unknown mechanism 'nope'"):
        env2().gas(block, block.get("a"), "nope")


def test_subset_table_is_kept_with_the_block(monkeypatch):
    # Three mechanisms, each through its own env, fill the table of one
    # block once per thread count; an env with a lower instance cap still
    # refuses the block.
    fills = []
    fill = scheduler._fill

    def counting_fill(sc, threads):
        fills.append(threads)
        return fill(sc, threads)

    monkeypatch.setattr(scheduler, "_fill", counting_fill)
    block = TxSet([tx("a", 1, ["k1"]), tx("b", 2, ["k1", "k2"]),
                   tx("c", 3, ["k2"]), tx("d", 1, ["k3"])])
    for threads, want in ((2, [2]), (3, [2, 3])):
        for mech in ("shapley", "banzhaf", "banzhaf_normalized"):
            env = PricingEnv(scheduler_cfg=SchedulerConfig(threads=threads))
            for t in block:
                env.gas(block, t, mech)
        assert fills == want, threads
    low_cap = PricingEnv(scheduler_cfg=SchedulerConfig(instance_cap=3))
    with pytest.raises(InstanceTooLarge):
        low_cap.gas(block, block.get("a"), "shapley")


def test_a_fallback_fill_serves_every_later_exact_answer(monkeypatch):
    # A whole-block search that runs out of budget takes the subset table
    # through the scheduler's table door, which keeps it with v(T): a
    # Shapley price and an oracle lookup of the block then read that one
    # fill, and the lookup neither schedules greedily nor searches.
    fills = []
    fill, search = scheduler._fill, scheduler._search

    def counting_fill(sc, threads):
        fills.append(threads)
        return fill(sc, threads)

    def exhausted(*args, budget=None, **kwargs):
        if budget is not None:
            raise scheduler._OverBudget
        return search(*args, **kwargs)

    def fail(*_args, **_kwargs):
        raise AssertionError("v(T) of a tabled block was computed again")

    monkeypatch.setattr(scheduler, "_fill", counting_fill)
    monkeypatch.setattr(scheduler, "_search", exhausted)
    # Greedy takes 10 and the static bound is 8, so the block is open.
    block = TxSet([tx("t0", 4, ["k2"]), tx("t1", 5, ["k1"]),
                   tx("t2", 1, ["k1", "k2"]), tx("t3", 5, ["k0"])])
    assert scheduler.optimal_makespan(block, N2) == 9
    assert fills == [2]
    assert env2().block_gas(block, block, "shapley") == 9  # efficiency
    assert fills == [2]
    monkeypatch.setattr(scheduler, "_greedy", fail)
    monkeypatch.setattr(scheduler, "_search", fail)
    assert ValueOracle(N2).value(block) == 9
    assert fills == [2]


def test_a_priced_block_forms_no_reference_cycle():
    # The table and prices kept with the compiled form hold ids, not the
    # TxSet, so dropping the block frees it without the cyclic collector.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        block = TxSet([tx("a", 1, ["k1"]), tx("b", 2, ["k1"]),
                       tx("c", 2, ["k2"])])
        for mech in MECHANISMS:
            env2().block_gas(block, block, mech)
        del block
        gc.collect()
        left = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left & {"TxSet", "_Scaled", "SubsetValueTable"}


def test_block_gas_empty_subset_and_containment():
    e = env2()
    block = TxSet([tx("a", 1, ["k1"])])
    assert e.block_gas(block, TxSet(), "current") == 0
    with pytest.raises(TxNotInSet):
        e.block_gas(block, TxSet([tx("z", 1, ["k1"])]), "current")


def test_banzhaf_normalized_totals_match_value_on_random_blocks():
    cfg = SamplerConfig(seed=31, max_txs=4, key_pool=3)
    e = env2()
    for i in range(20):
        rng = rng_for(cfg, "bznorm", i)
        block = sample_txset(rng, cfg, rng.randint(1, 4))
        assert e.block_gas(block, block, "banzhaf_normalized") == \
            e.value(block)


def key_load_table(n):
    """A block of n transactions, where transaction i has time i + 1 and
    holds keys k(i mod 3) and k(3 + i mod 4), and a monotone table of it
    built without a fill: v(S) is the heaviest load on one key."""
    block = TxSet(make_transaction(f"t{i:02d}", i + 1,
                                   [f"k{i % 3}", f"k{3 + i % 4}"])
                  for i in range(n))
    loads = [[0] * 7]
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        load = list(loads[mask ^ (1 << i)])
        load[i % 3] += i + 1
        load[3 + i % 4] += i + 1
        loads.append(load)
    return block, SubsetValueTable(tuple(tx.tx_id for tx in block), 1,
                                   list(map(max, loads)))


def test_pricing_a_16_tx_table_takes_little_memory():
    # The sums behind the prices are folded 2^12 masks at a time, so the
    # temporary lists stay a few hundred kB: folding the whole 2^16-mask
    # table at once peaked at about 5.2 MB.
    block, table = key_load_table(16)
    tracemalloc.start()
    try:
        prices = _block_prices(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = [factorial(s) * factorial(15 - s) for s in range(16)]
    sums = marginal_sums(block, table.scaled)  # one sweep over every mask
    want_shapley = [Fraction(sum(map(int.__mul__, weights, by_size)),
                             factorial(16)) for by_size in sums]
    want_banzhaf = [Fraction(sum(by_size), 1 << 15) for by_size in sums]
    assert list(prices.shapley.values()) == want_shapley
    assert list(prices.banzhaf.values()) == want_banzhaf
    assert prices.banzhaf_total == sum(want_banzhaf)
    assert sum(want_shapley) == table.scaled[-1]
    assert peak < 1_000_000, peak
