from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragas import (BASE_FEE_GRID, BaseFeeState, Bid, PricingEnv, SchedulerConfig,
                     WorkloadConfig, base_fee_update, build_block, make_bid,
                     make_transaction, simulate, workload)
from paragas.cli import CSV_COLUMNS, _row
from paragas.core import MalformedDocument
from paragas.feemarket import BaseFeeBelowFloor

from exhaustive import fraction_block

N2 = SchedulerConfig(threads=2)


def tx(tx_id, time, keys):
    return make_transaction(tx_id, time, keys)


def env2():
    return PricingEnv(scheduler_cfg=N2)


def test_bid_validation():
    t = tx("a", 1, ["k1"])
    assert Bid(t, Fraction(0), Fraction(1)).max_price_per_gas == 0
    for price, declared in ((Fraction(-1), Fraction(1)),
                            (Fraction(-1, 3), Fraction(1)),
                            (Fraction(1), Fraction(0)),
                            (Fraction(1), Fraction(-2, 7))):
        with pytest.raises(ValueError):
            Bid(t, price, declared)


def test_declared_gas_is_singleton_estimate():
    e = env2()
    t = tx("a", 2, ["k1", "k2"])
    assert make_bid(t, 1, "current", e).declared_gas == 2
    assert make_bid(t, 1, "weighted_area", e).declared_gas == 6
    assert make_bid(t, 1, "shapley", e).declared_gas == 2
    assert make_bid(t, 1, "xsm", e).declared_gas == Fraction(2, 3)


def test_single_bid_included_and_fee_identity():
    e = env2()
    state = BaseFeeState(base_fee=Fraction(2), target_gas=Fraction(10))
    bid = make_bid(tx("a", 3, ["k1"]), 2, "current", e)
    result = build_block([bid], Fraction(10), "current", e, state)
    assert result.included.ids == {"a"}
    assert result.per_tx_gas["a"] == 3
    assert result.per_tx_fee["a"] == 6  # gas * base_fee
    assert result.gas_used == 3


def test_all_bids_below_base_fee_gives_empty_block():
    e = env2()
    state = BaseFeeState(base_fee=Fraction(5))
    bids = [make_bid(tx("a", 1, ["k1"]), "9/2", "current", e)]
    result = build_block(bids, Fraction(10), "current", e, state)
    assert len(result.included) == 0
    assert result.gas_used == 0
    assert result.makespan == 0


def test_greedy_fills_then_respects_capacity():
    # Weighted area, unit weights: gas 9 for (3,{k1,k2}) and gas 2 for
    # (1,{k3}); equal prices, limit 10: the 9 fits first, the 2 no longer does.
    e = env2()
    state = BaseFeeState(base_fee=Fraction(1))
    big = make_bid(tx("a", 3, ["k1", "k2"]), 1, "weighted_area", e)
    small = make_bid(tx("b", 1, ["k3"]), 1, "weighted_area", e)
    assert big.declared_gas == 9 and small.declared_gas == 2
    result = build_block([small, big], Fraction(10), "weighted_area", e, state)
    assert result.included.ids == {"a"}
    assert result.gas_used == 9


def test_price_ordering_beats_id_ordering():
    e = env2()
    state = BaseFeeState(base_fee=Fraction(1))
    cheap = make_bid(tx("a", 4, ["k1"]), 1, "current", e)
    rich = make_bid(tx("b", 4, ["k2"]), 3, "current", e)
    result = build_block([cheap, rich], Fraction(4), "current", e, state)
    assert result.included.ids == {"b"}


def test_non_easy_gas_recomputed_with_reported_gap():
    e = env2()
    state = BaseFeeState(base_fee=Fraction(1))
    bids = [make_bid(tx("a", 1, ["k1"]), 1, "shapley", e),
            make_bid(tx("b", 1, ["k2"]), 1, "shapley", e)]
    result = build_block(bids, Fraction(10), "shapley", e, state)
    # alone each costs 1; together the block's makespan 1 is split evenly
    assert result.per_tx_gas == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert result.per_tx_gap == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert result.gas_used == 1


def test_base_fee_update_formula():
    state = BaseFeeState(base_fee=Fraction(4), target_gas=Fraction(10))
    assert base_fee_update(state, Fraction(10)).base_fee == 4  # at target
    assert base_fee_update(state, Fraction(20)).base_fee == \
        Fraction(4) * Fraction(9, 8)
    assert base_fee_update(state, Fraction(0)).base_fee == \
        Fraction(4) * Fraction(7, 8)


def test_base_fee_floor():
    state = BaseFeeState(base_fee=Fraction(1, 900))
    assert base_fee_update(state, Fraction(0)).base_fee == Fraction(1, 1000)
    assert state.min_base_fee == Fraction(1, 1000)
    with pytest.raises(TypeError):  # a constant of the class, not a field
        BaseFeeState(min_base_fee=Fraction(1))


def test_starting_base_fee_below_the_floor_is_refused():
    with pytest.raises(BaseFeeBelowFloor):
        BaseFeeState(base_fee=Fraction(1, 100000))
    at_floor = BaseFeeState(base_fee=Fraction(1, 1000))
    assert base_fee_update(at_floor, Fraction(0)) == at_floor


def test_zero_demand_decays_by_seven_eighths():
    e = env2()
    state0 = BaseFeeState(base_fee=Fraction(8), target_gas=Fraction(10))
    results = [result for result, _state in
               simulate([[]] * 4, "current", e, state0, Fraction(20))]
    fees = [result.base_fee for result in results]
    assert fees == [Fraction(8), Fraction(7), Fraction(49, 8),
                    Fraction(343, 64)]
    assert all(result.gas_used == 0 and len(result.included) == 0
               for result in results)


def test_simulation_deterministic_and_capacity_bounded():
    cfg = WorkloadConfig(seed=7, bids_per_block=6)
    state0 = BaseFeeState(base_fee=Fraction(1), target_gas=Fraction(8))
    limit = Fraction(16)

    def run():
        e = env2()
        stream = workload(cfg, 30, "current", e)
        return list(simulate(stream, "current", e, state0, limit))

    r1, r2 = run(), run()
    assert r1 == r2
    for result, _state in r1:
        assert result.gas_used <= limit
        for tx_id, fee in result.per_tx_fee.items():
            assert fee == result.per_tx_gas[tx_id] * result.base_fee


def test_capacity_holds_for_block_dependent_mechanisms():
    cfg = WorkloadConfig(seed=3, bids_per_block=6, key_pool=3)
    limit = Fraction(8)
    for mech in ("shapley", "esm", "xsm", "tpm", "banzhaf"):
        e = env2()
        state0 = BaseFeeState(base_fee=Fraction(1), target_gas=Fraction(4))
        for result, _state in simulate(workload(cfg, 15, mech, e), mech, e,
                                       state0, limit):
            assert result.gas_used <= limit, mech


def test_simulation_csv_shape():
    e = env2()
    state0 = BaseFeeState()
    (result, _state), = simulate([[]], "current", e, state0, Fraction(20))
    assert ",".join(CSV_COLUMNS) == ("block_index,base_fee,gas_used,"
                                     "gas_limit,makespan,included_count")
    assert _row(0, result, Fraction(20)) == (0, "1", "0", "20", "0", 0)


def test_workload_config_parsing():
    cfg = WorkloadConfig.from_json(
        '{"seed": 5, "bids_per_block": 3, "time_range": [1, 2],'
        ' "price_range": [1, 8], "price_denominator": 4}')
    assert cfg.seed == 5
    assert cfg.time_range == (1, 2)
    with pytest.raises(MalformedDocument):
        WorkloadConfig.from_json('{"seed": 1, "bogus": 2}')
    with pytest.raises(MalformedDocument):
        WorkloadConfig.from_json("[" * 100_000 + "]" * 100_000)


G = BASE_FEE_GRID


def test_base_fee_update_rounds_down_to_the_grid():
    # Exactly 1/3 * 9/8 = 3/8; the grid keeps floor(10^9 / 3) units and
    # adds floor(units / 8) of them.
    state = BaseFeeState(base_fee=Fraction(1, 3), target_gas=Fraction(10))
    up = base_fee_update(state, Fraction(20)).base_fee
    assert up == Fraction(333333333 + 41666666, G)
    assert up < Fraction(3, 8)
    down = base_fee_update(state, Fraction(0)).base_fee
    assert down == Fraction(333333333 - 41666666, G)


def test_base_fee_rises_by_at_least_one_unit():
    # floor(u * d / D) is 0 here: the rise is one grid unit.
    state = BaseFeeState(base_fee=Fraction(1, 1000),
                         target_gas=Fraction(10**9))
    new = base_fee_update(state, Fraction(10**9 + 1)).base_fee
    assert new == Fraction(1, 1000) + Fraction(1, G)


def test_off_grid_start_lands_on_grid_and_stays():
    e = env2()
    state0 = BaseFeeState(base_fee=Fraction(1, 3), target_gas=Fraction(10))
    results = [result for result, _state in
               simulate(workload(WorkloadConfig(seed=1), 50, "current", e),
                        "current", e, state0, Fraction(20))]
    assert results[0].base_fee == Fraction(1, 3)
    for result in results[1:]:
        assert G % result.base_fee.denominator == 0


def test_ten_thousand_blocks_stay_on_grid():
    # The exact rational fee used to gain about 1.4 digits per block.
    e = env2()
    blocks = 10_000
    pairs = list(simulate(workload(WorkloadConfig(seed=7), blocks, "current",
                                   e), "current", e, BaseFeeState(),
                          Fraction(20)))
    fees = [result.base_fee for result, _state in pairs]
    fees.append(pairs[-1][1].base_fee)
    assert all(G % fee.denominator == 0 for fee in fees)


_fees = st.one_of(
    st.integers(10**6, 10**11).map(lambda u: Fraction(u, G)),  # on the grid
    st.fractions(Fraction(1, 1000), Fraction(100), max_denominator=10**12))
_gas = st.fractions(Fraction(0), Fraction(60), max_denominator=1000)


@settings(max_examples=300, deadline=None)
@given(fee=_fees, target=st.fractions(Fraction(1, 100), Fraction(30),
                                      max_denominator=100),
       adj=st.integers(1, 16), gas_used=_gas)
def test_base_fee_update_properties(fee, target, adj, gas_used):
    state = BaseFeeState(base_fee=fee, target_gas=target,
                         adjustment_denominator=adj)
    new = base_fee_update(state, gas_used)
    if gas_used == target:
        assert new == state
        return
    assert new.base_fee >= state.min_base_fee
    assert G % new.base_fee.denominator == 0
    if gas_used > target:
        assert new.base_fee > fee
    else:
        assert new.base_fee <= fee
    assert new.target_gas == target and new.adjustment_denominator == adj


def test_equal_prices_are_taken_in_id_order():
    e = env2()
    state = BaseFeeState(base_fee=Fraction(1))
    bids = [make_bid(tx(i, 2, [f"k{i}"]), price, "current", e)
            for i, price in (("c", 2), ("a", 2), ("d", 3), ("b", 2))]
    result = build_block(bids, Fraction(6), "current", e, state)
    assert result.included.ids == {"d", "a", "b"}


# Prices k/d with d from 1 to 7, zero and ties included; base fees off the
# grid, such as 1/3; gas limits over 5, 7, 11 or 13 too, coprime to the
# denominators of the declared gases (times k/1 to k/3, xsm's a third).
_prices = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 7)))
_bid_specs = st.lists(
    st.tuples(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)),
              st.frozensets(st.sampled_from("abcd"), min_size=1, max_size=2),
              _prices),
    max_size=7)


@settings(max_examples=300, deadline=None)
@given(specs=_bid_specs,
       mech=st.sampled_from(["current", "weighted_area", "xsm", "shapley"]),
       base_fee=st.one_of(st.just(Fraction(1, 3)),
                          st.builds(Fraction, st.integers(1, 30),
                                    st.integers(1, 9))),
       gas_limit=st.builds(Fraction, st.integers(1, 40),
                           st.sampled_from([1, 2, 3, 5, 7, 11, 13])),
       threads=st.sampled_from([2, 3]), data=st.data())
def test_integer_packing_matches_a_fraction_packer(specs, mech, base_fee,
                                                   gas_limit, threads, data):
    e = PricingEnv(scheduler_cfg=SchedulerConfig(threads=threads))
    state = BaseFeeState(base_fee=base_fee)
    bids = [make_bid(tx(f"t{i}", time, keys), price, mech, e)
            for i, (time, keys, price) in enumerate(specs)]
    mempool = data.draw(st.permutations(bids))  # not in id order
    result = build_block(mempool, gas_limit, mech, e, state)
    chosen, gases, fees, gaps, used = fraction_block(mempool, gas_limit,
                                                     mech, e, state)
    assert result.chosen == chosen
    assert result.included.ids == {b.tx.tx_id for b in chosen}
    assert list(result.per_tx_gas.items()) == list(gases.items())
    assert list(result.per_tx_fee.items()) == list(fees.items())
    assert list(result.per_tx_gap.items()) == list(gaps.items())
    assert result.gas_used == used
