"""Acceptance suite.

One test per criterion; with `pytest -v` each prints exactly one PASSED or
FAILED line.  Every numeric comparison is exact rational equality (zero
tolerance); the only non-exact checks are the wall-clock budgets.
"""
import sys
import time
from fractions import Fraction

from paragas import (BaseFeeState, PricingEnv, SamplerConfig, SchedulerConfig,
                     TxSet, WorkloadConfig, base_fee_update, check_property,
                     greedy_schedule, known_violations,
                     load_expected_matrix, make_transaction, makespan,
                     optimal_makespan, optimal_schedule, property_matrix,
                     run_fixture_suite, simulate, subset_value_table,
                     validate_schedule, workload)
from paragas.properties import VIOLATED
from paragas.sampling import rng_for, sample_transaction, sample_txset

from axioms import check_scheduler_axioms
from exhaustive import shapley_permutation, table_value
from lemma import check_lemma_consistency

N2 = SchedulerConfig(threads=2)
N3 = SchedulerConfig(threads=3)

# Mechanisms whose gas for a transaction never depends on the rest of the block.
EASY_ESTIMATION = frozenset({"current", "weighted_area", "constant"})


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


def tx(tx_id, t, keys):
    return make_transaction(tx_id, t, keys)


def test_acceptance_1_fixture_exactness():
    t0 = time.monotonic()
    results = run_fixture_suite()
    elapsed = time.monotonic() - t0
    expected_pairs = {
        ("F1", "shapley tx3"): Fraction(1),
        ("F1", "shapley tx4"): Fraction(5, 6),
        ("F1", "banzhaf tx3"): Fraction(1),
        ("F1", "banzhaf tx4"): Fraction(3, 4),
        ("F1", "tpm tx3"): Fraction(1),
        ("F1", "tpm tx4"): Fraction(4, 5),
        ("F2", "banzhaf total"): Fraction(7, 4),
        ("F2", "v"): Fraction(2),
        ("F3", "shapley split"): Fraction(10, 6),
        ("F3", "shapley bundled"): Fraction(3, 2),
        ("F4", "esm split"): Fraction(2),
        ("F4", "esm bundled"): Fraction(3, 2),
        ("F5", "shapley subset total"): Fraction(10, 6),
        ("F5", "shapley superset total"): Fraction(36, 24),
        ("F6", "banzhaf subset total"): Fraction(2),
        ("F6", "banzhaf superset total"): Fraction(7, 4),
        ("F7", "xsm subset total"): Fraction(1, 3),
        ("F7", "xsm superset total"): Fraction(2, 9),
        ("F8", "current total"): Fraction(2),
        ("F8", "v"): Fraction(1),
    }
    got = {(r.fixture, r.label): r.computed for r in results}
    exact = all(r.ok for r in results) and \
        all(got[k] == v for k, v in expected_pairs.items())
    announce(1, exact and elapsed < 1.0,
             f"{len(results)} exact values at n=2 and n=3, {elapsed:.2f}s")


def test_acceptance_2_table_reproduction():
    t0 = time.monotonic()
    report = property_matrix(cfg=SamplerConfig(seed=0), budget=2000)
    elapsed = time.monotonic() - t0
    expected = load_expected_matrix()["rows"]
    cells = len(expected) * len(next(iter(expected.values())))
    announce(2, report.ok and elapsed < 600,
             f"{cells} cells, 2000 trials/cell budget, "
             f"{len(report.mismatches)} mismatches, {elapsed:.1f}s")


def test_acceptance_3_scheduler_correctness():
    t0 = time.monotonic()
    cfg = SamplerConfig(seed=17, max_txs=7, key_pool=6)
    checked = 0
    ok = True
    for i in range(500):
        rng = rng_for(cfg, "acceptance3", i)
        txs = sample_txset(rng, cfg)
        scfg = SchedulerConfig(threads=rng.choice((2, 3)))
        sched = optimal_schedule(txs, scfg)
        v = makespan(sched)
        ok &= validate_schedule(sched, txs, scfg).valid
        ok &= v <= makespan(greedy_schedule(txs, scfg))
        ok &= v <= txs.total_time()
        ok &= v >= txs.total_time() / scfg.threads
        if len(txs):
            per_key = max(sum((t.time for t in txs if k in t.keys),
                              Fraction(0)) for k in txs.all_keys())
            ok &= v >= per_key
        checked += 1

    axiom_cfg = SamplerConfig(seed=18, max_txs=4, key_pool=4)
    from paragas import ValueOracle
    oracle = ValueOracle(N2)

    def sampler(i):
        rng = rng_for(axiom_cfg, "acceptance3-axioms", i)
        return (sample_txset(rng, axiom_cfg),
                sample_transaction(rng, axiom_cfg, "x1"),
                sample_transaction(rng, axiom_cfg, "x2"))

    axioms = check_scheduler_axioms(oracle.value, sampler, trials=200)
    elapsed = time.monotonic() - t0
    announce(3, ok and axioms.passed and elapsed < 300,
             f"{checked} instances, 200 axiom trials, {elapsed:.1f}s")


def test_acceptance_4_reference_block_makespans():
    block = TxSet([
        tx("tx1", 2, ["k2", "k3", "k4", "k5", "k6", "k7", "k8"]),
        tx("tx2", 4, ["k2", "k3"]),
        tx("tx3", 5, ["k4", "k5", "k6"]),
        tx("tx4", 2, ["k7", "k8"]),
    ])
    v3 = optimal_makespan(block, N3)
    v2 = optimal_makespan(block, N2)
    announce(4, v3 == 7 and v2 == 8, f"v = {v3} at n=3, {v2} at n=2")


def test_acceptance_5_shapley_internal_oracle():
    cfg = SamplerConfig(seed=23, max_txs=6, key_pool=5)
    equal = efficient = 0
    for i in range(200):
        rng = rng_for(cfg, "acceptance5", i)
        block = sample_txset(rng, cfg, rng.randint(0, 6))
        scfg = SchedulerConfig(threads=rng.choice((2, 3)))
        table = subset_value_table(block, scfg)
        env = PricingEnv(scheduler_cfg=scfg)
        gases = {}
        forms_agree = True
        for t in block:
            sub = env.gas(block, t, "shapley")
            perm = shapley_permutation(block, t, table)
            forms_agree &= sub == perm
            gases[t.tx_id] = sub
        equal += forms_agree
        efficient += sum(gases.values(), Fraction(0)) == \
            table_value(table, block.ids)
    announce(5, equal == 200 and efficient == 200,
             f"{equal}/200 form agreements, {efficient}/200 efficient")


def test_acceptance_6_easy_gas_estimation():
    cfg = SamplerConfig(seed=29, max_txs=5, key_pool=5)
    env = PricingEnv(scheduler_cfg=N2)
    fixed = tx("probe", "5/2", ["k1", "k2"])
    stable = True
    for mech in sorted(EASY_ESTIMATION):
        reference = env.gas(TxSet([fixed]), fixed, mech)
        for i in range(100):
            rng = rng_for(cfg, "acceptance6", mech, i)
            block = sample_txset(rng, cfg).with_txs(fixed)
            stable &= env.gas(block, fixed, mech) == reference

    witnesses = 0
    table = known_violations()
    for mech in ("shapley", "banzhaf", "tpm", "esm", "xsm"):
        inst = table[(mech, "easy_gas_estimation")]
        out = check_property("easy_gas_estimation", mech, inst, env)
        witnesses += out.verdict == VIOLATED and out.witness is not None
    announce(6, stable and witnesses == 5,
             f"3 mechanisms stable over 100 blocks, {witnesses}/5 witnesses")


def test_acceptance_7_monotonicity_decomposition():
    cfg = SamplerConfig(seed=31)
    total_violations = total_decomposed = bad = 0
    for mech in ("current", "weighted_area", "shapley", "banzhaf",
                 "tpm", "esm", "xsm"):
        report = check_lemma_consistency(mech, cfg, budget=300)
        total_violations += report.p3_violations
        total_decomposed += report.decomposed
        bad += len(report.inconsistencies)
    announce(7, bad == 0 and total_violations == total_decomposed,
             f"{total_violations} combined violations, all decomposed, "
             f"{bad} inconsistencies over 7x300 trials")


def test_acceptance_8_fee_market_sanity():
    t0 = time.monotonic()
    state = BaseFeeState(base_fee=Fraction(4), target_gas=Fraction(10))
    ratios_ok = (
        base_fee_update(state, Fraction(20)).base_fee
        == state.base_fee * Fraction(9, 8)
        and base_fee_update(state, Fraction(0)).base_fee
        == state.base_fee * Fraction(7, 8))

    cfg = WorkloadConfig(seed=12, bids_per_block=6)
    state0 = BaseFeeState(base_fee=Fraction(1), target_gas=Fraction(8))
    limit = Fraction(16)

    def run():
        env = PricingEnv(scheduler_cfg=N2)
        return [result for result, _state in
                simulate(workload(cfg, 1000, "current", env), "current",
                         env, state0, limit)]

    r1 = run()
    fee_identity = all(
        result.per_tx_fee[tx_id] == result.per_tx_gas[tx_id]
        * result.base_fee
        for result in r1 for tx_id in result.per_tx_fee)
    capacity = all(result.gas_used <= limit for result in r1)
    replay = r1 == run()
    elapsed = time.monotonic() - t0
    announce(8, ratios_ok and fee_identity and capacity and replay
             and elapsed < 60,
             f"1000 blocks, fee identity and 9/8 / 7/8 updates exact, "
             f"replay bit-identical, {elapsed:.1f}s")
