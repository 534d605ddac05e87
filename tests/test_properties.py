import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from paragas import (PROPERTIES, BlockError, FixtureMismatch,
                     MalformedDocument, PricingEnv, SamplerConfig,
                     SchedulerConfig, TxSet, check_property, env_pool,
                     evaluate_cell, gcm, known_violations,
                     load_expected_matrix, make_transaction, properties,
                     property_matrix, run_fixture_suite)
from paragas.cli import main
from paragas.core import NonPositiveTime
from paragas.properties import (HOLDS_EQUAL, HOLDS_STRICT, NOT_APPLICABLE,
                                VIOLATED, BundlingInstance, CheckOutcome,
                                EfficiencyInstance, EstimationInstance,
                                MalformedInstance, MatrixCell, PairInstance,
                                SetInclusionInstance, instance_from_dict,
                                instance_to_dict, sample_instance)
from paragas.sampling import rng_for

from bounded import PAIR_PROPERTIES, check_properties
from lemma import check_lemma_consistency

N2 = SchedulerConfig(threads=2)


def tx(tx_id, time, keys):
    return make_transaction(tx_id, time, keys)


def env2():
    return PricingEnv(scheduler_cfg=N2)


def test_fixture_suite_runs_clean_for_all_mechanisms():
    results = run_fixture_suite()
    assert results  # every value already asserted inside
    assert all(r.ok for r in results)


def test_fixture_suite_filters_by_mechanism():
    banzhaf = {r.fixture for r in run_fixture_suite("banzhaf")}
    assert banzhaf == {"F1", "F2", "F6"}
    xsm = {r.fixture for r in run_fixture_suite("xsm")}
    assert xsm == {"F7"}


# Every fixture value, in order, with its published exact rational.
PINNED_FIXTURES = [
    ("F1", "v with tx3", "3"), ("F1", "v with tx4", "4"),
    ("F1", "shapley tx3", "1"), ("F1", "shapley tx4", "5/6"),
    ("F1", "banzhaf tx3", "1"), ("F1", "banzhaf tx4", "3/4"),
    ("F1", "tpm tx3", "1"), ("F1", "tpm tx4", "4/5"),
    ("F2", "banzhaf f1", "3/4"), ("F2", "banzhaf f2", "3/4"),
    ("F2", "banzhaf f3", "1/4"), ("F2", "banzhaf total", "7/4"),
    ("F2", "v", "2"),
    ("F3", "shapley split", "5/3"), ("F3", "shapley bundled", "3/2"),
    ("F4", "esm split", "2"), ("F4", "esm bundled", "3/2"),
    ("F5", "shapley subset total", "5/3"),
    ("F5", "shapley superset total", "3/2"),
    ("F6", "banzhaf subset total", "2"),
    ("F6", "banzhaf superset total", "7/4"),
    ("F7", "xsm subset total", "1/3"), ("F7", "xsm superset total", "2/9"),
    ("F8", "current total", "2"), ("F8", "v", "1"),
]


def test_fixture_suite_is_pinned():
    got = [(r.fixture, r.label, str(r.computed), str(r.expected))
           for r in run_fixture_suite()]
    assert got == [(f, label, v, v) for f, label, v in PINNED_FIXTURES]
    # A mechanism replays every fixture it appears in, whole; `check`
    # counts these as its fixture_checks (41 for all seven mechanisms).
    counts = {mech: len(run_fixture_suite(mech))
              for mech in ("current", "weighted_area", "shapley", "banzhaf",
                           "tpm", "esm", "xsm")}
    assert counts == {"current": 2, "weighted_area": 0, "shapley": 12,
                      "banzhaf": 15, "tpm": 8, "esm": 2, "xsm": 2}
    assert sum(counts.values()) == 41


@pytest.mark.parametrize("wrong_at", [(2, 3), (3,)], ids=["both", "3"])
def test_a_wrong_fixture_value_fails_the_suite_and_check(monkeypatch, capsys,
                                                          wrong_at):
    # ESM charges one unit too much at the thread counts in wrong_at.
    esm = gcm._GAS["esm"]
    monkeypatch.setitem(gcm._GAS, "esm", lambda block, tx, env: esm(
        block, tx, env) + (1 if env.scheduler_cfg.threads in wrong_at else 0))
    with pytest.raises(FixtureMismatch, match="F4 esm split"):
        run_fixture_suite("esm")
    code = main(["check", "--mech", "esm", "--prop", "bundling",
                 "--budget", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(line.startswith("  FAIL: fixture mismatch (esm): F4 esm split")
               for line in lines), lines
    assert lines[-1] == "FAILED"


def test_a_detail_the_check_no_longer_reports_is_a_mismatch(monkeypatch):
    # With every makespan equal, F1's scheduling premise v1 < v2 fails, so
    # its check reports v1 and v2 but no gas.
    monkeypatch.setattr(PricingEnv, "value", lambda self, block: Fraction(3))
    with pytest.raises(FixtureMismatch, match="F1 shapley tx3"):
        run_fixture_suite("tpm")


def test_scheduling_monotonicity_violation_shapley():
    base = TxSet([tx("f1", 1, ["k1"]), tx("f2", 3, ["k2"])])
    inst = PairInstance(base, tx("x1", 2, ["k1"]), tx("x2", 1, ["k2"]))
    out = check_property("scheduling_monotonicity", "shapley", inst, env2())
    assert out.verdict == VIOLATED
    assert out.details == {"v1": "3", "v2": "4", "gas1": "1", "gas2": "5/6"}
    assert out.witness is not None


def test_scheduling_monotonicity_not_applicable_without_strict_premise():
    base = TxSet()
    inst = PairInstance(base, tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"]))
    out = check_property("scheduling_monotonicity", "shapley", inst, env2())
    assert out.verdict == NOT_APPLICABLE  # v1 == v2 == 1


def test_efficiency_violation_current():
    inst = EfficiencyInstance(TxSet([tx("a", 1, ["k1"]), tx("b", 1, ["k2"])]))
    out = check_property("efficiency", "current", inst, env2())
    assert out.verdict == VIOLATED
    assert out.details == {"total": "2", "value": "1"}


def test_bundling_holds_for_banzhaf_on_samples():
    cfg = SamplerConfig(seed=9, max_txs=4, key_pool=3)
    e = env2()
    rng = rng_for(cfg, "bundling-banzhaf")
    for _ in range(30):
        inst = sample_instance("bundling", rng, cfg)
        out = check_property("bundling", "banzhaf", inst, e)
        assert out.verdict in (HOLDS_EQUAL, HOLDS_STRICT)


def test_key_monotonicity_current_always_equal():
    base = TxSet([tx("t0", 2, ["k3"])])
    inst = PairInstance(base, tx("x1", 2, ["k1"]), tx("x2", 2, ["k1", "k2"]))
    out = check_property("key_monotonicity", "current", inst, env2())
    assert out.verdict == HOLDS_EQUAL
    assert out.strict_premise


def test_monotonicity_premises_enforced():
    e = env2()
    base = TxSet()
    bad = PairInstance(base, tx("x1", 2, ["k1"]), tx("x2", 1, ["k1"]))
    with pytest.raises(MalformedInstance):
        check_property("time_monotonicity", "current", bad, e)
    bad_keys = PairInstance(base, tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"]))
    with pytest.raises(MalformedInstance):
        check_property("key_monotonicity", "current", bad_keys, e)
    overlapping = PairInstance(TxSet([tx("x1", 1, ["k1"])]),
                               tx("x1", 1, ["k1"]), tx("x2", 1, ["k1"]))
    with pytest.raises(MalformedInstance):
        check_property("key_time_monotonicity", "current", overlapping, e)


def test_set_inclusion_instance_validation():
    e = env2()
    sub = TxSet([tx("x1", 1, ["k1"])])
    sup = TxSet([tx("x2", 1, ["k1"])])
    with pytest.raises(MalformedInstance):
        check_property("set_inclusion", "current",
                       SetInclusionInstance(TxSet(), sub, sup), e)
    mismatched = SetInclusionInstance(
        TxSet(), TxSet([tx("x1", 2, ["k1"])]),
        TxSet([tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"])]))
    with pytest.raises(MalformedInstance):
        check_property("set_inclusion", "current", mismatched, e)
    # The superset joins the base, so no id may be in both, even for the
    # same (time, keys).
    overlapping = SetInclusionInstance(
        TxSet([tx("x2", 1, ["k2"])]), TxSet([tx("x1", 1, ["k1"])]),
        TxSet([tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"])]))
    with pytest.raises(MalformedInstance):
        check_property("set_inclusion", "current", overlapping, e)


@pytest.mark.parametrize("where", ["block1", "block2"])
def test_estimation_instance_tx_must_be_outside_both_blocks(where):
    x = tx("x", 1, ["k1"])
    blocks = {"block1": TxSet([tx("a1", 1, ["k1"])]),
              "block2": TxSet([tx("b1", 2, ["k2"])])}
    blocks[where] = blocks[where].with_txs(x)
    with pytest.raises(MalformedInstance):
        check_property("easy_gas_estimation", "current",
                       EstimationInstance(tx=x, **blocks), env2())


def test_bundling_instance_must_be_concatenation():
    e = env2()
    bad = BundlingInstance(TxSet(), tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"]),
                           tx("x3", 3, ["k1", "k2"]))
    with pytest.raises(MalformedInstance):
        check_property("bundling", "current", bad, e)


def test_all_known_violations_verify_and_replay():
    e = env2()
    table = known_violations()
    expected = load_expected_matrix()["rows"]
    for (mech, prop), inst in table.items():
        assert expected[mech][prop] == "x"
        out = check_property(prop, mech, inst, e)
        assert out.verdict == VIOLATED, (mech, prop)
        # replay the serialized witness and get identical rationals
        replayed = instance_from_dict(prop, out.witness)
        again = check_property(prop, mech, replayed, e)
        assert again.verdict == VIOLATED
        assert again.details == out.details


def test_every_expected_x_cell_has_a_known_violation():
    expected = load_expected_matrix()["rows"]
    table = known_violations()
    for mech, row in expected.items():
        for prop, symbol in row.items():
            if symbol == "x":
                assert (mech, prop) in table, (mech, prop)


def test_instance_serialization_roundtrip():
    insts = [
        PairInstance(TxSet([tx("t0", "3/2", ["k1"])]),
                     tx("x1", 1, ["k1"]), tx("x2", 2, ["k1", "k2"])),
        SetInclusionInstance(TxSet(), TxSet([tx("x1", 1, ["k1"])]),
                             TxSet([tx("x1", 1, ["k1"]),
                                    tx("x2", 1, ["k2"])])),
        BundlingInstance(TxSet(), tx("x1", 1, ["k1"]), tx("x2", 1, ["k2"]),
                         tx("x3", 2, ["k1", "k2"])),
        EfficiencyInstance(TxSet([tx("a", 1, ["k1"])])),
        EstimationInstance(TxSet(), TxSet([tx("a", 1, ["k1"])]),
                           tx("x", 1, ["k1"])),
    ]
    props = ["key_time_monotonicity", "set_inclusion", "bundling",
             "efficiency", "easy_gas_estimation"]
    for prop, inst in zip(props, insts):
        assert instance_from_dict(prop, instance_to_dict(inst)) == inst
    cfg = SamplerConfig(seed=2)
    for prop in PROPERTIES:
        inst = sample_instance(prop, rng_for(cfg, "roundtrip", prop), cfg)
        assert instance_from_dict(prop, instance_to_dict(inst)) == inst


def test_malformed_witness_is_a_typed_error():
    good = {"id": "a", "time": 1, "keys": ["k1"]}
    for bad in ({"base": [{**good, "time": 0}]},   # time must be > 0
                {"base": [{**good, "keys": []}]},  # keys must be non-empty
                {"base": [good, good]},            # duplicate id
                {"base": [{"id": "a", "time": 1}]},
                {"base": good},
                {"base": [good], "extra": []},
                []):
        with pytest.raises(BlockError):
            instance_from_dict("efficiency", bad)
    with pytest.raises(NonPositiveTime):
        instance_from_dict("easy_gas_estimation", {
            "block1": [], "block2": [], "tx": {**good, "time": "-1/2"}})
    with pytest.raises(MalformedDocument):
        instance_from_dict("bundling", {"base": []})


def test_witness_with_a_number_for_an_id_or_key_is_refused():
    good = {"id": "a", "time": 1, "keys": ["k1"]}
    for bad in ({**good, "id": 5}, {**good, "keys": [1]},
                {**good, "keys": [None]}):
        with pytest.raises(MalformedDocument, match="string"):
            instance_from_dict("efficiency", {"base": [bad]})


def test_search_counterexample_finds_and_misses():
    cfg = SamplerConfig(seed=1, max_txs=4, key_pool=3)
    envs = env_pool(cfg)
    hit = evaluate_cell("set_inclusion", "shapley", cfg, 5000, envs,
                        seeded=False).witness
    assert hit is not None
    assert hit["mechanism"] == "shapley"
    miss = evaluate_cell("key_monotonicity", "weighted_area", cfg, 300, envs,
                         seeded=False).witness
    assert miss is None
    p8 = evaluate_cell("easy_gas_estimation", "tpm", cfg, 500, envs,
                       seeded=False).witness
    assert p8 is not None


def test_property_matrix_small_budget_matches_expected():
    report = property_matrix(cfg=SamplerConfig(seed=0), budget=150)
    assert report.ok, report.mismatches
    assert report.mismatches == ()
    assert report.cells[("current", "efficiency")].symbol == "x"
    assert report.cells[("current", "efficiency")].witness is not None


def test_matrix_cell_symbols_match_published_rows():
    expected = load_expected_matrix()["rows"]
    assert expected["current"] == {
        "key_monotonicity": "=", "time_monotonicity": "<",
        "key_time_monotonicity": "<=", "set_inclusion": "<",
        "bundling": "=", "scheduling_monotonicity": "x",
        "efficiency": "x", "easy_gas_estimation": "yes"}
    assert expected["esm"] == {
        "key_monotonicity": "<=", "time_monotonicity": "<=",
        "key_time_monotonicity": "<=", "set_inclusion": "<=",
        "bundling": "x", "scheduling_monotonicity": "<",
        "efficiency": "yes", "easy_gas_estimation": "x"}
    assert expected["xsm"]["bundling"] == "<"


def test_evaluate_cell_reports_mismatch_against_wrong_expectation():
    cfg = SamplerConfig(seed=0)
    envs = env_pool(cfg)
    cell = evaluate_cell("efficiency", "shapley", cfg, 50, envs, seeded=False)
    assert cell.symbol == "yes"
    cell = evaluate_cell("efficiency", "banzhaf", cfg, 200, envs, seeded=False)
    assert cell.symbol == "x"  # found by search even without the seeded witness
    assert cell.witness is not None


def _script_trials(monkeypatch, outcomes) -> list:
    """Make evaluate_cell's trials return ``outcomes`` in order, sampling
    nothing; the returned list holds the outcomes not yet handed out."""
    left = [CheckOutcome(*outcome) for outcome in outcomes]
    monkeypatch.setattr(properties, "sample_instance", lambda *args: None)
    monkeypatch.setattr(properties, "check_property",
                        lambda *args: left.pop(0))
    return left


S, E, NA = HOLDS_STRICT, HOLDS_EQUAL, NOT_APPLICABLE


@pytest.mark.parametrize("prop, outcomes, symbol", [
    # A strict premise that always held strictly: "<".
    ("key_monotonicity", [(S, True), (S, True), (E, False)], "<"),
    # One equality under a strict premise among strict outcomes: "<=".
    ("key_monotonicity", [(S, True), (E, True), (S, True)], "<="),
    # Strict outcomes, but none under a strict premise: "<=".
    ("key_monotonicity", [(S, False), (E, False)], "<="),
    # Nothing held strictly: "=".
    ("key_monotonicity", [(E, True), (E, False), (E, True)], "="),
    # Nothing applied: "=", with no outcome counted.
    ("scheduling_monotonicity", [(NA, False)] * 4, "="),
    # The same equalities under an equality property: "yes".
    ("efficiency", [(E, True), (E, True), (E, True)], "yes"),
])
def test_a_cell_is_graded_from_the_tally_of_its_outcomes(monkeypatch, prop,
                                                         outcomes, symbol):
    cfg = SamplerConfig(seed=0)
    _script_trials(monkeypatch, outcomes)
    cell = evaluate_cell(prop, "current", cfg, len(outcomes), env_pool(cfg),
                         seeded=False)
    strict = sum(verdict == S for verdict, _ in outcomes)
    equal = sum(verdict == E for verdict, _ in outcomes)
    assert cell == MatrixCell(symbol, len(outcomes), strict, equal)


def test_a_violation_ends_the_cell_with_the_counts_so_far(monkeypatch):
    cfg = SamplerConfig(seed=0)
    witness, details = {"base": []}, {"total": "2", "value": "1"}
    left = _script_trials(monkeypatch, [
        (S, True), (NA, False), (E, False), (S, False),
        (VIOLATED, True, witness, details), (S, True), (E, True)])
    cell = evaluate_cell("efficiency", "current", cfg, 7, env_pool(cfg),
                         seeded=False)
    assert (cell.symbol, cell.trials, cell.strict_count,
            cell.equal_count) == ("x", 5, 2, 1)
    assert cell.witness["instance"] == witness
    assert cell.witness["expected"] == details
    assert cell.witness["property"] == "efficiency"
    assert cell.witness["mechanism"] == "current"
    assert cell.witness["threads"] in cfg.threads
    assert len(left) == 2  # no trial after the violation


def test_lemma_consistency_all_mechanisms():
    cfg = SamplerConfig(seed=4, max_txs=4, key_pool=4)
    for mech in ("current", "weighted_area", "shapley", "esm"):
        report = check_lemma_consistency(mech, cfg, budget=120)
        assert report.ok, report.inconsistencies


def test_properties_tuple_is_stable():
    assert PROPERTIES == tuple(load_expected_matrix()["properties"])


def test_no_pair_property_cell_is_violated_on_a_small_domain():
    # Every base of 0-2 transactions and every premise-meeting pair over
    # times {1, 2} x key sets {a}, {b}, {a, b}, at 2 and 3 threads, for
    # P1-P3, P5 and P6 in every cell that the expected matrix does not mark
    # x: a finite, seed-free statement behind those cells.
    report = check_properties(PAIR_PROPERTIES)
    assert report.violations == ()
    assert report.checks == 27440


def test_no_set_or_exact_property_cell_is_violated_on_a_small_domain():
    # Over the same shapes and threads, in every cell not marked x: P4 on
    # every base of 0-2 transactions, superset of 1-2 and sub-multiset of
    # it; P7 on every block of 1-5 transactions; P8 on every ordered pair
    # of blocks of 0-2 transactions with one transaction added to both.
    report = check_properties(("set_inclusion", "efficiency",
                               "easy_gas_estimation"))
    assert report.violations == ()
    assert report.checks == 20160 + 2766 + 18816


# Imports paragas, drops it from sys.modules and imports it again, as the
# benchmark does between its timed set-ups; the first import keeps running.
_REIMPORT = """
import sys
from paragas import properties as first
for name in [n for n in sys.modules if n.split(".")[0] == "paragas"]:
    del sys.modules[name]
import paragas.properties
report = first.property_matrix(("xsm",), budget=1, props=("set_inclusion",))
print(report.cells[("xsm", "set_inclusion")].witness["instance"]["subset"])
"""


def test_a_witness_is_built_after_the_package_is_imported_again():
    # A witness names its fields' types by the values it holds, not by
    # resolving annotations through sys.modules, where a later import of
    # the package now sits with classes of its own.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[{'id': 'x1', 'time': '1', 'keys': ['k1']}]\n"


# Builds a witness with the first import of paragas, imports the package
# again and reads the witness back with the first import.
_REREAD = """
import sys
from paragas import properties as first
inst = first.known_violations()[("xsm", "set_inclusion")]
witness = first.instance_to_dict(inst)
for name in [n for n in sys.modules if n.split(".")[0] == "paragas"]:
    del sys.modules[name]
import paragas.properties
print(first.instance_from_dict("set_inclusion", witness) == inst)
"""


def test_a_witness_is_read_after_the_package_is_imported_again():
    # A witness field is decoded by the codec of its annotation as written,
    # not by a type resolved through sys.modules, which now holds the
    # second import's classes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _REREAD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
