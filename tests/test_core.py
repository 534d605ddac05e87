import json
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paragas import (BlockError, DuplicateId, EmptyKeySet, MalformedDocument,
                     NonPositiveTime, NonPositiveWeight, Transaction, TxSet,
                     WeightTable, concatenate, format_rational,
                     make_transaction, parse_block, render_block, similar,
                     to_rational)
from paragas.core import (ECHO_CHARS, echo, over_lcm, txs_from_json,
                          txs_to_json)
from paragas.properties import instance_from_dict


def test_to_rational_accepts_ints_fractions_and_strings():
    assert to_rational(3) == 3
    assert to_rational("7/2") == Fraction(7, 2)
    assert to_rational("-4") == -4
    assert to_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_to_rational_hands_a_fraction_back_uncopied():
    third = Fraction(1, 3)
    assert to_rational(third) is third


@pytest.mark.parametrize("bad", ["1.5", "a/b", "1/0", "", "1/-2", True, 2.5,
                                 None, [1], False])
def test_to_rational_rejects_junk(bad):
    with pytest.raises(MalformedDocument):
        to_rational(bad)


_big = st.integers(-10**200, 10**200)
_over_lcm_values = st.lists(st.one_of(
    st.integers(-9, 9), _big,
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 6, 7])),
    st.builds(Fraction, _big, st.integers(1, 10**200))), max_size=8)


@settings(max_examples=300, deadline=None)
@given(values=_over_lcm_values)
@example(values=[])
@example(values=[Fraction(-7, 3)])
@example(values=[Fraction(1, 2), Fraction(2, 3), Fraction(-4, 5)])  # coprime
@example(values=[Fraction(1, 6), 0, Fraction(-5, 6), Fraction(1, 6), -4])
@example(values=[Fraction(10**199 + 1, 10**200 - 1), Fraction(-1, 10**199)])
def test_over_lcm_puts_rationals_over_one_denominator(values):
    nums, den = over_lcm(values)
    # The lcm of the denominators, folded by gcd rather than math.lcm.
    dens = [Fraction(v).denominator for v in values]
    assert den == reduce(lambda a, b: a * b // gcd(a, b), dens, 1)
    # Each numerator stands for the value at its own position.
    assert len(nums) == len(values)
    for n, v in zip(nums, values):
        assert type(n) is int and Fraction(n, den) == v


def test_format_rational_never_decimal():
    assert format_rational(Fraction(7, 2)) == "7/2"
    assert format_rational(Fraction(4)) == "4"


def test_make_transaction_validates():
    tx = make_transaction("a", "3/2", ["k1", "k2"])
    assert tx.time == Fraction(3, 2)
    assert tx.keys == frozenset({"k1", "k2"})
    with pytest.raises(NonPositiveTime):
        make_transaction("a", 0, ["k1"])
    with pytest.raises(NonPositiveTime):
        make_transaction("a", "-1/2", ["k1"])
    with pytest.raises(EmptyKeySet):
        make_transaction("a", 1, [])


def test_similar_and_dominates():
    a = make_transaction("a", 1, ["k1"])
    b = make_transaction("b", 1, ["k1"])
    assert similar(a, b)


def test_concatenate_adds_times_and_unions_keys():
    a = make_transaction("a", 1, ["k1"])
    b = make_transaction("b", "3/2", ["k2"])
    c = concatenate(a, b, "c")
    assert c.time == Fraction(5, 2)
    assert c.keys == frozenset({"k1", "k2"})


def test_txset_rejects_duplicate_ids():
    a = make_transaction("a", 1, ["k1"])
    with pytest.raises(DuplicateId):
        TxSet([a, make_transaction("a", 2, ["k2"])])


def test_txset_set_operations():
    a = make_transaction("a", 1, ["k1"])
    b = make_transaction("b", 2, ["k2"])
    s = TxSet([a])
    s2 = s.with_txs(b)
    assert len(s) == 1  # immutable: with_txs returns a new set
    assert s2.ids == {"a", "b"}
    assert s2.subset({"b"}).ids == {"b"}
    assert s2.total_time() == 3
    assert s2.all_keys() == {"k1", "k2"}
    assert "a" in s2 and a in s2
    with pytest.raises(KeyError):
        s2.subset({"zz"})


def test_shape_key_ignores_ids():
    s1 = TxSet([make_transaction("a", 1, ["k1"]),
                make_transaction("b", 2, ["k2"])])
    s2 = TxSet([make_transaction("x", 2, ["k2"]),
                make_transaction("y", 1, ["k1"])])
    assert s1.shape_key() == s2.shape_key()


def test_weight_table_defaults_and_validation():
    w = WeightTable(weights={"k1": "1/2"}, default_weight=2)
    assert w.get("k1") == Fraction(1, 2)
    assert w.get("k9") == 2
    with pytest.raises(NonPositiveWeight):
        WeightTable(weights={"k1": 0})
    with pytest.raises(NonPositiveWeight):
        WeightTable(default_weight="-1")


def test_parse_block_roundtrip():
    doc = {"transactions": [{"id": "a", "time": "3/2", "keys": ["k1"]},
                            {"id": "b", "time": 2, "keys": ["k1", "k2"]}],
           "weights": {"k1": "1/2"}, "default_weight": 1}
    txs, weights = parse_block(json.dumps(doc))
    assert txs.ids == {"a", "b"}
    assert txs.get("a").time == Fraction(3, 2)
    assert weights.get("k1") == Fraction(1, 2)
    txs2, weights2 = parse_block(render_block(txs, weights))
    assert txs2 == txs
    assert weights2 == weights


@pytest.mark.parametrize("doc", [
    "not json",
    '["a"]',
    '{"transactions": [], "bogus": 1}',
    '{"transactions": [{"id": "a", "time": 1, "keys": ["k1"], "extra": 2}]}',
    '{"transactions": [{"id": "a", "keys": ["k1"]}]}',
    '{"transactions": [{"id": 3, "time": 1, "keys": ["k1"]}]}',
    '{"transactions": {}}',
    '{"transactions": [], "weights": []}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
])
def test_parse_block_rejects_malformed(doc):
    with pytest.raises(MalformedDocument):
        parse_block(doc)


@pytest.mark.parametrize("entry", [
    {"id": "a", "time": 1, "keys": [1]},
    {"id": "a", "time": 1, "keys": ["k1", None]},
    {"id": "a", "time": 1, "keys": [[2]]},
    {"id": "a", "time": 1, "keys": [True]},
    {"id": 5, "time": 1, "keys": ["k1"]},
    {"id": None, "time": 1, "keys": ["k1"]},
], ids=["int-key", "null-key", "list-key", "bool-key", "int-id", "null-id"])
def test_non_string_ids_and_keys_are_refused_not_coerced(entry):
    # Coerced, [1] and ["1"] would name one key, null would be "None".
    doc = {"transactions": [entry, {"id": "b", "time": 1, "keys": ["1"]}]}
    with pytest.raises(MalformedDocument, match="string"):
        parse_block(json.dumps(doc))
    with pytest.raises(MalformedDocument, match="string"):
        make_transaction(entry["id"], entry["time"], entry["keys"])


@pytest.mark.parametrize("doc", [
    '{"transactions": [], "transactions": []}',
    '{"transactions": [{"id": "a", "time": 1, "time": 2, "keys": ["k1"]}]}',
    '{"transactions": [], "weights": {"k1": 1, "k1": 2}}',
])
def test_parse_block_rejects_duplicate_json_keys(doc):
    with pytest.raises(MalformedDocument, match="duplicate"):
        parse_block(doc)


def test_echo_keeps_a_short_repr_and_cuts_a_long_one():
    for value in ("k1", [1, None], "x" * (ECHO_CHARS - 2), ("a", "b")):
        assert echo(value) == repr(value)
    long = "y" * 10**6
    assert echo(long) == \
        f"{repr(long)[:ECHO_CHARS]}... ({10**6 + 2} characters)"
    with pytest.raises(MalformedDocument) as err:
        make_transaction("z" * 10**5, 1, [1])
    assert len(str(err.value)) < 2 * ECHO_CHARS + 100


def test_transaction_identity_is_the_id():
    a1 = Transaction("a", Fraction(1), frozenset({"k1"}))
    a2 = Transaction("a", Fraction(1), frozenset({"k1"}))
    assert a1 == a2
    assert similar(a1, a2)


_ids = st.text(min_size=1, max_size=6)
_keys = st.frozensets(st.text(min_size=1, max_size=4), min_size=1,
                      max_size=4)
_positive = st.fractions(min_value=Fraction(1, 10**6), max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(block=st.dictionaries(_ids, st.tuples(_positive, _keys), max_size=6),
       weights=st.one_of(st.none(), st.builds(
           WeightTable, st.dictionaries(st.text(max_size=4), _positive,
                                        max_size=4), _positive)))
def test_render_then_parse_round_trips(block, weights):
    txs = TxSet(Transaction(tx_id, time, keys)
                for tx_id, (time, keys) in block.items())
    txs2, weights2 = parse_block(render_block(txs, weights))
    assert txs2 == txs
    assert weights2 == (weights or WeightTable())
    assert txs_from_json(txs_to_json(txs)) == txs


# Leaves that no transaction field accepts, and fields that are well formed.
_junk = st.sampled_from([None, True, False, 0, -1, -10**30, 1.5, 2.0, "",
                         "x", "1/0", "nan", "1e3", "-1/2", [], [[]], {}])
_good_field = {
    "id": st.sampled_from(["a", "b", "c"]),
    "time": st.sampled_from([1, 5, 10**30, "3/2", "7/3"]),
    "keys": st.lists(st.sampled_from(["k1", "k2"]), min_size=1, max_size=3),
}
_tx_field = {
    "id": st.one_of(_good_field["id"], _junk),
    "time": st.one_of(_good_field["time"], _junk),
    "keys": st.one_of(_good_field["keys"], st.lists(_junk, max_size=2),
                      _junk),
}
_tx_objects = st.one_of(
    st.fixed_dictionaries(_good_field), st.fixed_dictionaries(_good_field),
    st.fixed_dictionaries(_tx_field, optional={"extra": _junk}),
    st.fixed_dictionaries({}, optional=_tx_field), _junk)


def _outcome(read):
    """What ``read()`` returns, or BlockError when it raises one."""
    try:
        return read()
    except BlockError:
        return BlockError


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_tx_objects, max_size=4))
def test_blocks_and_witnesses_read_transactions_alike(entries):
    # A witness stores transactions as block files do, so both readers must
    # accept the same objects and build the same transactions from them.
    block = _outcome(lambda: parse_block(json.dumps({"transactions":
                                                     entries}))[0])
    base = _outcome(lambda: instance_from_dict("efficiency",
                                               {"base": entries}).base)
    assert block == base
    for entry in entries:
        one = _outcome(lambda: list(parse_block(json.dumps(
            {"transactions": [entry]}))[0]))
        tx = _outcome(lambda: [instance_from_dict("easy_gas_estimation", {
            "block1": [], "block2": [], "tx": entry}).tx])
        assert one == tx
