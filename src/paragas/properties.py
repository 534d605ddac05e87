"""Executable mechanism properties, counterexample fixtures and the
mechanism-by-property comparison matrix.

Eight properties are checked; polynomial-time computability is documented in
the expected-matrix data file (complexity notes) and has no runtime check.
A cell counts its trials' outcomes in one tally, keyed by verdict and by
(verdict, strict premise), and reads its symbol from it: "yes" for an
``exact`` property, "<" when every held outcome with a strict premise held
strictly (and there was one), "=" when none held strictly, "<=" otherwise.
A violated cell always carries a replayable witness.

Each property's check validates its instance, raising MalformedInstance,
and returns ``(lhs, rhs, values, strict)``: the two sides of the
conclusion, the named rationals its details report and whether its premise
is strict.  Scheduling monotonicity returns ``lhs`` None when its premise
v1 < v2 fails.  ``check_property`` alone turns that into a CheckOutcome: it
compares the sides (``lhs <= rhs``, or ``lhs == rhs`` for an ``exact``
property), names the verdict, formats the details and builds a violation's
witness with ``instance_to_dict``.  A witness field is encoded and decoded
by the ``_CODECS`` pair of its annotation as written ("TxSet",
"Transaction"), never by a type looked up through ``sys.modules``.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable

from .core import (Transaction, TxSet, concatenate, format_rational,
                   json_object, similar, tx_from_json, tx_to_json,
                   txs_from_json, txs_to_json)
from .gcm import TABLE_MECHANISMS, PricingEnv
from .sampling import (SamplerConfig, rng_for, sample_keys, sample_time,
                       sample_transaction, sample_txset)
from .scheduler import SchedulerConfig

VIOLATED = "violated"
HOLDS_EQUAL = "holds_with_equality"
HOLDS_STRICT = "holds_strictly"
NOT_APPLICABLE = "not_applicable"
FIXTURE_THREADS = (2, 3)  # a fixture's outcome must not depend on these


class MalformedInstance(ValueError):
    pass


class FixtureMismatch(AssertionError):
    pass


@dataclass(frozen=True)
class CheckOutcome:
    verdict: str
    strict_premise: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class PairInstance:
    """For P1-P3 and P6: compare gas of tx1 in T+{tx1} vs tx2 in T+{tx2}."""
    base: TxSet
    tx1: Transaction
    tx2: Transaction


@dataclass(frozen=True)
class SetInclusionInstance:
    base: TxSet
    subset: TxSet
    superset: TxSet


@dataclass(frozen=True)
class BundlingInstance:
    base: TxSet
    tx1: Transaction
    tx2: Transaction
    bundled: Transaction


@dataclass(frozen=True)
class EfficiencyInstance:
    base: TxSet


@dataclass(frozen=True)
class EstimationInstance:
    block1: TxSet
    block2: TxSet
    tx: Transaction


# A witness field's annotation, as written -> (to_json, from_json).
_CODECS = {"TxSet": (txs_to_json, txs_from_json),
           "Transaction": (tx_to_json, tx_from_json)}


def instance_to_dict(instance) -> dict:
    """A witness as JSON: a TxSet becomes a list, a Transaction an object."""
    return {f.name: _CODECS[f.type][0](getattr(instance, f.name))
            for f in fields(instance)}


def instance_from_dict(prop: str, data: dict):
    """Rebuild the instance of ``prop`` from ``instance_to_dict`` output; a
    malformed document raises a BlockError."""
    cls = _spec(prop).instance
    names = [f.name for f in fields(cls)]
    json_object(data, f"{prop} witness", names, required=names)
    return cls(**{f.name: _CODECS[f.type][1](data[f.name])
                  for f in fields(cls)})


# ---------------------------------------------------------------------------
# Property evaluation


def _require_outside(block: TxSet, txs, what: str) -> None:
    """Refuse an instance whose ``txs`` share an id with ``block``, the
    base set they join."""
    if any(tx.tx_id in block for tx in txs):
        raise MalformedInstance(f"{what} must not be in the base set")


def _monotonicity(premise, rule: str):
    """P1-P3: gas(tx1) <= gas(tx2) whenever ``premise(tx1, tx2)`` holds."""
    def check(mech: str, inst: PairInstance, env: PricingEnv) -> tuple:
        tx1, tx2 = inst.tx1, inst.tx2
        _require_outside(inst.base, (tx1, tx2), "tx1/tx2")
        if not premise(tx1, tx2):
            raise MalformedInstance(rule)
        gas1 = env.gas(inst.base.with_txs(tx1), tx1, mech)
        gas2 = env.gas(inst.base.with_txs(tx2), tx2, mech)
        return gas1, gas2, dict(gas1=gas1, gas2=gas2), not similar(tx1, tx2)
    return check


def _check_scheduling_monotonicity(mech: str, inst: PairInstance,
                                   env: PricingEnv) -> tuple:
    tx1, tx2 = inst.tx1, inst.tx2
    _require_outside(inst.base, (tx1, tx2), "tx1/tx2")
    block1 = inst.base.with_txs(tx1)
    block2 = inst.base.with_txs(tx2)
    v1, v2 = env.value(block1), env.value(block2)
    if not v1 < v2:  # the premise is the strict v-inequality
        return None, None, dict(v1=v1, v2=v2), False
    gas1 = env.gas(block1, tx1, mech)
    gas2 = env.gas(block2, tx2, mech)
    return gas1, gas2, dict(v1=v1, v2=v2, gas1=gas1, gas2=gas2), True


def _check_set_inclusion(mech: str, inst: SetInclusionInstance,
                         env: PricingEnv) -> tuple:
    if any(tx not in inst.superset for tx in inst.subset):
        raise MalformedInstance("subset must be contained in superset")
    _require_outside(inst.base, inst.superset, "superset")
    gas1 = env.block_gas(inst.base.with_txs(*inst.subset), inst.subset, mech)
    gas2 = env.block_gas(inst.base.with_txs(*inst.superset), inst.superset,
                         mech)
    return (gas1, gas2, dict(gas1=gas1, gas2=gas2),
            len(inst.superset) > len(inst.subset))


def _check_bundling(mech: str, inst: BundlingInstance,
                    env: PricingEnv) -> tuple:
    tx1, tx2, tx3 = inst.tx1, inst.tx2, inst.bundled
    _require_outside(inst.base, (tx1, tx2, tx3), "tx1/tx2/bundled")
    if not similar(tx3, concatenate(tx1, tx2, tx3.tx_id)):
        raise MalformedInstance("bundled tx must be the concatenation")
    split_block = inst.base.with_txs(tx1, tx2)
    split = env.gas(split_block, tx1, mech) + env.gas(split_block, tx2, mech)
    bundled = env.gas(inst.base.with_txs(tx3), tx3, mech)
    return split, bundled, dict(split=split, bundled=bundled), True


def _check_efficiency(mech: str, inst: EfficiencyInstance,
                      env: PricingEnv) -> tuple:
    total = env.block_gas(inst.base, inst.base, mech)
    value = env.value(inst.base)
    return total, value, dict(total=total, value=value), True


def _check_estimation(mech: str, inst: EstimationInstance,
                      env: PricingEnv) -> tuple:
    for block in (inst.block1, inst.block2):
        _require_outside(block, (inst.tx,), "tx")
    gas1 = env.gas(inst.block1.with_txs(inst.tx), inst.tx, mech)
    gas2 = env.gas(inst.block2.with_txs(inst.tx), inst.tx, mech)
    return gas1, gas2, dict(gas1=gas1, gas2=gas2), True


# ---------------------------------------------------------------------------
# Random instance generation.  Each sampler draws from ``rng`` in a fixed
# order: the matrix for a seed depends on it.


def _pair_sampler(draw_pair):
    """Sampler of a PairInstance: a base set, then ``draw_pair(rng, cfg)``."""
    def sample(rng, cfg: SamplerConfig) -> PairInstance:
        base = sample_txset(rng, cfg, rng.randint(0, cfg.max_txs - 1))
        return PairInstance(base, *draw_pair(rng, cfg))
    return sample


def _nested_keys(rng, cfg: SamplerConfig) -> tuple:
    """(small, big): two key sets with small a subset of big."""
    big = sample_keys(rng, cfg)
    return frozenset(rng.sample(sorted(big), rng.randint(1, len(big)))), big


def _same_time_pair(rng, cfg: SamplerConfig) -> tuple:
    t = sample_time(rng, cfg)
    small, big = _nested_keys(rng, cfg)
    return Transaction("x1", t, small), Transaction("x2", t, big)


def _longer_pair(rng, cfg: SamplerConfig, keys1, keys2) -> tuple:
    t1 = sample_time(rng, cfg)
    return (Transaction("x1", t1, keys1),
            Transaction("x2", t1 + rng.randint(0, 2), keys2))


def _same_keys_pair(rng, cfg: SamplerConfig) -> tuple:
    keys = sample_keys(rng, cfg)
    return _longer_pair(rng, cfg, keys, keys)


def _dominated_pair(rng, cfg: SamplerConfig) -> tuple:
    return _longer_pair(rng, cfg, *_nested_keys(rng, cfg))


def _any_pair(rng, cfg: SamplerConfig) -> tuple:
    return (sample_transaction(rng, cfg, "x1"),
            sample_transaction(rng, cfg, "x2"))


def _sample_set_inclusion(rng, cfg: SamplerConfig) -> SetInclusionInstance:
    # Empty bases matter here: equality cases of the property (same
    # makespan, whole block charged) only show up without background
    # transactions, so sample them often.
    if rng.random() < 0.5:
        base = TxSet()
    else:
        base = sample_txset(rng, cfg, rng.randint(1, max(1, cfg.max_txs - 2)))
    sup_size = rng.randint(1, cfg.max_txs - len(base))
    superset = TxSet(sample_transaction(rng, cfg, f"x{i}")
                     for i in range(sup_size))
    sub_ids = [tx.tx_id for tx in superset if rng.random() < 0.6]
    return SetInclusionInstance(base, superset.subset(sub_ids), superset)


def _sample_bundling(rng, cfg: SamplerConfig) -> BundlingInstance:
    base = sample_txset(rng, cfg, rng.randint(0, max(0, cfg.max_txs - 2)))
    tx1 = sample_transaction(rng, cfg, "x1")
    tx2 = sample_transaction(rng, cfg, "x2")
    return BundlingInstance(base, tx1, tx2, concatenate(tx1, tx2, "x3"))


def _sample_efficiency(rng, cfg: SamplerConfig) -> EfficiencyInstance:
    return EfficiencyInstance(sample_txset(rng, cfg))


def _sample_estimation(rng, cfg: SamplerConfig) -> EstimationInstance:
    block1 = sample_txset(rng, cfg, rng.randint(0, cfg.max_txs - 1),
                          prefix="a")
    block2 = sample_txset(rng, cfg, rng.randint(0, cfg.max_txs - 1),
                          prefix="b")
    return EstimationInstance(block1, block2,
                              sample_transaction(rng, cfg, "x"))


# ---------------------------------------------------------------------------
# The property registry


@dataclass(frozen=True)
class Property:
    """How one property is sampled and checked.  ``exact`` marks a property
    whose conclusion is an equality, so a held cell reads "yes"."""
    instance: type
    sample: Callable  # (rng, SamplerConfig) -> instance
    # (mechanism, instance, PricingEnv) -> (lhs, rhs, values, strict): the
    # conclusion's two sides (lhs None outside the premise), the named
    # rationals of the details and whether the premise is strict.
    check: Callable
    exact: bool = False


REGISTRY = {
    "key_monotonicity": Property(  # P1
        PairInstance, _pair_sampler(_same_time_pair),
        _monotonicity(lambda a, b: a.time == b.time and a.keys <= b.keys,
                      "P1 requires t1 = t2 and K1 subset of K2")),
    "time_monotonicity": Property(  # P2
        PairInstance, _pair_sampler(_same_keys_pair),
        _monotonicity(lambda a, b: a.time <= b.time and a.keys == b.keys,
                      "P2 requires t1 <= t2 and K1 = K2")),
    "key_time_monotonicity": Property(  # P3
        PairInstance, _pair_sampler(_dominated_pair),
        _monotonicity(lambda a, b: a.time <= b.time and a.keys <= b.keys,
                      "P3 requires t1 <= t2 and K1 subset of K2")),
    "set_inclusion": Property(  # P4
        SetInclusionInstance, _sample_set_inclusion, _check_set_inclusion),
    "bundling": Property(  # P5
        BundlingInstance, _sample_bundling, _check_bundling),
    "scheduling_monotonicity": Property(  # P6
        PairInstance, _pair_sampler(_any_pair),
        _check_scheduling_monotonicity),
    "efficiency": Property(  # P7
        EfficiencyInstance, _sample_efficiency, _check_efficiency,
        exact=True),
    "easy_gas_estimation": Property(  # P8
        EstimationInstance, _sample_estimation, _check_estimation,
        exact=True),
}

PROPERTIES = tuple(REGISTRY)


def _spec(prop: str) -> Property:
    try:
        return REGISTRY[prop]
    except KeyError:
        raise MalformedInstance(f"unknown property {prop!r}") from None


def check_property(prop: str, mech: str, instance,
                   env: PricingEnv) -> CheckOutcome:
    """The verdict of ``prop`` for ``mech`` on ``instance``: lhs <= rhs, or
    lhs == rhs for an exact property; a violation carries the instance as
    its witness."""
    spec = _spec(prop)
    lhs, rhs, values, strict = spec.check(mech, instance, env)
    if lhs is None:
        verdict = NOT_APPLICABLE
    elif not (lhs == rhs if spec.exact else lhs <= rhs):
        verdict = VIOLATED
    else:
        verdict = HOLDS_STRICT if lhs < rhs else HOLDS_EQUAL
    witness = instance_to_dict(instance) if verdict == VIOLATED else None
    details = {name: format_rational(v) for name, v in values.items()}
    return CheckOutcome(verdict, strict, witness, details)


def sample_instance(prop: str, rng, cfg: SamplerConfig):
    return _spec(prop).sample(rng, cfg)


# ---------------------------------------------------------------------------
# Known violation witnesses (the appendix counterexamples, plus two
# constructed ones for mechanisms that price each transaction in isolation),
# and the fixtures: the appendix counterexamples replayed through their
# property checks against the published exact numbers.


def _t(tx_id: str, time, keys) -> Transaction:
    return Transaction(tx_id, Fraction(time), frozenset(keys))


def _lemma5() -> PairInstance:
    return PairInstance(TxSet([_t("f1", 1, {"k1"}), _t("f2", 3, {"k2"})]),
                        _t("x1", 2, {"k1"}), _t("x2", 1, {"k2"}))


def _isolation() -> PairInstance:
    # A cheap transaction on a hot key raises the makespan more than an
    # expensive one on a free key; isolation pricing cannot see that.
    return PairInstance(TxSet([_t("f1", 3, {"k1"})]),
                        _t("x1", 2, {"k2"}), _t("x2", 1, {"k1"}))


def _estimation() -> EstimationInstance:
    return EstimationInstance(
        TxSet(), TxSet([_t("a1", 1, {"k1"}), _t("a2", 1, {"k2"})]),
        _t("x", 1, {"k1"}))


# (mechanism, property) -> a function that builds the cell's known violation.
# Each use builds the instance afresh: a block keeps what is computed on it,
# so a shared instance would carry that work from one command to the next.
_KNOWN = {
    ("current", "scheduling_monotonicity"): _isolation,
    ("weighted_area", "scheduling_monotonicity"): _isolation,
    ("shapley", "scheduling_monotonicity"): _lemma5,
    ("banzhaf", "scheduling_monotonicity"): _lemma5,
    ("tpm", "scheduling_monotonicity"): _lemma5,
    ("shapley", "bundling"): lambda: BundlingInstance(
        TxSet([_t("f4", 1, {"k1"})]),
        _t("x1", 1, {"k2"}), _t("x2", 1, {"k2"}), _t("x3", 2, {"k2"})),
    ("esm", "bundling"): lambda: BundlingInstance(
        TxSet([_t("f4", 1, {"k1"})]),
        _t("x1", 1, {"k1"}), _t("x2", 1, {"k1"}), _t("x3", 2, {"k1"})),
    ("shapley", "set_inclusion"): lambda: SetInclusionInstance(
        TxSet([_t("f1", 1, {"k1"})]),
        TxSet([_t("x2", 1, {"k2"}), _t("x3", 1, {"k2"})]),
        TxSet([_t("x2", 1, {"k2"}), _t("x3", 1, {"k2"}),
               _t("x4", 1, {"k1"})])),
    ("banzhaf", "set_inclusion"): lambda: SetInclusionInstance(
        TxSet(),
        TxSet([_t("x1", 1, {"k1"}), _t("x2", 1, {"k1"})]),
        TxSet([_t("x1", 1, {"k1"}), _t("x2", 1, {"k1"}),
               _t("x3", 1, {"k2"})])),
    ("xsm", "set_inclusion"): lambda: SetInclusionInstance(
        TxSet(),
        TxSet([_t("x1", 1, {"k1"})]),
        TxSet([_t("x1", 1, {"k1"}), _t("x2", 1, {"k2"})])),
    ("current", "efficiency"): lambda: EfficiencyInstance(
        TxSet([_t("f1", 1, {"k1"}), _t("f2", 1, {"k2"})])),
    ("weighted_area", "efficiency"): lambda: EfficiencyInstance(
        TxSet([_t("f1", 1, {"k1"})])),
    ("banzhaf", "efficiency"): lambda: EfficiencyInstance(
        TxSet([_t("f1", 1, {"k1"}), _t("f2", 1, {"k1"}),
               _t("f3", 1, {"k2"})])),
    ("xsm", "efficiency"): lambda: EfficiencyInstance(
        TxSet([_t("f1", 1, {"k1"})])),
    **{(mech, "easy_gas_estimation"): _estimation
       for mech in ("shapley", "banzhaf", "tpm", "esm", "xsm")},
}


def known_violations() -> dict:
    """One concrete Violated instance per (mechanism, property) cell that the
    comparison matrix marks as violated."""
    return {cell: build() for cell, build in _KNOWN.items()}


# Each fixture replays the known violations of its cells and compares the
# check's details with the published values: (detail, label, value).  F2
# also publishes the Banzhaf price of each transaction of its block, named
# by id; no check reports those, so they are priced directly.
_FIXTURES = {
    "F1": {("shapley", "scheduling_monotonicity"): (
               ("v1", "v with tx3", 3), ("v2", "v with tx4", 4),
               ("gas1", "shapley tx3", 1), ("gas2", "shapley tx4", "5/6")),
           ("banzhaf", "scheduling_monotonicity"): (
               ("gas1", "banzhaf tx3", 1), ("gas2", "banzhaf tx4", "3/4")),
           ("tpm", "scheduling_monotonicity"): (
               ("gas1", "tpm tx3", 1), ("gas2", "tpm tx4", "4/5"))},
    "F2": {("banzhaf", "efficiency"): (
               ("f1", "banzhaf f1", "3/4"), ("f2", "banzhaf f2", "3/4"),
               ("f3", "banzhaf f3", "1/4"),
               ("total", "banzhaf total", "7/4"), ("value", "v", 2))},
    "F3": {("shapley", "bundling"): (("split", "shapley split", "10/6"),
                                     ("bundled", "shapley bundled", "3/2"))},
    "F4": {("esm", "bundling"): (("split", "esm split", 2),
                                 ("bundled", "esm bundled", "3/2"))},
    "F5": {("shapley", "set_inclusion"): (
               ("gas1", "shapley subset total", "10/6"),
               ("gas2", "shapley superset total", "36/24"))},
    "F6": {("banzhaf", "set_inclusion"): (
               ("gas1", "banzhaf subset total", 2),
               ("gas2", "banzhaf superset total", "7/4"))},
    "F7": {("xsm", "set_inclusion"): (("gas1", "xsm subset total", "1/3"),
                                      ("gas2", "xsm superset total", "2/9"))},
    "F8": {("current", "efficiency"): (("total", "current total", 2),
                                       ("value", "v", 1))},
}


@dataclass(frozen=True)
class FixtureResult:
    fixture: str
    label: str
    computed: Fraction
    expected: Fraction

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def _replay(name: str, cells: dict, env: PricingEnv) -> list[FixtureResult]:
    """Fixture ``name`` at the env's thread count."""
    results = []
    for (mech, prop), published in cells.items():
        inst = _KNOWN[(mech, prop)]()
        details = check_property(prop, mech, inst, env).details
        for detail, label, value in published:
            if detail in details:
                got = Fraction(details[detail])
            elif isinstance(inst, EfficiencyInstance) and detail in inst.base:
                got = env.gas(inst.base, inst.base.get(detail), mech)
            else:
                raise FixtureMismatch(
                    f"{name} {label}: {prop} of {mech} reports no {detail} "
                    f"(at {env.scheduler_cfg.threads} threads)")
            results.append(FixtureResult(name, label, got, Fraction(value)))
    return results


def run_fixture_suite(mech: str | None = None) -> list[FixtureResult]:
    """Replay every fixture that names ``mech`` (all when None) at each
    thread count, and check the published exact rationals.  Raises
    FixtureMismatch on any deviation."""
    chosen = {name: cells for name, cells in _FIXTURES.items()
              if mech is None or any(m == mech for m, _ in cells)}
    for threads in FIXTURE_THREADS:
        env = PricingEnv(scheduler_cfg=SchedulerConfig(threads=threads))
        results = [r for name, cells in chosen.items()
                   for r in _replay(name, cells, env)]
        bad = ", ".join(f"{r.fixture} {r.label}: computed "
                        f"{format_rational(r.computed)} != expected "
                        f"{format_rational(r.expected)}"
                        for r in results if not r.ok)
        if bad:
            raise FixtureMismatch(f"{bad} (at {threads} threads)")
    return results


# ---------------------------------------------------------------------------
# Randomized search and the comparison matrix


def env_pool(cfg: SamplerConfig) -> dict:
    """One pricing environment per thread count the sampler draws from."""
    return {n: PricingEnv(scheduler_cfg=SchedulerConfig(threads=n))
            for n in cfg.threads}


@dataclass(frozen=True)
class MatrixCell:
    symbol: str
    trials: int
    strict_count: int
    equal_count: int
    witness: dict | None = None


def _witness(prop: str, mech: str, threads, outcome: CheckOutcome) -> dict:
    return {"property": prop, "mechanism": mech, "threads": threads,
            "instance": outcome.witness, "expected": outcome.details}


def evaluate_cell(prop: str, mech: str, cfg: SamplerConfig, budget: int,
                  envs: dict, seeded: bool = True) -> MatrixCell:
    """Check ``prop`` for ``mech`` on the known violation of the cell, if
    any and ``seeded``, then on up to ``budget`` sampled instances.  The
    first violation ends the search and is the cell's witness; with
    ``seeded=False`` this is a plain randomized counterexample search."""
    known = _KNOWN.get((mech, prop)) if seeded else None
    if known is not None:
        threads = cfg.threads[0]
        outcome = check_property(prop, mech, known(), envs[threads])
        if outcome.verdict == VIOLATED:
            return MatrixCell("x", 1, 0, 0,
                              _witness(prop, mech, threads, outcome))
    tally = Counter()
    rng = rng_for(cfg, "matrix", mech, prop)
    for trial in range(budget):
        threads = rng.choice(cfg.threads)
        inst = sample_instance(prop, rng, cfg)
        outcome = check_property(prop, mech, inst, envs[threads])
        if outcome.verdict == VIOLATED:
            return MatrixCell("x", trial + 1, tally[HOLDS_STRICT],
                              tally[HOLDS_EQUAL],
                              _witness(prop, mech, threads, outcome))
        tally[outcome.verdict] += 1
        tally[outcome.verdict, outcome.strict_premise] += 1
    if REGISTRY[prop].exact:
        symbol = "yes"
    elif tally[HOLDS_STRICT, True] and not tally[HOLDS_EQUAL, True]:
        symbol = "<"
    elif not tally[HOLDS_STRICT]:
        symbol = "="
    else:
        symbol = "<="
    return MatrixCell(symbol, budget, tally[HOLDS_STRICT], tally[HOLDS_EQUAL])


@dataclass(frozen=True)
class MatrixReport:
    cells: dict  # (mech, prop) -> MatrixCell
    mismatches: tuple  # (mech, prop, computed, expected)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def load_expected_matrix() -> dict:
    with resources.files("paragas.data").joinpath(
            "expected_matrix.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def property_matrix(mechs: Iterable[str] = TABLE_MECHANISMS,
                    cfg: SamplerConfig | None = None,
                    budget: int = 2000,
                    props: Iterable[str] = PROPERTIES) -> MatrixReport:
    cfg = cfg or SamplerConfig()
    envs = env_pool(cfg)
    expected = load_expected_matrix()["rows"]
    cells: dict[tuple[str, str], MatrixCell] = {}
    mismatches = []
    for mech in mechs:
        for prop in props:
            cell = evaluate_cell(prop, mech, cfg, budget, envs)
            cells[(mech, prop)] = cell
            want = expected.get(mech, {}).get(prop)
            if want is not None and cell.symbol != want:
                mismatches.append((mech, prop, cell.symbol, want))
    return MatrixReport(cells, tuple(mismatches))
