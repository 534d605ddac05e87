"""Workloads of the paragas benchmark.

A workload turns the run's ``--seed`` into inputs (argv lists and block JSON
files), groups the commands into jobs, and checks every output.  Jobs are
issued in passes; a run repeats passes until its time is up, so a run always
ends on a whole pass.

Why each workload exists, and the layers it stresses, is in README.md.
"""
from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Budget per matrix cell: below about 250 trials the statistical
# classification of weighted_area/bundling (an equality case seen in ~3% of
# trials) misses its "<=" often enough that `check` reports a mismatch.
MATRIX_BUDGET = 300
# The comparison matrix, 7 mechanisms by 8 properties.  A matrix pass checks
# each cell with a command of its own: one whole-matrix command takes 11-17 s
# on a 2-core x86 box, so a run would hold only two or three latency
# samples.  A cell command costs 2 ms (a seeded violation found at once) to
# 1.7 s (a shapley or banzhaf cell at full budget).
MATRIX_MECHANISMS = ("current", "weighted_area", "shapley", "banzhaf", "tpm",
                     "esm", "xsm")
MATRIX_PROPERTIES = ("key_monotonicity", "time_monotonicity",
                     "key_time_monotonicity", "set_inclusion", "bundling",
                     "scheduling_monotonicity", "efficiency",
                     "easy_gas_estimation")
MARKET_BLOCKS = 1000
MARKET_TARGET = 10
MARKET_GAS_LIMIT = 20

# The price catalogue: (transactions, threads, key pool, time denominator,
# draw).  Each level of each dimension appears at least twice.  A small key
# pool is not paired with unbounded threads: there a 10-transaction block's
# subset table took over a minute.  The cost of one drawn shape ranges from
# 0.1 s to minutes, so each block is a fixed draw, picked among the first ten
# so that its three commands took about 0.7-2 s on a 2-core x86 box: one
# pass then takes about 9 s at reference speed and a run holds two passes,
# while the subset tables still take most of the time.
PRICE_CATALOGUE = (
    (9, "2", 4, 1, 5), (9, "unbounded", 10, 2, 8), (9, "3", 4, 2, 5),
    (10, "3", 4, 3, 5), (10, "2", 4, 2, 6), (11, "unbounded", 10, 3, 1),
    (11, "3", 10, 1, 2),
)
# Shapes come from this fixed sampler seed; the run's seed renames
# transactions and keys and orders the blocks, so runs with different seeds
# do the same work.
PRICE_SHAPE_SEED = 0

_RATIONAL = re.compile(r"^(0|[1-9]\d*)(/[1-9]\d*)?$")


@dataclass(frozen=True)
class Outcome:
    code: object  # exit code, or a description of the exception raised
    out: str
    err: str


@dataclass(frozen=True)
class Job:
    """Commands issued back to back and checked together.

    ``check`` returns one failure reason (or None) per command and the
    number of work units the job completed.
    """
    argvs: tuple
    check: Callable[[list], tuple]


@dataclass(frozen=True)
class Plan:
    pass_jobs: Callable[[int], list]
    unit: str
    trace_passes: int
    replay: bool = False  # re-run the first job and require identical output


class CheckFailed(Exception):
    pass


def _rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise CheckFailed(f"not a p/q string: {text!r}")
    return Fraction(text)


def _exit_ok(o: Outcome) -> None:
    if o.code != 0:
        raise CheckFailed(f"exit {o.code}: {o.err.strip()[:200]}")


def _per_command(checks: list) -> list:
    reasons = []
    for fn in checks:
        try:
            fn()
            reasons.append(None)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError,
                AttributeError) as exc:
            reasons.append(f"{type(exc).__name__}: {exc}")
    return reasons


# ---------------------------------------------------------------------------
# matrix


def matrix(pg, seed: int, workdir: Path, budget: int = MATRIX_BUDGET,
           cells: tuple = tuple((m, p) for m in MATRIX_MECHANISMS
                                for p in MATRIX_PROPERTIES)) -> Plan:
    """Every cell of the comparison matrix per pass, on consecutive seeds,
    one `paragas check --mech M --prop P` per cell."""
    def check(outs):
        units = 0

        def verify():
            nonlocal units
            o = outs[0]
            _exit_ok(o)
            doc = json.loads(o.out)
            if doc["ok"] is not True or doc["failures"]:
                raise CheckFailed(f"check not ok: {doc['failures'][:3]}")
            units = sum(cell["trials"] for cell in doc["cells"].values())
        reasons = _per_command([verify])
        return reasons, units if reasons == [None] else 0

    def pass_jobs(p):
        return [Job((("check", "--mech", mech, "--prop", prop, "--seed",
                      str(seed * 1000 + p), "--budget", str(budget),
                      "--format", "json"),), check)
                for mech, prop in cells]
    return Plan(pass_jobs, "trials", trace_passes=1)


# ---------------------------------------------------------------------------
# price


def _price_shapes(pg, catalogue) -> list:
    sampling = pg.sampling
    shapes = []
    for size, threads, pool, den, draw in catalogue:
        cfg = sampling.SamplerConfig(seed=PRICE_SHAPE_SEED, key_pool=pool,
                                     time_range=(1, 4 * den))
        rng = sampling.rng_for(cfg, "price", draw)
        txs = sampling.sample_txset(rng, cfg, size)
        shapes.append((threads, [(tx.time / den, sorted(tx.keys))
                                 for tx in txs]))
    return shapes


def _relabel(pg, shape, rng: random.Random):
    # Ids rise in shape order, so the block keeps its transaction order (ids
    # sort it) and the exact search visits the same tree under every seed.
    ids = sorted(rng.sample(range(10 ** 6), len(shape)))
    names: dict[str, str] = {}
    txs = []
    for (time, keys), num in zip(shape, ids):
        renamed = [names.setdefault(k, f"s{rng.randrange(16 ** 6):06x}")
                   for k in keys]
        txs.append(pg.core.Transaction(f"tx{num:06d}", time,
                                       frozenset(renamed)))
    return pg.core.TxSet(txs)


def _check_gas(o: Outcome, txs) -> Fraction:
    _exit_ok(o)
    doc = json.loads(o.out)
    value = _rational(doc["block_value"])
    per_tx = {k: _rational(v) for k, v in doc["per_tx"].items()}
    if set(per_tx) != set(txs.ids):
        raise CheckFailed("per_tx ids differ from the block")
    if sum(per_tx.values()) != value or _rational(doc["total"]) != value:
        raise CheckFailed(f"gas total != block_value {doc['block_value']}")
    return value


def _check_schedule(o: Outcome, txs, threads: int | None,
                    values: list) -> None:
    _exit_ok(o)
    doc = json.loads(o.out)
    starts = {k: _rational(v) for k, v in doc["starts"].items()}
    if set(starts) != set(txs.ids):
        raise CheckFailed("schedule ids differ from the block")
    if doc["validity"]["valid"] is not True:
        raise CheckFailed("schedule reported invalid")
    items = [(tx, starts[tx.tx_id]) for tx in txs]
    for i, (a, sa) in enumerate(items):
        for b, sb in items[i + 1:]:
            if a.keys & b.keys and sa < sb + b.time and sb < sa + a.time:
                raise CheckFailed(f"{a.tx_id} and {b.tx_id} overlap")
    if threads is not None:
        for _, s in items:
            if sum(1 for tx, t in items if t <= s < t + tx.time) > threads:
                raise CheckFailed(f"more than {threads} running at {s}")
    span = max(s + tx.time for tx, s in items)
    if _rational(doc["makespan"]) != span:
        raise CheckFailed("makespan is not the schedule's end")
    if any(v != span for v in values):
        raise CheckFailed(f"makespan {span} != block_value {values}")
    load: dict[str, Fraction] = {}
    for tx in txs:
        for k in tx.keys:
            load[k] = load.get(k, Fraction(0)) + tx.time
    bound = max(max(load.values()), max(tx.time for tx in txs))
    if threads is not None:
        bound = max(bound, txs.total_time() / threads)
    if span < bound:
        raise CheckFailed(f"makespan {span} below lower bound {bound}")


def price(pg, seed: int, workdir: Path,
          catalogue: tuple = PRICE_CATALOGUE) -> Plan:
    """Per block: Shapley gas, normalised Banzhaf gas and the exact schedule,
    each a separate command with its own fresh pricing environment.

    Every pass renames the blocks afresh.  The first pass is written during
    set-up; each later one when it starts, outside the command timings."""
    shapes = _price_shapes(pg, catalogue)

    def pass_jobs(p):
        rng = random.Random(f"price|{seed}|{p}")
        order = list(range(len(shapes)))
        rng.shuffle(order)
        jobs = []
        for b in order:
            threads, shape = shapes[b]
            txs = _relabel(pg, shape, rng)
            path = workdir / f"price-{p}-{b}.json"
            path.write_text(pg.core.render_block(txs))
            jobs.append(_price_job(str(path), txs, threads))
        return jobs

    first = pass_jobs(0)
    return Plan(lambda p: first if p == 0 else pass_jobs(p), "blocks",
                trace_passes=1)


def _price_job(path: str, txs, threads: str) -> Job:
    n = None if threads == "unbounded" else int(threads)

    def check(outs):
        values = []

        def gas(o):
            return lambda: values.append(_check_gas(o, txs))
        reasons = _per_command([
            gas(outs[0]), gas(outs[1]),
            lambda: _check_schedule(outs[2], txs, n, values)])
        return reasons, int(reasons == [None, None, None])

    t = ("--threads", threads)
    return Job((("gas", path, "--mech", "shapley", "--format", "json") + t,
                ("gas", path, "--mech", "banzhaf_normalized",
                 "--format", "json") + t,
                ("schedule", path, "--format", "json") + t), check)


# ---------------------------------------------------------------------------
# market

_CSV_HEADER = ["block_index", "base_fee", "gas_used", "gas_limit",
               "makespan", "included_count"]


def _check_market(o: Outcome, blocks: int, floor: Fraction) -> None:
    _exit_ok(o)
    rows = list(csv.reader(io.StringIO(o.out)))
    if rows[0] != _CSV_HEADER:
        raise CheckFailed(f"CSV header {rows[0]}")
    if len(rows) != blocks + 1:
        raise CheckFailed(f"{len(rows) - 1} rows for {blocks} blocks")
    target, limit = Fraction(MARKET_TARGET), Fraction(MARKET_GAS_LIMIT)
    prev = None
    for i, row in enumerate(rows[1:]):
        if row[0] != str(i) or not row[5].isdigit():
            raise CheckFailed(f"row {i}: bad index or count")
        fee, used, lim, span = (_rational(x) for x in row[1:5])
        if lim != limit or used > lim:
            raise CheckFailed(f"row {i}: gas_used {used} > limit {lim}")
        if span > used:
            raise CheckFailed(f"row {i}: makespan {span} > gas_used {used}")
        if fee < floor:
            raise CheckFailed(f"row {i}: base fee below floor {floor}")
        if prev is not None:
            prev_fee, prev_used = prev
            # The fee moves toward the target: up after a full block, down
            # after an empty one, unchanged at the target.
            if (fee - prev_fee) * (prev_used - target) < 0 or \
                    (prev_used == target and fee != prev_fee):
                raise CheckFailed(f"row {i}: base fee moved away from target")
        prev = (fee, used)


def market(pg, seed: int, workdir: Path, blocks: int = MARKET_BLOCKS) -> Plan:
    """One CSV fee-market simulation per pass, on consecutive seeds."""
    floor = pg.feemarket.BaseFeeState().min_base_fee

    def check(outs):
        reasons = _per_command([lambda: _check_market(outs[0], blocks,
                                                      floor)])
        return reasons, blocks if reasons == [None] else 0

    def pass_jobs(p):
        argv = ("simulate", "--mech", "current", "--blocks", str(blocks),
                "--seed", str(seed * 1000 + p), "--gas-limit",
                str(MARKET_GAS_LIMIT), "--target", str(MARKET_TARGET),
                "--format", "csv")
        return [Job((argv,), check)]
    return Plan(pass_jobs, "blocks", trace_passes=3, replay=True)


WORKLOADS = {"matrix": matrix, "price": price, "market": market}
