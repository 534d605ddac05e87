"""Fast self-check of the benchmark harness (`python3 bench/run.py --smoke`).

Runs a tiny version of every workload traced twice and checks that outputs
are correct and that the counters agree with a second, independent source:

- oracle misses (lookups that ran a search, from the spans) equal the
  entries the oracles added to their memos;
- subset tables return sum(2^|T|) entries, and make no more oracle
  lookups than that;
- every command has one top-level span, the top-level spans take no more
  time than the harness measured around the commands, and no span's
  children cover more than the span;
- every count repeats exactly between the two traced runs;
- every per-layer metric named in BENCHMARK.json is produced.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil

import harness
from tracing import Tracer
from workloads import WORKLOADS

SMALL = {
    "matrix": {"budget": 40, "cells": (("shapley", "efficiency"),
                                       ("tpm", "bundling"))},
    "price": {"catalogue": ((7, "2", 4, 2, 0),
                                    (7, "unbounded", 10, 3, 1))},
    "market": {"blocks": 100},
}


def traced_once(pg, plan) -> tuple[dict, list]:
    tracer = Tracer()
    tracer.install()
    try:
        tally = harness.measure(pg, plan, passes=plan.trace_passes,
                                tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = tally.output_bytes
    problems = [f"failed: {f}" for f in tally.failures]
    problems += [f"not found: {name}" for name in tracer.missing]
    return metrics, problems + check_counters(metrics, tracer, tally)


def check_counters(m: dict, tracer: Tracer, tally: harness.Tally) -> list:
    problems = []
    if m["scheduler.oracle.misses"] != tracer.memo_stores:
        problems.append(f"oracle misses {m['scheduler.oracle.misses']} != "
                        f"memo entries added {tracer.memo_stores}")
    subsets = m["scheduler.subset_value_table.subsets"]
    if subsets != tracer.table_entries:
        problems.append(f"sum of 2^|T| {subsets} != entries in the "
                        f"returned tables {tracer.table_entries}")
    if m["scheduler.subset_value_table.lookups"] > subsets:
        problems.append("subset tables made more oracle lookups than "
                        "there are subsets")
    if m["cli.main.calls"] != tally.attempted:
        problems.append(f"{m['cli.main.calls']} cli.main spans for "
                        f"{tally.attempted} commands")
    if m["trace.command_s"] > sum(tally.latencies):
        problems.append("top-level spans take longer than the commands")
    if tracer.min_self_s < -1e-9:
        problems.append(f"a span's children cover more than the span "
                        f"(self time {tracer.min_self_s})")
    return problems


def smoke() -> int:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    workdir = harness.ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    problems = []
    pg = harness.load_paragas()
    try:
        workdir.mkdir(parents=True)
        for name, small in SMALL.items():
            plan = WORKLOADS[name](pg, 0, workdir, **small)
            first, found = traced_once(pg, plan)
            second, again = traced_once(pg, plan)
            found += again
            for key, value in first.items():
                if harness.unit_of(key) == "count" and second[key] != value:
                    found.append(f"{key} differs: {value} then {second[key]}")
            missing = set(wanted) - set(first) - {"trace.overhead_ratio"}
            found += [f"metric not produced: {key}" for key in sorted(missing)]
            print(f"{name}: {first['trace.spans']} spans, "
                  f"{first['scheduler.oracle.lookups']} oracle lookups, "
                  f"{'ok' if not found else 'FAILED'}")
            problems += [f"{name}: {p}" for p in found]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in problems:
        print(line)
    print(json.dumps({"smoke": not problems, "problems": len(problems)}))
    return 0 if not problems else 1
