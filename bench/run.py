"""paragas benchmark: drives `paragas.cli.main(argv)` in-process.

    python3 bench/run.py --workload matrix|price|market --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --smoke

One closed-loop client in one process and one thread: each command is issued
after the previous one returned and its output was checked.  Run from the
root of a source checkout; the package is imported from ./src.

--trace 0 measures the end-to-end metrics over whole passes until the
commands have taken --seconds at reference speed (see harness.py).
--trace 1 runs a fixed set of passes twice, untraced and then traced, and
reports per-layer metrics from the traced spans; the spans are written to
.bench_out/.  --smoke runs tiny versions of every workload traced twice and
checks that the counters are self-consistent and repeat exactly.

Every line but the last is for people; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import (REFERENCE_S, ROOT, BenchError, Tally, load_paragas,
                     measure, reference_time, unit_of)
from tracing import Tracer
from workloads import WORKLOADS

# Set-up is timed SETUP_REPS times at the start and, in a --trace 0 run,
# again SETUP_REPS times after a pass whenever SETUP_EVERY_S have passed
# since the last such sample, so that a slow spell of the machine during
# one moment of the run does not decide the figure.  The median is reported.
# An untimed import comes first, so the compiling of bytecode is not
# counted.  Like a command, each set-up is timed between two timings of the
# reference workload and scaled to reference speed (see harness.py).
SETUP_REPS = 5
SETUP_EVERY_S = 8.0
TAIL_BEYOND = 10


def tail(latencies: list) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of n={n} (fewer than {TAIL_BEYOND + 1} samples)"
    k = n - TAIL_BEYOND - 1
    return xs[k], f"p{100 * (k + 1) // n} of n={n}"


class Setup:
    """Import, generate the inputs and write them, timed each time."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed
        self.spare = workdir.with_name(workdir.name + "-setup")
        self.times: list[float] = []  # raw seconds
        self.scaled: list[float] = []  # at reference speed
        self.last = 0.0

    def once(self, workdir: Path):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        before = reference_time()
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        pg = load_paragas()
        plan = WORKLOADS[self.name](pg, self.seed, workdir)
        elapsed = time.perf_counter() - t0
        after = reference_time()
        self.times.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_S / ((before + after) / 2))
        gc.collect()  # free the previous copy of the package's modules
        return pg, plan

    def sample(self) -> None:
        """Time SETUP_REPS more set-ups in a spare directory, unless one
        was sampled less than SETUP_EVERY_S ago.  The copies of the package
        they import are not used."""
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        for _ in range(SETUP_REPS):
            self.once(self.spare)
        shutil.rmtree(self.spare, ignore_errors=True)
        self.last = time.perf_counter()

    def first(self, workdir: Path):
        """The set-up the run uses, after SETUP_REPS - 1 spare ones."""
        load_paragas()  # fail before writing anything when there is no source
        for _ in range(SETUP_REPS - 1):
            self.once(self.spare)
        shutil.rmtree(self.spare, ignore_errors=True)
        pg, plan = self.once(workdir)
        self.last = time.perf_counter()
        return pg, plan

    def seconds(self, scaled: bool = True) -> float:
        return statistics.median(self.scaled if scaled else self.times)


def end_to_end(tally: Tally, setup: Setup, unit: str) -> tuple[dict, list]:
    tail_s, tail_label = tail(tally.scaled)
    metrics = {
        "throughput": (tally.throughput(), "1/s"),
        "cmd_p50_s": (statistics.median(tally.scaled), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup.seconds(), "s"),
    }
    raw_tail, _ = tail(tally.latencies)
    notes = [f"times are scaled to the speed at which the reference takes "
             f"{REFERENCE_S} s; raw: throughput {tally.throughput(False):.6g},"
             f" cmd_p50_s {statistics.median(tally.latencies):.6g}, "
             f"cmd_tail_s {raw_tail:.6g}, setup_s {setup.seconds(False):.6g}",
             f"throughput: {unit} per second of command time, median of "
             f"{len(tally.passes)} passes ({tally.units} {unit} in "
             f"{sum(tally.scaled):.3f} s scaled, "
             f"{sum(tally.latencies):.3f} s raw)",
             f"setup_s: median of {len(setup.times)} set-ups",
             f"cmd_tail_s: {tail_label}",
             f"failed_ratio: {tally.failed / tally.attempted:g} "
             f"({tally.failed}/{tally.attempted} commands)"]
    return metrics, notes


def per_layer(pg, plan, name: str, seed: int) -> tuple[dict, Tally, list]:
    plain = measure(pg, plan, passes=plan.trace_passes)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(pg, plan, passes=plan.trace_passes, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_out" / f"spans-{name}-{seed}")
    values = tracer.metrics()
    values["cli.output_bytes"] = traced.output_bytes
    values["trace.overhead_ratio"] = \
        traced.throughput() / plain.throughput() if plain.units else 0.0
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    notes = [f"traced {traced.attempted} commands, {values['trace.spans']} "
             f"spans; not found: {tracer.missing or 'none'}"]
    total = Tally(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed,
                  failures=plain.failures + traced.failures)
    return metrics, total, notes


def report(metrics: dict, tally: Tally, notes: list) -> None:
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:>16.6g} {unit}")
    for line in notes:
        print(line)
    for line in tally.failures[:10]:
        print(f"FAILED {line}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))


def run(args) -> int:
    workdir = ROOT / ".bench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    setup = Setup(args.workload, args.seed, workdir)
    try:
        pg, plan = setup.first(workdir)
        print(f"paragas bench: workload {args.workload}, seed {args.seed}, "
              f"1 closed-loop client, Python {platform.python_version()}, "
              f"nproc {os.cpu_count()}")
        if args.trace:
            metrics, tally, notes = per_layer(pg, plan, args.workload,
                                              args.seed)
        else:
            tally = measure(pg, plan, seconds=args.seconds,
                            between=setup.sample)
            metrics, notes = end_to_end(tally, setup, plan.unit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(setup.spare, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    report(metrics, tally, notes)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the harness and its counters quickly")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            from smoke import smoke
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = json.loads(
                (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
