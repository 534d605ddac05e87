"""The paragas benchmark's harness: load the package, issue commands, tally.

Commands go through the public entry point `paragas.cli.main(argv)` with
stdout and stderr captured; a command that raises counts as failed.

A shared 2-core x86 virtual machine can run a process at anything from
full to half speed for spells of minutes, because of load on its host that
nothing inside the machine sees (CPU time slows with wall time).  So next
to every command the harness times a fixed reference workload that touches
no paragas code, and every timing it reports is scaled to the speed at
which the reference takes REFERENCE_S: a command's latency is multiplied by
REFERENCE_S over the mean of the reference timed just before and just
after it.  On such a machine with a quiet host the scaled figures are close
to the raw ones, which are printed beside them.
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# About the reference's time (21-28 ms) on a 2-core x86 box under Python
# 3.11 when nothing else loads its host.
REFERENCE_S = 0.025


def reference_work() -> None:
    """Fixed pure-Python work of the kinds the program spends its time on:
    small-Fraction arithmetic, a dict keyed on frozensets and a sort of
    tuples.  Through slow spells, the ratio of a command's latency to this
    reference's time varied a third to a twelfth as much as the latency
    itself (README.md)."""
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1)
    counts: dict = {}
    for i in range(6000):
        key = frozenset((i % 50, i % 7, i % 13))
        counts[key] = counts.get(key, 0) + i
    rng = random.Random(0)
    pairs = [(rng.random(), i) for i in range(15000)]
    pairs.sort()


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class BenchError(Exception):
    pass


def load_paragas():
    """Import (or re-import) the paragas package from ./src."""
    if not (SRC / "paragas" / "__init__.py").is_file():
        raise BenchError(f"no paragas package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "paragas" or n.startswith("paragas.")]:
        del sys.modules[name]
    pg = importlib.import_module("paragas")
    for sub in ("cli", "core", "feemarket", "gcm", "properties", "sampling",
                "scheduler"):
        importlib.import_module(f"paragas.{sub}")
    if Path(pg.__file__).resolve().parent != SRC / "paragas":
        raise BenchError(f"imported paragas from {pg.__file__}, not {SRC}")
    return pg


class Capture(io.TextIOBase):
    """Keeps what a command prints without copying it, so that a 1.4 MB CSV
    does not leave several transient buffers in the peak memory figure."""

    def __init__(self):
        super().__init__()
        self.chunks: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.chunks)


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # raw seconds
    scaled: list = field(default_factory=list)  # at reference speed
    reference: float | None = None  # last reference time
    attempted: int = 0
    failed: int = 0
    units: int = 0
    output_bytes: int = 0
    failures: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # (units, raw s, scaled s)

    def throughput(self, scaled: bool = True) -> float:
        """Work units per second of command time, median over passes."""
        return statistics.median(u / (c if scaled else r)
                                 for u, r, c in self.passes)


def run_command(pg, argv, tally: Tally, tracer: Tracer | None) -> Outcome:
    gc.collect()  # start each command from a clean heap, like a fresh CLI
    out, err = Capture(), Capture()
    if tracer is not None:
        tracer.command = tally.attempted
    before = tally.reference or reference_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pg.cli.main(list(argv))
    except Exception as exc:  # a crash fails the command, not the benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    tally.reference = reference_time()
    tally.latencies.append(latency)
    tally.scaled.append(latency * REFERENCE_S
                        / ((before + tally.reference) / 2))
    tally.attempted += 1
    text = out.getvalue()
    tally.output_bytes += len(text)  # the CLI prints ASCII only
    return Outcome(code, text, err.getvalue())


def run_job(pg, job, tally: Tally, tracer: Tracer | None = None):
    outs = [run_command(pg, argv, tally, tracer) for argv in job.argvs]
    reasons, units = job.check(outs)
    tally.units += units
    for argv, reason in zip(job.argvs, reasons):
        if reason is not None:
            tally.failed += 1
            tally.failures.append(f"{' '.join(argv)}: {reason}")
    return outs


def measure(pg, plan, seconds: float | None = None, passes: int | None = None,
            tracer: Tracer | None = None, between=None) -> Tally:
    """Whole passes until `passes` are done or the commands have taken
    `seconds` at reference speed; `between()`, if given, is called after
    each pass."""
    tally = Tally()
    t0 = time.perf_counter()
    p = 0
    first = None
    while True:
        units, done = tally.units, len(tally.latencies)
        for job in plan.pass_jobs(p):
            outs = run_job(pg, job, tally, tracer)
            first = first or outs
        tally.passes.append((tally.units - units,
                             sum(tally.latencies[done:]),
                             sum(tally.scaled[done:])))
        if between is not None:
            between()
        p += 1
        if passes is not None and p >= passes:
            break
        if seconds is not None:
            # Stop at the first pass boundary after `seconds` of command
            # time at reference speed.  So a run holds the same passes
            # however fast the machine runs at the time, and a tail that
            # needs ten samples beyond it falls among the same commands in
            # every run.  Whatever the speed, a run stops before four times
            # `seconds` of wall time.
            wall = time.perf_counter() - t0
            if sum(tally.scaled) >= seconds or wall + wall / p > 4 * seconds:
                break
    if plan.replay and tracer is None:
        # Counted as attempted commands, but kept out of the timings.
        replay = Tally()
        again = run_job(pg, plan.pass_jobs(0)[0], replay)
        tally.attempted += replay.attempted
        tally.failed += replay.failed
        tally.failures += replay.failures
        if [o.out for o in first] != [o.out for o in again]:
            tally.failed += 1
            tally.failures.append("replay of the same seed differs")
    return tally


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"
