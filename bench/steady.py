"""Steadiness check: are two sets of runs of the same code in agreement?

    python3 bench/steady.py --workload price [--workload market ...] \
        [--seconds S]

Runs `bench/run.py --trace 0` once per seed, one run at a time, in two sets
of ten runs with distinct seeds (1000-1009, then 1010-1019).  For every
end-to-end metric it prints each set's median and quartiles and the spread
(q3 - q1) / median, and flags a metric whose spread exceeds its bound in
BENCHMARK.json, or whose median in the second set is worse than in the
first by more than the bound.  Raw results go to .bench_out/steady-*.json.
Exit status 1 when anything is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
RUNS = 10
SETS = 2
FIRST_SEED = 1000


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs failed their checks:\n"
                         f"{proc.stdout[-2000:]}")
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first: float, later: float, better: str) -> float:
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    flagged = []
    for workload in args.workload:
        sets = []
        for k in range(SETS):
            seeds = range(FIRST_SEED + k * RUNS, FIRST_SEED + (k + 1) * RUNS)
            sets.append([one_run(workload, s, seconds) for s in seeds])
        out = ROOT / ".bench_out" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(sets, indent=1))
        print(f"{workload}: {SETS} sets of {RUNS} runs, "
              f"{seconds} s each")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            notes = []
            for k, st in enumerate(stats):
                if st["spread"] > bound:
                    notes.append(f"set {k} spread over bound")
                if k and worse_by(stats[0]["median"], st["median"],
                                  m["better"]) > bound:
                    notes.append(f"set {k} median worse than set 0")
            cells = "  ".join(
                f"{st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] "
                f"spread {st['spread']:.3f}" for st in stats)
            print(f"  {name:12s} bound {bound:<5g} {cells}"
                  f"{'  FLAG: ' + '; '.join(notes) if notes else ''}")
            flagged += [f"{workload}/{name}: {n}" for n in notes]
    print(json.dumps({"steady": not flagged, "flagged": flagged}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
