"""In-memory span tracer for the paragas benchmark.

The tracer wraps public functions and methods of the paragas package at every
place they are bound (the defining module and every module that imported the
name), so a call through ``gcm.subset_value_table`` is recorded like one
through ``scheduler.subset_value_table``.  Each call becomes a span: name id,
start, end, parent span and command id, kept in flat arrays so that a run
with a million spans stays small.  Spans are written out and turned into
per-layer metrics only when the run ends.

Self time is a span's duration minus the time covered by its children.  The
program is single-threaded, so the children of a span never overlap and the
covered time is the sum of their durations.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute path).  ``render`` is on no hot path and is
# deliberately not wrapped; ``sampling`` only generates benchmark inputs.
TARGETS = (
    ("cli.main", "paragas.cli", "main"),
    ("core.parse_block", "paragas.core", "parse_block"),
    ("scheduler.optimal_makespan", "paragas.scheduler", "optimal_makespan"),
    ("scheduler.optimal_schedule", "paragas.scheduler", "optimal_schedule"),
    ("scheduler.greedy_schedule", "paragas.scheduler", "greedy_schedule"),
    ("scheduler.subset_value_table", "paragas.scheduler",
     "subset_value_table"),
    ("scheduler.oracle", "paragas.scheduler", "ValueOracle.value"),
    ("gcm.gas", "paragas.gcm", "gas"),
    ("gcm.vtable", "paragas.gcm", "PricingEnv.vtable_for"),
    ("properties.check_property", "paragas.properties", "check_property"),
    ("properties.sample_instance", "paragas.properties", "sample_instance"),
    ("properties.run_fixture_suite", "paragas.properties",
     "run_fixture_suite"),
    ("feemarket.make_bid", "paragas.feemarket", "make_bid"),
    ("feemarket.build_block", "paragas.feemarket", "build_block"),
    ("feemarket.base_fee_update", "paragas.feemarket", "base_fee_update"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
TIMED = {
    "core.parse_block": ("calls", "busy_s"),
    "scheduler.optimal_makespan": ("calls", "busy_s", "self_s"),
    "scheduler.optimal_schedule": ("calls", "busy_s", "self_s"),
    "scheduler.subset_value_table": ("calls", "busy_s", "self_s"),
    "scheduler.greedy_schedule": ("calls", "busy_s", "self_s"),
    "gcm.gas": ("calls", "self_s"),
    "properties.check_property": ("calls", "self_s"),
    "properties.sample_instance": ("calls", "busy_s"),
    "properties.run_fixture_suite": ("busy_s",),
    "feemarket.make_bid": ("calls", "self_s"),
    "feemarket.build_block": ("calls", "self_s"),
    "feemarket.base_fee_update": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
MODULES = ("cli", "core", "scheduler", "gcm", "properties", "feemarket")


def _digits(value: int) -> int:
    return len(str(abs(value)))


def _memo_size(args) -> int:
    return len(args[0]._memo)


class Tracer:
    def __init__(self):
        self.names: list[str] = [name for name, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("b")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack: list[int] = []
        self.command = -1
        self.subsets = 0
        # Cross-checks for the smoke test, taken from the program's own
        # data rather than from the spans.
        self.table_entries = 0
        self.memo_stores = 0
        self.min_self_s = 0.0  # least self time of any span, from metrics()
        self.base_fee_digits = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name_id: int, fn, hook=None, before=None):
        """``hook(args, result, state)`` runs after a call, with ``state``
        what ``before(args)`` returned just before it (None without one)."""
        start, end, names = self.start, self.end, self.name
        parent, cmd, stack = self.parent, self.cmd, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            cmd.append(self.command)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_subsets(self, args, table, _before):
        self.subsets += 1 << len(args[0])
        self.table_entries += len(table.values)

    def _count_stores(self, args, _result, memo_size):
        # args[0] is the ValueOracle; a store grows its memo by one entry.
        self.memo_stores += len(args[0]._memo) - memo_size

    def _count_digits(self, _args, state, _before):
        fee = state.base_fee
        self.base_fee_digits = max(self.base_fee_digits,
                                   _digits(fee.numerator),
                                   _digits(fee.denominator))

    def install(self) -> None:
        """Replace every binding of each target inside the paragas package."""
        hooks = {"scheduler.subset_value_table": self._count_subsets,
                 "scheduler.oracle": self._count_stores,
                 "feemarket.base_fee_update": self._count_digits}
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "paragas" or n.startswith("paragas.")]
        for name_id, (name, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            before = _memo_size if name == "scheduler.oracle" else None
            wrapper = self._wrap(name_id, original, hooks.get(name), before)
            for holder in [owner] if cls_name else package:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as raw arrays in native byte order, plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.start, self.end, self.name, self.parent,
                        self.cmd):
                arr.tofile(fh)
        header = {"spans": len(self.start), "names": self.names,
                  "arrays": [["start", "d"], ["end", "d"], ["name", "b"],
                             ["parent", "i"], ["command", "i"]],
                  "byteorder": sys.byteorder,
                  "note": "times are time.perf_counter() seconds; parent -1 "
                          "is a top-level span"}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans."""
        n_names = len(self.names)
        ids = {name: i for i, name in enumerate(self.names)}
        calls = [0] * n_names
        busy = [0.0] * n_names
        self_time = [0.0] * n_names
        module_of = [name.split(".")[0] for name in self.names]
        module_busy = dict.fromkeys(MODULES, 0.0)
        start, end, names, parent = self.start, self.end, self.name, \
            self.parent
        n = len(start)
        covered = [0.0] * n
        has_search = bytearray(n)  # oracle lookup that ran a search
        has_child = bytearray(n)
        oracle, search, table = ids["scheduler.oracle"], \
            ids["scheduler.optimal_makespan"], \
            ids["scheduler.subset_value_table"]
        misses = table_lookups = 0
        wall = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            nm = names[i]
            p = parent[i]
            calls[nm] += 1
            busy[nm] += dur
            if p < 0:
                wall += dur
            else:
                covered[p] += dur
                has_child[p] = 1
                if nm == search and names[p] == oracle:
                    has_search[p] = 1
                    misses += 1
                if nm == oracle and names[p] == table:
                    table_lookups += 1
            if p < 0 or module_of[names[p]] != module_of[nm]:
                module_busy[module_of[nm]] += dur
        self.min_self_s = 0.0
        for i in range(n):
            own = end[i] - start[i] - covered[i]
            self_time[names[i]] += own
            self.min_self_s = min(self.min_self_s, own)
        lookups = calls[oracle]
        hits = sum(1 for i in range(n)
                   if names[i] == oracle and not has_search[i])
        vt = ids["gcm.vtable"]
        builds = sum(1 for i in range(n) if names[i] == vt and has_child[i])

        out: dict[str, float] = {}
        for name, kinds in TIMED.items():
            i = ids[name]
            values = {"calls": calls[i], "busy_s": busy[i],
                      "self_s": self_time[i]}
            for kind in kinds:
                out[f"{name}.{kind}"] = values[kind]
        out["scheduler.subset_value_table.subsets"] = self.subsets
        out["scheduler.subset_value_table.lookups"] = table_lookups
        out["scheduler.oracle.lookups"] = lookups
        out["scheduler.oracle.hits"] = hits
        out["scheduler.oracle.misses"] = misses
        out["scheduler.oracle.hit_ratio"] = hits / lookups if lookups else 0.0
        out["gcm.vtable.calls"] = calls[vt]
        out["gcm.vtable.builds"] = builds
        out["gcm.vtable.reuse_ratio"] = \
            1 - builds / calls[vt] if calls[vt] else 0.0
        out["feemarket.base_fee_digits"] = self.base_fee_digits
        for module in MODULES:
            if module != "cli":  # cli.main encloses every command
                out[f"layer.{module}.busy_share"] = \
                    module_busy[module] / wall if wall else 0.0
        feemarket_self = sum(t for t, module in zip(self_time, module_of)
                             if module == "feemarket")
        out["layer.feemarket_and_cli_self_share"] = \
            (feemarket_self + self_time[ids["cli.main"]]) / wall \
            if wall else 0.0
        out["trace.spans"] = n
        out["trace.command_s"] = wall
        out["trace.self_sum_s"] = sum(self_time)
        return out
