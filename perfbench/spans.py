"""In-memory layer spans for the traced benchmark run.

The benchmark measures every layer from outside: :class:`Spans` replaces
public functions and methods of the ``repro`` packages with wrappers that
time each call on the host clock (``time.perf_counter``) and keep
per-span-name aggregates in memory — inclusive seconds, *self* seconds
(the call's duration minus the time its child spans covered) and call
counts.  Nothing under ``src/`` changes; :meth:`Spans.uninstall` restores
every patched name.

Where a module imported a function by name (``from .vexec import
invalidate_exec_caches``), the wrapper is written into that module too,
so every call site goes through it.  A kernel or handler *factory* is
wrapped so that the closure it returns is itself a span.

The wrappers never touch the simulator's counters, so a traced run books
byte-identical ``PIMStats`` — the benchmark checks that.  (The program's
own ``repro.obs.TraceCollector`` is deliberately not used: attaching it
forces ``PIMSystem`` onto its per-element charge path, which would time a
different program.)
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

__all__ = ["Spans", "LAYER_SPANS"]

# (module, attribute path, span name, kind).  Kinds:
#   "span"     time every call;
#   "factory"  time every call of the closure the factory returns;
#   "array" / "scalar"  PIMSystem charge entry points (a span each; a
#              scalar call made inside an array call counts as a
#              per-element fallback);
#   "lookup"   count calls of region_table and the ones that built a table;
#   "count"    count calls only;
#   "bytes"    sum ``len`` of the last positional argument.
LAYER_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.serve.loop", "ServeLoop.run", "serve", "span"),
    ("repro.eval.harness", "PIMZdTreeAdapter.measure", "harness.measure", "span"),
    ("repro.core.knn", "knn_batch", "core.knn", "span"),
    ("repro.core.knn", "_make_candidate_handler", "core.knn", "factory"),
    ("repro.core.knn", "_make_fetch_handler", "core.knn", "factory"),
    ("repro.core.knn", "_make_merge_hook", "core.knn", "factory"),
    ("repro.core.range_query", "box_count_batch", "core.range", "span"),
    ("repro.core.range_query", "box_fetch_batch", "core.range", "span"),
    ("repro.core.range_query", "_make_handler", "core.range", "factory"),
    ("repro.core.search", "search_batch", "core.search", "span"),
    ("repro.core.search", "make_search_handler", "core.search", "factory"),
    ("repro.core.update", "insert_batch", "core.update", "span"),
    ("repro.core.update", "delete_batch", "core.update", "span"),
    ("repro.core.tree", "PIMZdTree.__init__", "core.build", "span"),
    ("repro.core.tree", "PIMZdTree.refresh_residency",
     "core.tree.refresh_residency", "span"),
    ("repro.core.push_pull", "PushPullExecutor.run", "core.push_pull", "span"),
    ("repro.core.vexec", "make_search_group_kernel",
     "core.vexec.search_kernel", "factory"),
    ("repro.core.vexec", "make_candidate_group_kernel",
     "core.vexec.candidate_kernel", "factory"),
    ("repro.core.vexec", "make_fetch_group_kernel",
     "core.vexec.fetch_kernel", "factory"),
    ("repro.core.vexec", "make_range_group_kernel",
     "core.vexec.range_kernel", "factory"),
    ("repro.core.vexec", "RegionTable.__init__", "core.vexec.region_build", "span"),
    ("repro.core.vexec", "RegionTable.refresh", "core.vexec.region_refresh", "span"),
    ("repro.core.vexec", "region_table", "core.vexec.region_lookup", "lookup"),
    ("repro.core.vexec", "invalidate_exec_caches",
     "core.vexec.invalidations", "count"),
    ("repro.pim.model", "PIMSystem.charge_pim", "pim.charge", "scalar"),
    ("repro.pim.model", "PIMSystem.send", "pim.charge", "scalar"),
    ("repro.pim.model", "PIMSystem.recv", "pim.charge", "scalar"),
    ("repro.pim.model", "PIMSystem.charge_pim_array", "pim.charge", "array"),
    ("repro.pim.model", "PIMSystem.send_array", "pim.charge", "array"),
    ("repro.pim.model", "PIMSystem.recv_array", "pim.charge", "array"),
    ("repro.pim.model", "PIMSystem.charge_cpu", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem.touch_cpu_block", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem.touch_cpu_blocks", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem.dram_stream", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem.broadcast", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem.charge_comm_flat", "pim.charge", "span"),
    ("repro.pim.model", "PIMSystem._close_round", "pim.round_close", "span"),
    ("repro.route.filters", "RouteFilterSet.rebuild", "route.rebuild", "span"),
    ("repro.store.wal", "UpdateJournal._append", "store.wal", "span"),
    ("repro.store.backend", "FileBackend.wal_append", "store.wal_bytes", "bytes"),
    ("repro.store.manager", "DurableStore.checkpoint", "store.checkpoint", "span"),
    ("repro.faults.recovery", "fail_over", "faults.failover", "span"),
    ("repro.workloads.generators", "uniform_points", "workloads.gen", "span"),
    ("repro.workloads.generators", "varden_points", "workloads.gen", "span"),
    ("repro.workloads.arrivals", "poisson_arrivals", "workloads.gen", "span"),
    ("repro.serve.request", "make_requests", "workloads.gen", "span"),
)


class Spans:
    """Per-name span aggregates plus the patches that feed them."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)   # inclusive s
        self.self_s: dict[str, float] = defaultdict(float)  # exclusive s
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # One [child seconds] cell per open span, innermost last.
        self._stack: list[list[float]] = []
        self._array_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as span ``name``."""
        cell = [0.0]
        self._stack.append(cell)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, cell, perf_counter() - t0)

    def _close(self, name: str, cell: list[float], dt: float) -> None:
        stack = self._stack
        stack.pop()
        self.total[name] += dt
        self.self_s[name] += dt - cell[0]
        self.calls[name] += 1
        if stack:
            stack[-1][0] += dt

    def _timed(self, fn, name: str):
        stack = self._stack
        close = self._close

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, cell, perf_counter() - t0)

        return wrapper

    def _wrapper(self, fn, name: str, kind: str):
        if kind == "span":
            return self._timed(fn, name)
        if kind == "factory":
            timed = self._timed

            @wraps(fn)
            def factory(*args, **kwargs):
                return timed(fn(*args, **kwargs), name)

            return factory
        counts = self.counts
        if kind == "array":
            inner = self._timed(fn, name)

            @wraps(fn)
            def array_call(*args, **kwargs):
                self._array_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._array_depth -= 1

            return array_call
        if kind == "scalar":
            inner = self._timed(fn, name)

            @wraps(fn)
            def scalar_call(*args, **kwargs):
                if self._array_depth:
                    counts["pim.fallback_elems"] += 1
                return inner(*args, **kwargs)

            return scalar_call
        if kind == "lookup":
            calls = self.calls

            @wraps(fn)
            def lookup(*args, **kwargs):
                before = calls["core.vexec.region_build"]
                out = fn(*args, **kwargs)
                counts[name] += 1
                if calls["core.vexec.region_build"] == before:
                    counts[name + "_hits"] += 1
                return out

            return lookup
        if kind == "count":
            @wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == "bytes":
            @wraps(fn)
            def sized(*args, **kwargs):
                counts[name] += len(args[-1])
                return fn(*args, **kwargs)

            return sized
        raise ValueError(f"unknown span kind {kind!r}")

    # ------------------------------------------------------------------
    def install(self, table=LAYER_SPANS) -> None:
        """Patch every entry of ``table``.

        A module-level function is replaced in its defining module *and*
        in every loaded ``repro`` module that bound the same object by
        name; a method is replaced on its class.
        """
        import importlib

        modules = {m for m, _, _, _ in table}
        for m in modules:
            importlib.import_module(m)
        for mod_name, path, name, kind in table:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrapper(orig, name, kind)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(attr) is orig):
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name (in reverse patch order)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            "total": dict(self.total), "self": dict(self.self_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
        }

    @staticmethod
    def delta(after: dict, before: dict) -> dict[str, dict[str, float]]:
        """Aggregates accrued between two :meth:`snapshot` calls."""
        return {
            key: {name: v - before[key].get(name, 0)
                  for name, v in after[key].items()}
            for key in after
        }
