#!/usr/bin/env python3
"""Serving benchmark for the PIM-zd-tree reproduction.

One command runs a named open-loop serve workload through the public API
(``repro.workloads`` -> ``repro.eval.harness`` adapter ->
``repro.serve.ServeLoop`` -> ``repro.core`` -> ``repro.pim``, with
``repro.route``, ``repro.store`` and ``repro.faults`` attached where the
workload needs them), checks the answers and the final index state, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every end-to-end metric carries one of two clocks: *host* (what the
simulator costs to run on this machine) or *sim* (what the modelled PIM
machine would take; deterministic, so it repeats exactly for a given
seed).  Per-layer metrics are host times, sim quantities, or
deterministic counts of host-side work.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload read-uniform --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --report 5 --seconds 20

``--trace 0`` prints the end-to-end metrics of untraced serves.
``--trace 1`` serves once untraced and once with every layer wrapped in
host-clock spans (``perfbench/spans.py``) and prints the per-layer
metrics.  ``--report N`` runs the workload N times, one process after
another, with seeds ``seed .. seed+N-1``, and prints the median and
quartiles of every metric — the figures the bounds in ``BENCHMARK.json``
are set from.  Workload parameters (rates, box sides, deadlines, fault
plan) are fixed in ``perfbench/workloads.json``, each with its reason.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools to one thread before NumPy is imported: the
# benchmark generates load from one process and one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "workloads.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

# name -> (unit, clock, better)
END_TO_END = {
    "wall_req_per_s": ("req/s", "host", "higher"),
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MiB", "host", "lower"),
    "sim_p50_ms": ("ms", "sim", "lower"),
    "sim_p99_ms": ("ms", "sim", "lower"),
    "sim_goodput_req_per_s": ("req/s", "sim", "higher"),
    "sim_service_req_per_s": ("req/s", "sim", "higher"),
    "traffic_bytes_per_req": ("B", "sim", "lower"),
    "success_rate": ("fraction", "sim", "higher"),
}

SIM_PHASES = ("knn", "boxcount", "boxfetch", "insert", "delete", "search",
              "route", "wal", "checkpoint", "recovery")

# name -> unit, for every per-layer metric.  ``_s`` names are host self
# time (span duration minus the child spans inside it), except the
# inclusive core.build_s, harness.calibrate_s and faults.failover_s,
# whose work is almost all in child layers.
PER_LAYER = {
    "serve.self_s": "s", "serve.batches": "count", "serve.mean_batch": "req",
    "serve.sim_queue_share": "fraction",
    "harness.measure_self_s": "s", "harness.calibrate_s": "s",
    "harness.batch_ms_p50": "ms", "harness.batch_ms_p90": "ms",
    "core.knn.self_s": "s", "core.range.self_s": "s",
    "core.search.self_s": "s", "core.update.self_s": "s",
    "core.update.batches": "count", "core.build_s": "s",
    "core.push_pull.self_s": "s", "core.push_pull.runs": "count",
    "core.vexec.search_kernel_s": "s", "core.vexec.candidate_kernel_s": "s",
    "core.vexec.fetch_kernel_s": "s", "core.vexec.range_kernel_s": "s",
    "core.vexec.kernel_calls": "count",
    "core.vexec.region_refresh_s": "s", "core.vexec.region_build_s": "s",
    "core.vexec.region_builds": "count", "core.vexec.invalidations": "count",
    "core.vexec.region_hit_ratio": "fraction",
    "core.tree.refresh_residency_s": "s",
    "pim.charge_s": "s", "pim.round_close_s": "s", "pim.rounds": "count",
    "pim.fallback_elems": "count",
    **{f"sim.{p}.{c}": u for p in SIM_PHASES
       for c, u in (("comm_words", "words"), ("rounds", "count"),
                    ("pim_cycles", "cycles"), ("time_ms", "ms"))},
    "route.rebuild_s": "s", "route.rebuilds": "count",
    "route.incremental_ratio": "fraction", "route.prune_ratio": "fraction",
    "route.words_saved": "words",
    "store.wal_s": "s", "store.wal_bytes": "B", "store.checkpoint_s": "s",
    "store.checkpoints": "count",
    "faults.failover_s": "s", "faults.retries": "count",
    "faults.injected": "count",
    "workloads.gen_s": "s",
    "trace_overhead": "ratio", "trace.self_coverage": "fraction",
}


def _layer_clock(name: str) -> str:
    """host: a host-clock time or a ratio of two; sim: a simulated-clock
    quantity; count: a deterministic count of host-side work."""
    if name.startswith("sim.") or name == "serve.sim_queue_share":
        return "sim"
    if name.endswith(("_s", "_ms_p50", "_ms_p90")) or name.startswith("trace"):
        return "host"
    return "count"


# The layers below ServeLoop must claim all but this share of the traced
# serve wall.
COVERAGE_TOLERANCE = 0.03


class BenchError(RuntimeError):
    """A check failed: the run's answers or state are wrong."""


# ======================================================================
# set-up: inputs, index, attached subsystems
# ======================================================================
class Instance:
    """One freshly built serving stack for one workload and seed."""

    def __init__(self, wl: dict, common: dict, seed: int, spans=None) -> None:
        import numpy as np

        import repro.eval.harness as harness
        import repro.serve as serve
        import repro.workloads as workloads
        from repro.faults import FaultPlan
        from repro.route import RouteFilterSet
        from repro.store import DurableStore, FileBackend

        self.wl, self.common, self.seed = wl, common, seed
        self.tmpdir: str | None = None
        n, dims, k = common["n"], common["dims"], common["k"]
        t0 = perf_counter()
        gen = {"uniform": workloads.uniform_points,
               "varden": workloads.varden_points}[wl["dataset"]]
        data = gen(n, dims, seed=seed, **wl.get("dataset_params", {}))
        fresh = None
        if wl["inserts"] == "near-data":
            lo, hi = data.min(axis=0), data.max(axis=0)
            jitter = wl["insert_jitter"]

            def fresh(rng):
                p = data[int(rng.integers(0, n))] + rng.normal(
                    scale=jitter, size=dims)
                return np.clip(p, lo, hi)

        def stream(count: int, seed_: int):
            arrivals = workloads.poisson_arrivals(wl["rate"], count,
                                                  seed=seed_)
            return serve.make_requests(
                data, arrivals, mix=wl["mix"], k=k, box_side=wl["box_side"],
                deadline_s=wl["deadline_ms"] * 1e-3, seed=seed_ + 1,
                fresh_points=fresh)

        self.requests = stream(common["requests"], seed + 1)
        warm_requests = stream(common["warmup_requests"], seed + 5)
        self.coverage = self._check_box_side(harness, data, spans)
        self.adapter = harness.PIMZdTreeAdapter(
            data, n_modules=wl["n_modules"], seed=seed)
        tree = self.adapter.tree
        self.filters = None
        if wl.get("route_filters"):
            self.filters = RouteFilterSet(tree, seed=seed)
        self.store = None
        if wl.get("durable_store"):
            TMP_ROOT.mkdir(exist_ok=True)
            self.tmpdir = tempfile.mkdtemp(prefix="store-", dir=TMP_ROOT)
            self.store = DurableStore(FileBackend(self.tmpdir))
            self.store.attach(tree)
        # Warm-up: a separate stream fits the adaptive batch policy (its
        # bootstrap probes batches of 1, 2, 4, ... per request group) and
        # fills the simulated LLC and the exec caches, so the measured
        # serve starts in steady state.  Fault-free: the plan is attached
        # after it.
        self.policy = serve.AdaptiveBatchPolicy()
        self.warm = serve.ServeLoop(
            self.adapter, self.queue(), self.policy, store=self.store,
        ).run(warm_requests)
        self.plan = None
        if "faults" in wl:
            f = wl["faults"]
            # The module holding the lowest-numbered meta-node crashes.
            mid = min(tree.metas, key=lambda m: m.root.nid).module
            at = self.adapter.system.stats.total.rounds + f["crash_after_rounds"]
            self.plan = FaultPlan(seed=seed, crash_at={mid: at},
                                  drop_rate=f["drop_rate"])
            self.adapter.system.attach_faults(self.plan)
        self.setup_s = perf_counter() - t0
        self.data = data
        # Route-filter counters accrue from attach on; the traced serve
        # reports its own share.
        self.filters0 = (self.filters.summary()
                         if self.filters is not None else None)

    def _check_box_side(self, harness, data, spans) -> float:
        """Mean points covered by the stored box side (never re-fitted).

        Fails the run when the stored side is off by more than 3x for
        this seed's data, i.e. when ``workloads.json`` needs recalibrating.
        """
        import numpy as np
        from contextlib import nullcontext

        target = self.common["box_target"]
        with spans.span("harness.calibrate") if spans else nullcontext():
            boxes = harness.make_boxes(data, self.wl["box_side"], 48,
                                       seed=self.seed)
            cover = float(np.mean([b.contains_point(data).sum()
                                   for b in boxes]))
        if not target / 3.0 <= cover <= target * 3.0:
            raise BenchError(
                f"box_side {self.wl['box_side']} covers {cover:.1f} points "
                f"on average, target {target}: recalibrate workloads.json")
        return cover

    def queue(self):
        from repro.serve import AdmissionQueue

        return AdmissionQueue(self.common["queue_depth"])

    def close(self) -> None:
        if self.tmpdir is not None:
            self.store.backend.close()
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


# ======================================================================
# one serve
# ======================================================================
class Serve:
    """The timed serve of an instance's request stream."""

    def __init__(self, inst: Instance) -> None:
        from repro.serve import ServeLoop

        adapter = inst.adapter
        loop = ServeLoop(adapter, inst.queue(), inst.policy, store=inst.store)
        # Host time per dispatched batch (every adapter.measure the batch
        # needed: retries, failover and rollback included).
        self.batch_s: list[float] = []
        dispatch = loop._dispatch

        def timed_dispatch(batch, now=0.0):
            t = perf_counter()
            try:
                return dispatch(batch, now)
            finally:
                self.batch_s.append(perf_counter() - t)

        loop._dispatch = timed_dispatch
        start = adapter.system.snapshot()
        t0 = perf_counter()
        self.result = loop.run(inst.requests)
        self.wall_s = perf_counter() - t0
        self.delta = adapter.system.stats.diff(start)
        self.cost_model = adapter.tree.cost_model
        self.offered = len(inst.requests)

    def sim_metrics(self) -> dict[str, float]:
        s = self.result.stats
        answered = s.n_done + s.n_degraded
        service = sum(b.service_s for b in self.result.batches)
        return {
            "sim_p50_ms": s.latency["p50"] * 1e3,
            "sim_p99_ms": s.latency["p99"] * 1e3,
            "sim_goodput_req_per_s": s.goodput,
            "sim_service_req_per_s": answered / service,
            "traffic_bytes_per_req":
                self.cost_model.traffic_bytes(self.delta.total) / answered,
            "success_rate": s.n_done / s.n_offered,
        }

    def sim_phases(self) -> dict[str, float]:
        out = {}
        for p in SIM_PHASES:
            c = self.delta.phases.get(p)
            out[f"sim.{p}.comm_words"] = c.comm_words if c else 0.0
            out[f"sim.{p}.rounds"] = c.rounds if c else 0
            out[f"sim.{p}.pim_cycles"] = c.pim_cycles if c else 0.0
            out[f"sim.{p}.time_ms"] = (
                self.cost_model.time(c).total_s * 1e3 if c else 0.0)
        return out

    def fingerprint(self) -> str:
        """Every simulated-clock output of the serve, canonically encoded."""
        return json.dumps({
            "stats": self.result.stats.to_json(),
            "pimstats": self.delta.to_dict(),
            "batches": [b.to_dict() for b in self.result.batches],
            "metrics": self.sim_metrics(),
        }, sort_keys=True)

    @property
    def not_done(self) -> int:
        s = self.result.stats
        return s.n_offered - s.n_done


def _checked(inst: Instance, serve: Serve, problems: list[str]) -> None:
    from checks import check_serve, make_probes

    queries, boxes = make_probes(
        inst.data, side=inst.wl["box_side"], k=inst.common["k"],
        n_probe=inst.common["probes"], seed=inst.seed + 3)
    found = check_serve([inst.warm, serve.result], inst.adapter.tree,
                        inst.data,
                        queries=queries, boxes=boxes, k=inst.common["k"],
                        system=inst.adapter.system)
    problems.extend(found)
    if serve.batch_s and len(serve.batch_s) != len(serve.result.batches):
        problems.append("host batch timings do not match the batch log")


# ======================================================================
# the two run modes
# ======================================================================
def wall_req_per_s(serves: list[Serve]) -> float:
    """Offered requests per host second of identical serves.

    The serves replay one stream on identically set-up indexes, so batch
    i does the same work in each (the sim fingerprints prove it).  Their
    number is fixed by :func:`n_serves`, so the estimator is the same on
    every run and every commit.  Each
    batch is taken at the fastest of its dispatches, and the loop's own
    time outside dispatch at its fastest serve: this machine's speed
    swings by about 25% over a few seconds, and a per-batch minimum
    filters the short swings out.
    """
    best = [min(ts) for ts in zip(*(sv.batch_s for sv in serves))]
    loop_s = min(sv.wall_s - sum(sv.batch_s) for sv in serves)
    return serves[0].offered / (sum(best) + loop_s)


def fresh_instance(wl: dict, common: dict, seed: int, spans=None) -> Instance:
    """Set up a new instance once the previous one is gone.

    A served ``ServeLoop`` and its wrapped ``_dispatch`` form a reference
    cycle that holds the whole index; collecting it first keeps one index
    alive at a time, so ``peak_rss_mb`` does not depend on when the
    cyclic collector last ran.
    """
    gc.collect()
    return Instance(wl, common, seed, spans=spans)


def serve_checked(wl: dict, common: dict, seed: int, problems: list[str],
                  spans=None) -> tuple[Instance, Serve]:
    """Set up, serve once and run the answer and state checks."""
    inst = fresh_instance(wl, common, seed, spans)
    try:
        sv = Serve(inst)
        _checked(inst, sv, problems)
    finally:
        inst.close()
    return inst, sv


def n_serves(common: dict, seconds: float) -> int:
    """Serves per run: fixed by ``--seconds`` alone, never by the
    machine's speed, so every run uses the same estimator."""
    return max(2, round(seconds / common["serve_s"]))


def run_end_to_end(wl: dict, common: dict, seed: int, seconds: float
                   ) -> tuple[dict, int, int, list[str], dict]:
    """:func:`n_serves` untraced serves of one stream, each on a freshly
    set-up index."""
    problems: list[str] = []
    serves: list[Serve] = []
    setups: list[float] = []
    fingerprints: set[str] = set()
    for _ in range(n_serves(common, seconds)):
        inst, sv = serve_checked(wl, common, seed, problems)
        setups.append(inst.setup_s)
        coverage = inst.coverage
        del inst
        serves.append(sv)
        fingerprints.add(sv.fingerprint())
    if len(fingerprints) != 1:
        problems.append(f"sim-clock outputs differ across {len(serves)} "
                        f"identical serves")
    # Set-up is short and noisy: time extra set-ups up to min_setups.
    while len(setups) < common["min_setups"]:
        inst = fresh_instance(wl, common, seed)
        setups.append(inst.setup_s)
        inst.close()
        del inst
    metrics = {"wall_req_per_s": wall_req_per_s(serves)}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics.update(serves[0].sim_metrics())
    detail = {"serves": len(serves), "setups": setups,
              "serve_wall_s": [sv.wall_s for sv in serves],
              "batches": len(serves[0].result.batches),
              "box_coverage": coverage}
    attempted = sum(sv.offered for sv in serves)
    failed = sum(sv.not_done for sv in serves)
    return metrics, attempted, failed, problems, detail


def run_traced(wl: dict, common: dict, seed: int
               ) -> tuple[dict, int, int, list[str], dict]:
    """One untraced and one traced serve; per-layer metrics."""
    from spans import Spans

    problems: list[str] = []
    ref = serve_checked(wl, common, seed, problems)[1]

    spans = Spans()
    spans.install()
    try:
        inst = fresh_instance(wl, common, seed, spans)
        setup = spans.snapshot()
        traced = Serve(inst)
        win = Spans.delta(spans.snapshot(), setup)
    finally:
        spans.uninstall()
    try:
        _checked(inst, traced, problems)
        metrics = _layer_metrics(inst, traced, ref, setup, win)
    finally:
        inst.close()

    if traced.fingerprint() != ref.fingerprint():
        problems.append("sim-clock outputs of the traced serve differ from "
                        "the untraced serve")
    cov = metrics["trace.self_coverage"]
    if cov < 1.0 - COVERAGE_TOLERANCE:
        problems.append(f"the layers below ServeLoop claim only {cov:.3f} "
                        f"of the traced serve wall")
    attempted = ref.offered + traced.offered
    failed = ref.not_done + traced.not_done
    detail = {"untraced_wall_s": ref.wall_s, "traced_wall_s": traced.wall_s,
              "spans": win}
    return metrics, attempted, failed, problems, detail


def _layer_metrics(inst: Instance, sv: Serve, ref: Serve, setup: dict,
                   win: dict) -> dict[str, float]:
    from repro.eval.metrics import percentile
    from repro.serve.request import DEGRADED, DONE

    S, C, K = win["self"], win["calls"], win["counts"]
    batch_ms = [t * 1e3 for t in ref.batch_s]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    res = sv.result
    answered = [r for r in res.requests if r.status in (DONE, DEGRADED)]
    m = {
        "serve.self_s": S.get("serve", 0.0),
        "serve.batches": res.stats.n_batches,
        "serve.mean_batch": res.stats.mean_batch,
        "serve.sim_queue_share": ratio(sum(r.queue_s for r in answered),
                                       sum(r.latency_s for r in answered)),
        "harness.measure_self_s": S.get("harness.measure", 0.0),
        "harness.calibrate_s": setup["total"].get("harness.calibrate", 0.0),
        "harness.batch_ms_p50": percentile(batch_ms, 50.0),
        "harness.batch_ms_p90": percentile(batch_ms, 90.0),
        "core.update.batches": C.get("core.update", 0),
        "core.build_s": setup["total"].get("core.build", 0.0),
        "core.push_pull.self_s": S.get("core.push_pull", 0.0),
        "core.push_pull.runs": C.get("core.push_pull", 0),
        "core.vexec.kernel_calls": sum(
            C.get(f"core.vexec.{k}_kernel", 0)
            for k in ("search", "candidate", "fetch", "range")),
        "core.vexec.region_refresh_s": S.get("core.vexec.region_refresh", 0.0),
        "core.vexec.region_build_s": S.get("core.vexec.region_build", 0.0),
        "core.vexec.region_builds": C.get("core.vexec.region_build", 0),
        "core.vexec.invalidations": K.get("core.vexec.invalidations", 0),
        "core.vexec.region_hit_ratio": ratio(
            K.get("core.vexec.region_lookup_hits", 0),
            K.get("core.vexec.region_lookup", 0)),
        "core.tree.refresh_residency_s":
            S.get("core.tree.refresh_residency", 0.0),
        "pim.charge_s": S.get("pim.charge", 0.0),
        "pim.round_close_s": S.get("pim.round_close", 0.0),
        "pim.rounds": C.get("pim.round_close", 0),
        "pim.fallback_elems": K.get("pim.fallback_elems", 0),
        "route.rebuild_s": S.get("route.rebuild", 0.0),
        "route.rebuilds": C.get("route.rebuild", 0),
        "store.wal_s": S.get("store.wal", 0.0),
        "store.wal_bytes": K.get("store.wal_bytes", 0),
        "store.checkpoint_s": S.get("store.checkpoint", 0.0),
        "store.checkpoints": C.get("store.checkpoint", 0),
        "faults.failover_s": win["total"].get("faults.failover", 0.0),
        "faults.retries": sum(b.retries for b in res.batches),
        "faults.injected": len(inst.plan.events) if inst.plan else 0,
        "workloads.gen_s": setup["self"].get("workloads.gen", 0.0),
        "trace_overhead": sv.wall_s / ref.wall_s,
        # The serve span is the root: its self time is the time no layer
        # below it claims, so it is left out of the sum.
        "trace.self_coverage": (sum(S.values()) - S.get("serve", 0.0))
        / sv.wall_s,
    }
    for op in ("knn", "range", "search", "update"):
        m[f"core.{op}.self_s"] = S.get(f"core.{op}", 0.0)
    for k in ("search", "candidate", "fetch", "range"):
        m[f"core.vexec.{k}_kernel_s"] = S.get(f"core.vexec.{k}_kernel", 0.0)
    keys = ("incremental", "queries_pruned", "probes", "words_saved")
    if inst.filters is not None:
        now = inst.filters.summary()
        grew = {k: now[k] - inst.filters0[k] for k in keys}
    else:
        grew = dict.fromkeys(keys, 0)
    m["route.incremental_ratio"] = ratio(grew["incremental"],
                                         m["route.rebuilds"])
    m["route.prune_ratio"] = ratio(grew["queries_pruned"], grew["probes"])
    m["route.words_saved"] = grew["words_saved"]
    m.update(sv.sim_phases())
    return {name: m[name] for name in PER_LAYER}


# ======================================================================
# reporting
# ======================================================================
def provenance() -> dict:
    import numpy as np

    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _git_sha() -> str:
    """HEAD's sha; "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(args, cfg: dict) -> int:
    wl = cfg["workloads"][args.workload]
    common = cfg["common"]
    t0 = perf_counter()
    try:
        if args.trace:
            metrics, attempted, failed, problems, detail = run_traced(
                wl, common, args.seed)
            units = PER_LAYER
            clocks = {name: _layer_clock(name) for name in PER_LAYER}
        else:
            metrics, attempted, failed, problems, detail = run_end_to_end(
                wl, common, args.seed, args.seconds)
            units = {name: u for name, (u, _, _) in END_TO_END.items()}
            clocks = {name: c for name, (_, c, _) in END_TO_END.items()}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    prov = provenance()
    print(f"=== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({perf_counter() - t0:.1f} s) ===")
    for name in units:
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]:9s} "
              f"[{clocks[name]}]")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    out = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    if args.out is not None:
        doc = dict(out, workload=args.workload, seed=args.seed,
                   trace=args.trace, clocks=clocks, problems=problems,
                   provenance=prov, detail=detail, config=wl)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(json.dumps(out))
    return 1 if problems else 0


def report(args, cfg: dict) -> int:
    """Run each workload ``--report`` times in fresh processes; print the
    median and quartiles of every metric."""
    names = (sorted(cfg["workloads"]) if args.workload == "all"
             else [args.workload])
    status = 0
    for name in names:
        runs = []
        for i in range(args.report):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + i}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}")
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        print(f"=== {name}: {len(runs)} runs, trace={args.trace} ===")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s}")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}")
        print(f"  correct: {sum(r['correct'] for r in runs)}/{len(runs)}; "
              f"failed requests: {sum(r['failed'] for r in runs)}")
    return status


def main(argv: list[str] | None = None) -> int:
    cfg = json.loads(CONFIG.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(cfg["workloads"]) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured serve time per run (untraced mode)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=int, default=None, metavar="N",
                   help="steadiness report: N runs, one process each")
    p.add_argument("--out", type=Path, default=None,
                   help="also write the full result document here")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    if args.report is not None:
        return report(args, cfg)
    if args.workload == "all":
        p.error("--workload all needs --report")
    sys.path.insert(0, str(ROOT / "src"))
    return run_once(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
