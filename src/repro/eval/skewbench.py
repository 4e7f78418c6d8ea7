"""Adversarial hot-shard workloads and the rebalance throughput timeline.

The rebalancing experiments need a workload where mastership placement —
not algorithmic work — is the bottleneck: several popular chunks whose
placement hashes collide on one module, so every batch's BSP round is
gated by that module's straggler cycles.  Under the throughput-optimized
configuration the L1 pull threshold is ≈ θ_L0 queries per chunk, far
above any realistic per-chunk share of a batch, so push-pull cannot
rescue the round (PIM-tree's observation) and migration is the only fix.

:func:`hottest_colocated_metas` finds the module with the most resident
chunks (weighted by subtree size); :func:`boxes_under_metas` builds a
range-count stream scanning those chunks evenly (heavy PIM work, one
result word — the straggler-bound regime) and :func:`queries_under_metas`
the kNN equivalent — real points under each chunk root with a small
jitter so traversals stay inside the chunk region.
:func:`throughput_timeline` then runs a closed-loop batch-at-a-time
serving schedule on the virtual clock, optionally stepping an
:class:`repro.balance.OnlineRebalancer` after each batch, and reports
per-step throughput so recovery after migration is visible, and
:func:`rebalance_comparison` serves the same stream with rebalancing off
and on (the ``repro balance`` demo).

Everything is seeded and runs on simulated time: two identical calls
produce byte-identical timelines.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

__all__ = [
    "hottest_colocated_metas",
    "queries_under_metas",
    "boxes_under_metas",
    "throughput_timeline",
    "steady_state_throughput",
    "rebalance_comparison",
]


def hottest_colocated_metas(tree, *, max_metas: int = 4):
    """The module with the most colocated chunk mass, and its chunks.

    Returns ``(mid, metas)`` where ``metas`` are the module's resident
    meta-nodes, largest subtree first (deterministic: ties by root nid).
    Hash placement colocates several chunks on one module with high
    probability once the chunk count passes the module count (birthday
    bound) — that module is the built-in straggler this workload attacks.
    """
    by_module: dict[int, list] = defaultdict(list)
    for meta in tree.metas:
        by_module[meta.module].append(meta)
    mid = max(
        sorted(by_module),
        key=lambda m: (
            sum(x.root.count for x in by_module[m]),
            len(by_module[m]),
            -m,
        ),
    )
    metas = sorted(by_module[mid], key=lambda m: (-m.root.count, m.root.nid))
    return mid, metas[:max_metas]


def _points_under(node, cap: int = 8192) -> np.ndarray:
    """Up to ``cap`` points stored in leaves under ``node`` (DFS order)."""
    chunks: list[np.ndarray] = []
    got = 0
    stack = [node]
    while stack and got < cap:
        n = stack.pop()
        if n.is_leaf:
            chunks.append(n.pts)
            got += len(n.pts)
        else:
            stack.append(n.right)
            stack.append(n.left)
    pts = np.vstack(chunks)
    return pts[:cap]


def queries_under_metas(tree, metas, n_queries: int, *,
                        seed: int = 0, jitter: float = 1e-6) -> np.ndarray:
    """A query stream striking ``metas`` evenly (round-robin).

    Queries are real points under each chunk root plus a tiny jitter, so
    the kNN frontier lands inside the chunk; even striking keeps the
    chunks' per-batch work comparable, which is what makes spreading them
    across modules pay off linearly.
    """
    if not metas:
        raise ValueError("need at least one target meta-node")
    rng = np.random.default_rng(seed)
    pools = [_points_under(m.root) for m in metas]
    dims = pools[0].shape[1]
    out = np.empty((n_queries, dims), dtype=np.float64)
    for i in range(n_queries):
        pool = pools[i % len(pools)]
        out[i] = pool[int(rng.integers(0, len(pool)))]
    out += rng.normal(scale=jitter, size=out.shape)
    return out


def boxes_under_metas(tree, metas, n_boxes: int, *,
                      seed: int = 0, extent: float = 0.9) -> list:
    """Range boxes striking ``metas`` evenly (round-robin).

    Each box is centred on a real point under one chunk root and spans
    ``extent`` of that chunk's bounding extent (clipped to it), so a
    ``box_count`` scans most of the chunk on its master module while
    returning a single count word.  That work shape — heavy PIM scan,
    near-zero transfer — is the regime where the straggler module, not
    the shared host↔PIM bus, gates the round, which is what makes
    mastership migration pay off (kNN batches at small module counts are
    bus-bound and placement-insensitive).
    """
    from ..core import Box

    if not metas:
        raise ValueError("need at least one target meta-node")
    rng = np.random.default_rng(seed)
    pools = [_points_under(m.root) for m in metas]
    boxes = []
    for i in range(n_boxes):
        pool = pools[i % len(pools)]
        lo_p, hi_p = pool.min(axis=0), pool.max(axis=0)
        half = (hi_p - lo_p) * extent / 2.0
        c = pool[int(rng.integers(0, len(pool)))]
        boxes.append(Box(np.maximum(c - half, lo_p), np.minimum(c + half, hi_p)))
    return boxes


def throughput_timeline(adapter, queries, *, steps: int,
                        batch: int, k: int = 10, kind: str = "bc",
                        rebalancer=None) -> list[dict]:
    """Closed-loop serving: ``steps`` query batches, optional rebalance steps.

    ``kind`` selects the request shape: ``"bc"`` (default) treats
    ``queries`` as a list of :class:`~repro.core.Box` served via
    ``box_count``; ``"knn"`` treats it as a point array served via
    ``knn(..., k)``.  Each step measures one batch of ``batch`` requests
    (rotating through ``queries``) and, when a rebalancer is given, one
    measured rebalance step — both on simulated time, both billed to the
    step's wall.  Returns one row per step: service/rebalance seconds,
    throughput (requests per simulated second, including the rebalance
    tax) and the cumulative chunk migrations so far.
    """
    if kind not in ("bc", "knn"):
        raise ValueError(f"unknown workload kind {kind!r}")
    nq = len(queries)
    rows: list[dict] = []
    for s in range(steps):
        if kind == "bc":
            b = [queries[(j + s * batch) % nq] for j in range(batch)]
            m = adapter.measure(lambda: adapter.box_count(b))
        else:
            idx = (np.arange(batch) + s * batch) % nq
            q = queries[idx]
            m = adapter.measure(lambda: adapter.knn(q, k))
        reb_s = 0.0
        if rebalancer is not None:
            mr = adapter.measure(
                lambda: 0 if rebalancer.step() is None else 1
            )
            reb_s = mr.sim_time_s
        total_s = m.sim_time_s + reb_s
        rows.append({
            "step": s,
            "service_s": float(m.sim_time_s),
            "rebalance_s": float(reb_s),
            "throughput": float(batch / total_s) if total_s > 0 else 0.0,
            "migrations": (rebalancer.migrations
                           if rebalancer is not None else 0),
        })
    return rows


def steady_state_throughput(rows: list[dict], *, tail: float = 0.5) -> float:
    """Mean throughput over the trailing ``tail`` fraction of the timeline."""
    if not rows:
        return 0.0
    start = int(len(rows) * (1.0 - tail))
    tail_rows = rows[start:] or rows
    return float(np.mean([r["throughput"] for r in tail_rows]))


def rebalance_comparison(data, config, *, n_modules: int, seed: int,
                         batch: int, steps: int, k: int = 10,
                         kind: str = "bc") -> dict:
    """Serve the adversarial hot-shard stream twice: rebalance off, then on.

    Both runs build a traced adapter over ``data``; construction is
    deterministic, so they see the same layout and the same query
    stream.  The second run steps an
    :class:`~repro.balance.OnlineRebalancer` configured by ``config`` (a
    :class:`~repro.balance.BalanceConfig`) after every batch.  Returns
    the hot module and its chunks, both timelines and steady-state
    throughputs, the rebalanced run's adapter and rebalancer, and the
    trace reconciliation problems of both runs.
    """
    from ..balance import OnlineRebalancer
    from ..obs import TraceCollector
    from .harness import PIMZdTreeAdapter

    def build():
        tracer = TraceCollector()
        return PIMZdTreeAdapter(data, n_modules=n_modules, seed=seed,
                                tracer=tracer), tracer

    adapter_off, tracer_off = build()
    hot_mid, hot_metas = hottest_colocated_metas(adapter_off.tree)
    if kind == "bc":
        queries = boxes_under_metas(adapter_off.tree, hot_metas,
                                    max(batch, 256), seed=seed + 1)
    else:
        queries = queries_under_metas(adapter_off.tree, hot_metas,
                                      max(batch, 1024), seed=seed + 1)
    rows_off = throughput_timeline(adapter_off, queries, steps=steps,
                                   batch=batch, k=k, kind=kind)
    adapter_on, tracer_on = build()
    rebalancer = OnlineRebalancer(adapter_on.tree, config)
    rows_on = throughput_timeline(adapter_on, queries, steps=steps,
                                  batch=batch, k=k, kind=kind,
                                  rebalancer=rebalancer)
    off = steady_state_throughput(rows_off)
    on = steady_state_throughput(rows_on)
    return {
        "hot_module": int(hot_mid), "hot_metas": hot_metas,
        "timeline_off": rows_off, "timeline_on": rows_on,
        "off": off, "on": on,
        "speedup": on / off if off > 0 else float("inf"),
        "adapter": adapter_on, "rebalancer": rebalancer,
        "problems": (tracer_off.timeline.reconcile(adapter_off.system.stats)
                     + tracer_on.timeline.reconcile(adapter_on.system.stats)),
    }
