"""Answer and state checks run after a timed serve, outside the timing.

Each check returns a list of problem strings; an empty list means the run
served correct answers and left the index in a consistent state.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core import Box
from repro.serve.request import DEGRADED, DONE, FAILED, REJECTED, SHED, TIMED_OUT

__all__ = ["check_serve", "make_probes"]

TERMINAL = (DONE, REJECTED, SHED, FAILED, TIMED_OUT, DEGRADED)


def _sorted_rows(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    return pts[np.lexsort(pts.T[::-1])]


def make_probes(data: np.ndarray, *, side: float, k: int, n_probe: int,
                seed: int) -> tuple[np.ndarray, list[Box]]:
    """A fixed probe set: kNN queries and boxes centred on data samples."""
    rng = np.random.default_rng(seed)
    n, dims = data.shape
    queries = data[rng.integers(0, n, size=n_probe)] + rng.normal(
        scale=1e-4, size=(n_probe, dims))
    centres = data[rng.integers(0, n, size=n_probe)]
    boxes = [Box(c - side / 2.0, c + side / 2.0) for c in centres]
    return queries, boxes


def _check_terminal(result, n_offered: int) -> list[str]:
    problems = []
    rids = [r.rid for r in result.requests]
    if len(rids) != n_offered or len(set(rids)) != n_offered:
        problems.append(f"serve returned {len(rids)} requests "
                        f"({len(set(rids))} distinct) for {n_offered} offered")
    bad = [r.rid for r in result.requests if r.status not in TERMINAL]
    if bad:
        problems.append(f"{len(bad)} requests without a terminal state "
                        f"(first rid {bad[0]})")
    s = result.stats
    states = (s.n_done + s.n_rejected + s.n_shed + s.n_failed
              + s.n_timed_out + s.n_degraded)
    if states != n_offered:
        problems.append(f"terminal-state counts sum to {states}, "
                        f"offered {n_offered}")
    return problems


def check_serve(results, tree, initial: np.ndarray, *, queries: np.ndarray,
                boxes: list[Box], k: int, system=None) -> list[str]:
    """All post-run checks after the serves in ``results`` (in order).

    ``initial`` is the point set the index was built from; ``system``,
    when given, has its fault injection paused while the probe queries
    run (a dead module stays dead — the probes exercise the failed-over
    layout).
    """
    problems = []
    for result in results:
        problems.extend(_check_terminal(result, len(result.requests)))
    try:
        tree.check_invariants()
    except AssertionError as e:  # the tree reports violations this way
        problems.append(f"tree invariants: {e}")

    acked = [r.payload for result in results for r in result.requests
             if r.kind == "insert" and r.status == DONE]
    expect = (np.vstack([initial, np.stack(acked)]) if acked
              else np.asarray(initial))
    final = tree.all_points()
    if final.shape != expect.shape or not np.array_equal(
            _sorted_rows(final), _sorted_rows(expect)):
        problems.append(f"final point multiset ({len(final)} points) != "
                        f"initial + acknowledged inserts ({len(expect)})")
        return problems  # the brute-force oracle below would be wrong too

    with (system.faults_suppressed() if system is not None
          else nullcontext()):
        got_knn = tree.knn(queries, k)
        got_counts = np.asarray(tree.box_count(boxes))

    for i, (q, (dists, _pts)) in enumerate(zip(queries, got_knn)):
        d = np.sqrt(((final - q) ** 2).sum(axis=1))
        want = np.sort(d)[:k]
        if len(dists) != len(want) or not np.allclose(
                np.asarray(dists), want, rtol=1e-12, atol=0.0):
            problems.append(f"kNN probe {i}: distances differ from "
                            f"brute force")
    for i, b in enumerate(boxes):
        want = int(b.contains_point(final).sum())
        if int(got_counts[i]) != want:
            problems.append(f"box-count probe {i}: got {int(got_counts[i])},"
                            f" brute force {want}")
    return problems
