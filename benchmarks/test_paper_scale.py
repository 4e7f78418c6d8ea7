"""Paper-scale smoke: the array-backed simulator core at P = 2048.

The paper's headline configuration is P = 2048 modules.  Two guarantees,
checked at that scale:

* **Counter-exactness under faults and tracing** — reference and
  vectorized execution must leave every PIMStats counter byte-identical
  on a real index workload sharded over 2048 modules, with one killed
  module, armed message drops, and a tracer attached on one side (the
  array entry points then handle the dead module, the drop-RNG order and
  the per-element trace events themselves).
* **Speed** — the array entry points must be at least 10× faster than
  the same charges made one element at a time through ``charge_pim`` /
  ``send`` / ``recv``, at P = 2048 charging volumes, with identical stats.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_paper_scale.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.eval.harness import PIMZdTreeAdapter, make_boxes
from repro.faults import FaultPlan, MessageLoss, ModuleFailure
from repro.obs import TraceCollector
from repro.pim import PIMSystem
from repro.workloads import uniform_points

P = 2048
SEED = 11
MIN_SPEEDUP = 10.0


def _assert_equal(a, b, label: str) -> None:
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape, label
        assert np.array_equal(a, b), f"{label}: arrays differ"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{label}: len {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{label}[{i}]")
    else:
        assert a == b, f"{label}: {a!r} vs {b!r}"


# ======================================================================
# differential sanity: real index workload at P = 2048, faulted + traced
# ======================================================================
def _retrying(ad, fn, attempts: int = 20):
    """Run ``fn`` until it completes: fail over a dead module, retry a
    dropped message (a failed insert rolls itself back)."""
    for _ in range(attempts):
        try:
            return fn()
        except ModuleFailure as e:
            ad.fail_over(e.mid)
        except MessageLoss:
            pass
    raise AssertionError(f"no success in {attempts} attempts")


def _run_stack(exec_mode: str, tracer, drop_rate: float, inputs):
    data, q, boxes, fresh, dele = inputs
    ad = PIMZdTreeAdapter(data, n_modules=P, seed=SEED, exec_mode=exec_mode,
                          tracer=tracer)
    tree = ad.tree
    # Kill the module holding the first chunk, so queries hit it.
    dead = sorted(tree.metas, key=lambda m: m.root.nid)[0].module
    ad.system.attach_faults(FaultPlan(seed=SEED, drop_rate=drop_rate))
    ad.system.kill_module(dead)
    out = {
        "knn": _retrying(ad, lambda: tree.knn(q, 10)),
        "bc": _retrying(ad, lambda: tree.box_count(boxes)),
    }
    _retrying(ad, lambda: tree.insert(fresh))
    out["ndel"] = _retrying(ad, lambda: tree.delete(dele))
    out["knn2"] = _retrying(ad, lambda: tree.knn(q, 10))
    tree.check_invariants()
    events = [e.to_dict() for e in ad.system.fault_plan.events]
    return out, ad.system.stats, events


def _assert_stats_equal(a, b, label: str) -> None:
    if a != b:
        lines = []
        for lab in sorted(set(a.phases) | set(b.phases)):
            pa, pb = a.phases.get(lab), b.phases.get(lab)
            if pa != pb:
                lines.append(f"phase {lab}:\n  {pa}\n  {pb}")
        raise AssertionError(f"{label}: PIMStats diverge at P={P}:\n"
                             + "\n".join(lines))
    assert a.to_dict() == b.to_dict(), label


def test_p2048_exec_modes_identical_under_faults():
    """Byte-identical counters over 2048 modules with one dead module.

    Reference vs vectorized exec, tracer on the vectorized side.  The two
    exec modes book the same totals but not in the same transfer order,
    so armed drops (whose RNG rolls follow that order) are compared
    within the vectorized stack: traced vs untraced, same drops, same
    stats, and the same answers as the drop-free runs.
    """
    rng = np.random.default_rng(SEED)
    data = uniform_points(20_000, 3, seed=SEED)
    inputs = (data,
              data[rng.integers(0, len(data), size=64)] + 1e-4,
              make_boxes(data, 0.12, 16, seed=SEED + 1),
              uniform_points(2_000, 3, seed=SEED + 2),
              data[rng.integers(0, len(data), size=500)])

    tracer = TraceCollector()
    ref_out, ref_stats, _ = _run_stack("reference", None, 0.0, inputs)
    vec_out, vec_stats, _ = _run_stack("vectorized", tracer, 0.0, inputs)
    for key in ref_out:
        _assert_equal(ref_out[key], vec_out[key], key)
    _assert_stats_equal(ref_stats, vec_stats, "reference vs vectorized")
    assert tracer.timeline.reconcile(vec_stats) == []

    # Low enough that a 2047-module broadcast usually gets through.
    drop_rate = 1e-4
    tracer = TraceCollector()
    t_out, t_stats, t_events = _run_stack("vectorized", tracer, drop_rate,
                                          inputs)
    u_out, u_stats, u_events = _run_stack("vectorized", None, drop_rate,
                                          inputs)
    assert t_events == u_events
    assert sum(e["kind"] == "drop" for e in t_events) > 0
    for key in ref_out:
        _assert_equal(ref_out[key], t_out[key], key)
        _assert_equal(ref_out[key], u_out[key], key)
    _assert_stats_equal(t_stats, u_stats, "traced vs untraced, drops armed")
    assert tracer.timeline.reconcile(t_stats) == []


# ======================================================================
# wall-clock: the round-accounting core itself, Fig. 5 charging volumes
# ======================================================================
ROUNDS = 300
PHASES = ("search", "update", "balance")


def _charging_storm(per_element: bool):
    """ROUNDS rounds of full-width charges through one PIMSystem.

    Every round touches all P modules with integer-valued, round-varying
    cycle/word amounts — the access pattern of a saturated Fig. 5 batch.
    ``per_element=True`` makes the same charges in the same order through
    ``charge_pim`` / ``send`` / ``recv``, so both runs must book the exact
    same stats.
    """
    sys = PIMSystem(P, seed=SEED)
    mids = np.arange(P, dtype=np.intp)
    base = (np.arange(P, dtype=np.float64) % 97) + 1.0
    if per_element:
        mid_list = mids.tolist()

        def charge(verb, amounts):
            one = getattr(sys, verb)
            for mid, amount in zip(mid_list, amounts.tolist()):
                one(mid, amount)
    else:
        def charge(verb, amounts):
            getattr(sys, verb + "_array")(mids, amounts)
    recv_words = np.full(P, 2.0)
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        with sys.round():
            for p, phase in enumerate(PHASES[: 2 + r % 2]):
                with sys.phase(phase):
                    charge("charge_pim", base + float((r + p) % 13))
                    charge("send", base)
                    charge("recv", recv_words)
    wall = time.perf_counter() - t0
    return sys.stats, wall


def test_p2048_round_core_speedup():
    loop_stats, loop_wall = _charging_storm(per_element=True)
    array_stats, array_wall = _charging_storm(per_element=False)

    assert loop_stats.to_dict() == array_stats.to_dict()

    speedup = loop_wall / array_wall
    print(f"\npaper-scale core: per-element {loop_wall:.2f}s, "
          f"array {array_wall:.2f}s, speedup {speedup:.1f}x "
          f"({ROUNDS} rounds x {P} modules)")
    assert speedup >= MIN_SPEEDUP, (
        f"array verbs only {speedup:.1f}x faster than the per-element loop "
        f"at P={P} (need >= {MIN_SPEEDUP}x): per-element {loop_wall:.2f}s "
        f"vs array {array_wall:.2f}s"
    )
