"""repro.tune: knob space, search determinism, Pareto soundness, controller.

Four claims under test, matching the subsystem's contract:

1. **One ingestion path** — ``ConfigSpace.from_args`` resolves defaults,
   profile and flags with loud :class:`KnobConflict` errors for
   contradicting sources and for refinement flags whose gate mechanism
   is off (the historical silently-ignored ``--rebalance-ratio`` bug).
2. **Seed determinism** — the offline search visits the same nodes in
   the same order and emits a byte-identical profile JSON for the same
   seed, independent of worker-pool size.
3. **Pareto-pruning soundness** — every pruned (non-error) node is
   dominated by a node on the front, and front members are mutually
   non-dominated; checked both on hypothesis-generated objective sets
   and on real search output.
4. **Controller inertness / accountability** — an empty whitelist makes
   a serve run byte-identical to one with no controller at all, while an
   adapting run still reconciles its PIMStats bit-exactly with the
   ``repro.obs`` timeline and carries its audit block in the stats.
"""

from __future__ import annotations

import argparse
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.harness import make_adapter
from repro.obs import TraceCollector, latency_json
from repro.serve import AdmissionQueue, ServeLoop, make_requests
from repro.serve.spec import load_dataset
from repro.tune import (
    KnobConflict,
    OnlineController,
    TuneNode,
    apply_serving_config,
    default_space,
    dominates,
    evaluate_config,
    load_profile,
    pareto_front,
    profile_doc,
    profile_json,
    search,
)
from repro.workloads import poisson_arrivals

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SPACE = default_space()

# Tiny but real search parameters: every knob path exercised in seconds.
SEARCH_KW = dict(seed=3, n=800, n_modules=4, requests=60,
                 generations=1, beam=2)


@pytest.fixture(scope="module")
def base_search():
    """One shared small search result (searches are pure, so sharing is
    safe; the determinism test runs its own fresh copies)."""
    return search("uniform", **SEARCH_KW)


def ns(**kw) -> argparse.Namespace:
    """A Namespace with every knob-backed flag at its unset default."""
    base = dict(policy=None, overhead_target=None, fixed_batch=None,
                rebalance=False, rebalance_ratio=None, rebalance_gini=None,
                rebalance_budget_words=None, rebalance_budget=None,
                pull_factor=None, replicate=None, write_policy=None,
                route_filter=False, route_fpr=None)
    base.update(kw)
    return argparse.Namespace(**base)


# ======================================================================
# ConfigSpace: knobs, validation, neighbors
# ======================================================================
def test_default_config_roundtrips():
    cfg = SPACE.default_config()
    assert SPACE.validate(cfg) == cfg
    assert SPACE.validate({}) == cfg  # missing knobs fall back to defaults


def test_canonical_key_ignores_dict_order():
    cfg = SPACE.default_config()
    shuffled = dict(reversed(list(cfg.items())))
    assert SPACE.canonical_key(cfg) == SPACE.canonical_key(shuffled)


def test_validate_rejects_unknown_and_out_of_bounds():
    with pytest.raises(ValueError, match="unknown knob"):
        SPACE.validate({"no.such.knob": 1})
    with pytest.raises(ValueError, match="outside"):
        SPACE.validate({"route.fpr": 0.9})
    with pytest.raises(ValueError, match="not in"):
        SPACE.validate({"batch.policy": "psychic"})


@given(st.data())
@SETTINGS
def test_refinements_stay_in_bounds_and_move(data):
    knob = data.draw(st.sampled_from(
        [k for k in SPACE.knobs if k.kind in ("int", "float")]))
    value = knob.coerce(knob.default)
    for _ in range(data.draw(st.integers(0, 6))):
        refs = knob.refinements(value)
        assert refs, f"{knob.name} wedged at {value}"
        for r in refs:
            assert knob.lo <= r <= knob.hi
            assert r != value
        value = data.draw(st.sampled_from(refs))


def test_neighbors_skip_gated_and_inert_knobs():
    cfg = SPACE.default_config()  # rebalance off, route off, k=1
    names = {name for name, _, _ in SPACE.neighbors(cfg)}
    assert "rebalance.ratio" not in names
    assert "route.fpr" not in names
    assert "replicate.write_policy" not in names  # inert with k=1
    assert "batch.fixed" not in names             # policy is adaptive
    on = dict(cfg, **{"rebalance.enabled": True, "route.enabled": True,
                      "replicate.k": 2})
    names_on = {name for name, _, _ in SPACE.neighbors(on)}
    assert {"rebalance.ratio", "route.fpr",
            "replicate.write_policy"} <= names_on


# ======================================================================
# from_args: the one ingestion path (satellite bugfix regression)
# ======================================================================
def test_from_args_defaults_when_nothing_passed():
    res = SPACE.from_args(ns())
    assert res.config == SPACE.default_config()
    assert res.non_default() == {}


def test_ungated_refinement_flag_is_a_conflict():
    # The historical bug: serve silently ignored --rebalance-ratio
    # without --rebalance; sweep rejected it with a different message.
    with pytest.raises(KnobConflict, match="rebalance.enabled"):
        SPACE.from_args(ns(rebalance_ratio=2.0))
    # With the gate on, the same flag resolves.
    res = SPACE.from_args(ns(rebalance=True, rebalance_ratio=2.0))
    assert res.config["rebalance.ratio"] == 2.0
    assert res.sources["rebalance.ratio"] == "flag"


def test_flag_vs_profile_conflict_raises_equal_restating_ok():
    profile = {"batch.policy": "fixed", "batch.fixed": 128}
    with pytest.raises(KnobConflict, match="drop one source"):
        SPACE.from_args(ns(policy="adaptive"), profile=profile)
    res = SPACE.from_args(ns(policy="fixed"), profile=profile)
    assert res.config["batch.fixed"] == 128
    assert res.sources["batch.fixed"] == "profile"
    assert res.sources["batch.policy"] == "flag"


def test_write_policy_requires_replicas():
    with pytest.raises(KnobConflict, match="replicate.k"):
        SPACE.from_args(ns(write_policy="primary-async"))
    res = SPACE.from_args(ns(replicate=2, write_policy="primary-async"))
    assert res.config["replicate.write_policy"] == "primary-async"


def test_fixed_batch_requires_fixed_policy():
    with pytest.raises(KnobConflict, match="batch.policy"):
        SPACE.from_args(ns(fixed_batch=32))
    res = SPACE.from_args(ns(policy="fixed", fixed_batch=32))
    assert res.config["batch.fixed"] == 32


# ======================================================================
# Pareto machinery (hypothesis)
# ======================================================================
objective = st.fixed_dictionaries({
    "goodput": st.floats(0.0, 1e5, allow_nan=False),
    "p99_s": st.floats(1e-6, 1.0, allow_nan=False),
    "comm_words": st.floats(0.0, 1e7, allow_nan=False),
})


@given(st.lists(objective, min_size=1, max_size=24))
@SETTINGS
def test_pareto_front_is_sound_and_complete(objs):
    nodes = [TuneNode(key=str(i), config={}, generation=0, objectives=o)
             for i, o in enumerate(objs)]
    front = pareto_front(nodes)
    assert front  # a finite non-empty set always has a non-dominated point
    for f in front:
        assert not any(dominates(m.objectives, f.objectives)
                       for m in nodes if m is not f)
    for n in nodes:
        if n not in front:
            assert any(dominates(f.objectives, n.objectives) for f in front)


@given(objective, objective)
@SETTINGS
def test_dominates_is_a_strict_partial_order(a, b):
    assert not dominates(a, a)
    assert not (dominates(a, b) and dominates(b, a))


# ======================================================================
# offline search: determinism + pruning soundness on real output
# ======================================================================
def test_search_seed_determinism_and_procs_independence(base_search):
    r1 = base_search
    r2 = search("uniform", **SEARCH_KW)
    assert r1.visit_order == r2.visit_order
    assert profile_json(r1) == profile_json(r2)
    r4 = search("uniform", **dict(SEARCH_KW, procs=2))
    assert profile_json(r1) == profile_json(r4)
    # The profile itself is deterministic data only.
    doc = profile_doc(r1)
    assert "wall" not in json.dumps(doc)
    assert doc["visit_order"] == r1.visit_order


def test_search_profile_loads_back_through_the_space(base_search):
    result = base_search
    doc = json.loads(profile_json(result))
    cfg = load_profile(doc, space=default_space())
    assert cfg == result.best_node.config
    with pytest.raises(ValueError, match="not a tuned profile"):
        load_profile({"format": "bogus", "config": {}})


def test_profile_naming_a_removed_knob_is_refused(tmp_path, capsys):
    """checkpoint.budget_fraction was never read by any consumer and is
    gone from the space; a profile that still sets it is refused like
    any other unknown knob rather than silently half-applied."""
    from repro.cli import main

    doc = {"format": "repro.tune/profile-1",
           "config": {**SPACE.default_config(),
                      "checkpoint.budget_fraction": 0.05}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown knob"):
        load_profile(doc, space=SPACE)
    assert main(["serve", "--n", "600", "--n-modules", "4", "--requests",
                 "10", "--rate", "1000", "--profile", str(path)]) == 2
    assert "checkpoint.budget_fraction" in capsys.readouterr().out


def test_tune_search_rejects_serve_flags():
    """tune search takes dataset, mix and index from --workload; it used
    to accept serve flags such as --dataset and silently ignore them."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["tune", "search", "--workload", "uniform", "--dataset",
              "varden", "--n", "600", "--n-modules", "4", "--requests", "20",
              "--generations", "0"])
    assert exc.value.code == 2


def test_search_pruning_soundness_on_real_nodes(base_search):
    result = base_search
    front = [result.nodes[k] for k in result.front]
    for node in result.nodes.values():
        if node.objectives is None:
            assert node.pruned and node.error
            continue
        if node.pruned:
            assert any(dominates(f.objectives, node.objectives)
                       for f in front if f.key != node.key)
        # The winner is never dominated.
    best = result.best_node
    assert not any(dominates(n.objectives, best.objectives)
                   for n in result.nodes.values()
                   if n.objectives is not None and n is not best)
    assert best.key in result.front


def test_evaluate_config_is_deterministic():
    spec = {"workload": "uniform", "config": SPACE.default_config(),
            "seed": 5, "n": 600, "n_modules": 4, "requests": 40,
            "rate": 8000.0, "k": 10, "deadline_s": math.inf,
            "queue_depth": 256}
    assert evaluate_config(dict(spec)) == evaluate_config(dict(spec))


# ======================================================================
# online controller
# ======================================================================
def _serve_stats(*, controller=None, config=None, tracer=None, seed=11):
    """One small serve run; returns (stats, adapter, loop)."""
    cfg = config if config is not None else SPACE.default_config()
    data = load_dataset("varden", 1200, seed)
    arrivals = poisson_arrivals(9000.0, 150, seed=seed + 1)
    requests = make_requests(
        data, arrivals, mix={"knn": 0.7, "bc": 0.2, "insert": 0.1},
        k=10, deadline_s=math.inf, seed=seed + 2)
    adapter = make_adapter("pim", data, n_modules=4, seed=seed,
                           tracer=tracer)
    parts = apply_serving_config(adapter, cfg, filter_seed=seed)
    loop = ServeLoop(adapter, AdmissionQueue(256), parts["policy"],
                     rebalancer=parts["rebalancer"], controller=controller)
    return loop.run(requests).stats, adapter, loop


def test_empty_whitelist_is_byte_inert():
    inert = OnlineController(whitelist=())
    assert not inert.active
    assert not inert.due(10 ** 9)
    s0, a0, _ = _serve_stats(controller=None)
    s1, a1, _ = _serve_stats(controller=inert)
    blob0 = json.dumps(latency_json(s0), sort_keys=True)
    blob1 = json.dumps(latency_json(s1), sort_keys=True)
    assert blob0 == blob1
    assert s1.config is None  # no audit block for an inert controller
    assert a0.system.stats.to_dict() == a1.system.stats.to_dict()


def test_controller_rejects_bad_configuration():
    with pytest.raises(ValueError, match="non-adaptable"):
        OnlineController(whitelist=("replicate.k",))
    with pytest.raises(ValueError, match="window"):
        OnlineController(window=0)
    with pytest.raises(ValueError, match="lo < hi"):
        OnlineController(queue_lo=0.9, queue_hi=0.1)


def test_adapting_run_reconciles_and_carries_audit():
    # Force budget-fraction moves: any imbalance >= 1.01 trips the band,
    # and max/mean ratio is >= 1 by definition once heat exists.
    cfg = dict(SPACE.default_config(), **{"rebalance.enabled": True})
    ctl = OnlineController(whitelist=("rebalance.budget_fraction",),
                           window=8, cooldown=0,
                           imbalance_hi=1.01, imbalance_lo=0.5)
    tracer = TraceCollector()
    stats, adapter, loop = _serve_stats(controller=ctl, config=cfg,
                                        tracer=tracer)
    assert ctl.phases >= 1
    assert ctl.history, "expected at least one budget move"
    for h in ctl.history:
        assert h["knob"] == "rebalance.budget_fraction"
        k = SPACE.by_name["rebalance.budget_fraction"]
        assert k.lo <= h["new"] <= k.hi
    # The moved value is live on the rebalancer.
    assert loop.rebalancer.config.budget_fraction == ctl.history[-1]["new"]
    # Accounting stays exact: the obs timeline reconciles bit-exactly.
    assert tracer.timeline.reconcile(adapter.system.stats) == []
    # And the run is auditable from its stats document alone.
    assert stats.config is not None
    audit = stats.config["controller"]
    assert audit["changes"] == len(ctl.history)
    assert audit["whitelist"] == ["rebalance.budget_fraction"]
    assert stats.config["policy"]["name"] == "adaptive"
    blob = json.dumps(latency_json(stats), sort_keys=True)
    assert "controller" in blob


def test_cooldown_enforces_holding():
    ctl = OnlineController(whitelist=("rebalance.budget_fraction",),
                           cooldown=3)
    ctl.phases = 1
    ctl._record("rebalance.budget_fraction", 0.05, 0.1, 2.0, "test")
    for phase in (2, 3, 4):
        ctl.phases = phase
        assert not ctl._may_move("rebalance.budget_fraction")
    ctl.phases = 5
    assert ctl._may_move("rebalance.budget_fraction")


def test_adaptive_policy_snapshot_exposes_fit():
    """Satellite: the adaptive policy's fitted (a, b) and current target
    are visible in its snapshot once a group has enough observations."""
    from repro.serve import AdaptiveBatchPolicy

    stats, _, loop = _serve_stats()
    assert isinstance(loop.policy, AdaptiveBatchPolicy)
    snap = loop.policy.snapshot()
    assert snap["name"] == "adaptive"
    assert snap["overhead_target"] == 0.1
    assert snap["groups"], "expected at least one fitted group"
    fitted = [g for g in snap["groups"].values() if g.get("a") is not None]
    assert fitted, "expected a least-squares fit after a full run"
    for g in fitted:
        assert g["n_obs"] >= 2
        assert g["target"] >= 1
