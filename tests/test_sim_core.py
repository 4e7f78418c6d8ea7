"""Round-booking oracle and entry-point differentials for the simulator.

* **Oracle** — replays each round's raw ``pim``/``send``/``recv`` trace
  events and recomputes what the round must book: the straggler (lowest
  mid among ties), the bottleneck-link mid, total/max words,
  ``module_rounds`` and the per-phase splits.  Every ``RoundRecord`` and
  the final ``PIMStats`` must match it exactly, with and without faults.
* **Entry-point differential** — the array verbs (``charge_pim_array``,
  ``send_array``, ``recv_array``, ``send_bulk``) against a loop of
  ``charge_pim``/``send``/``recv`` on a second system, under a tracer, a
  dead module, drops, storms and slow factors: byte-identical stats, the
  same exception, fault events and trace-event sequence.
* **Traced vs untraced** — a tracer never moves a counter.
* The array verbs never fall back to the per-element verbs, and a fault
  plan never crashes the last live module.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, MessageLoss, ModuleFailure
from repro.obs import TraceCollector
from repro.obs.trace import RoundRecord
from repro.pim import PIMStats, PIMSystem

N = 4
FAULTS = dict(drop_rate=0.15, slow_factors={1: 3.0}, storm_rate=0.3,
              storm_factor=4.0, storm_rounds=2, crash_rate=0.05,
              max_crashes=2)

VERBS = st.sampled_from(["pim", "send", "recv", "bulk_send", "arr_pim",
                         "arr_send", "arr_recv", "flat"])
PHASES = st.sampled_from(["build", "query", "update", "other"])
AMOUNTS = st.integers(0, 40)  # zeros included on purpose


@st.composite
def charge_scripts(draw):
    n_rounds = draw(st.integers(1, 5))
    script = []
    for _ in range(n_rounds):
        n_ops = draw(st.integers(0, 6))
        ops = []
        for _ in range(n_ops):
            verb = draw(VERBS)
            phase = draw(PHASES)
            if verb.startswith(("bulk", "arr")):
                pairs = draw(st.lists(
                    st.tuples(st.integers(0, N - 1), AMOUNTS),
                    min_size=0, max_size=5))
                ops.append((verb, phase, pairs))
            else:
                ops.append((verb, phase, draw(st.integers(0, N - 1)),
                            draw(AMOUNTS)))
        script.append(ops)
    return script


_PER_ELEMENT = {"arr_pim": "charge_pim", "arr_send": "send",
                "arr_recv": "recv", "bulk_send": "send"}
_ARRAY = {"arr_pim": "charge_pim_array", "arr_send": "send_array",
          "arr_recv": "recv_array"}


def _apply_script(sys: PIMSystem, script, *, loop: bool = False) -> None:
    """Run ``script``; ``loop=True`` expands every array/bulk op into
    per-element calls in array order."""
    for round_ops in script:
        with sys.round():
            for op in round_ops:
                verb, phase = op[0], op[1]
                with sys.phase(phase):
                    if verb in ("pim", "send", "recv"):
                        name = "charge_pim" if verb == "pim" else verb
                        getattr(sys, name)(op[2], op[3])
                    elif verb == "flat":
                        sys.charge_comm_flat(op[3])
                    else:
                        pairs = op[2]
                        if verb == "bulk_send":
                            d: dict = {}
                            for mid, amt in pairs:
                                d[mid] = d.get(mid, 0) + amt
                            pairs = list(d.items())
                        if loop:
                            one = getattr(sys, _PER_ELEMENT[verb])
                            for mid, amt in pairs:
                                one(mid, float(amt))
                        elif verb == "bulk_send":
                            sys.send_bulk(dict(pairs))
                        elif pairs:
                            getattr(sys, _ARRAY[verb])(
                                np.array([m for m, _ in pairs], dtype=np.intp),
                                np.array([a for _, a in pairs],
                                         dtype=np.float64))


def _run(sys: PIMSystem, script, *, loop: bool = False):
    """Apply ``script``; return the first fault as (type, message)."""
    try:
        _apply_script(sys, script, loop=loop)
    except (ModuleFailure, MessageLoss) as e:
        return type(e).__name__, str(e)
    return None


# ======================================================================
# the round-booking oracle
# ======================================================================
def _replay_round(rec_index: int, entry_phase: str, raw) -> RoundRecord:
    """What one round must book, from its raw events alone."""
    cycles: dict = defaultdict(float)
    words: dict = defaultdict(float)
    phase_cycles: dict = defaultdict(lambda: defaultdict(float))
    phase_words: dict = defaultdict(lambda: defaultdict(float))
    for ev in raw:
        if ev.kind == "pim":
            cycles[ev.mid] += ev.value
            phase_cycles[ev.mid][ev.phase] += ev.value
        else:
            words[ev.mid] += ev.value
            phase_words[ev.mid][ev.phase] += ev.value
    mids = sorted(set(cycles) | set(words))
    straggler = max(mids, key=lambda m: (cycles[m], -m))
    link = max(mids, key=lambda m: (words[m], -m))
    max_words = words[link]
    return RoundRecord(
        index=rec_index,
        entry_phase=entry_phase,
        straggler_mid=straggler,
        max_cycles=cycles[straggler],
        total_words=sum(words[m] for m in mids),
        max_words=max_words,
        max_words_mid=link if max_words > 0 else -1,
        module_rounds=sum(1 for m in mids if words[m] > 0),
        touched=len(mids),
        cycles_by_module={m: cycles[m] for m in mids},
        words_by_module={m: words[m] for m in mids},
        pim_cycles_by_phase=dict(phase_cycles[straggler]),
        phase_words_by_module={m: dict(phase_words[m]) for m in mids},
        comm_max_words_by_phase=(dict(phase_words[link]) if max_words > 0
                                 else {}),
    )


def assert_matches_oracle(sys: PIMSystem, tracer: TraceCollector) -> None:
    """Every RoundRecord and the final PIMStats, recomputed from the raw
    event stream (booked in the same chronological order)."""
    assert tracer.dropped == 0
    events = tracer.events()
    raw = defaultdict(list)
    for ev in events:
        if ev.kind in ("pim", "send", "recv"):
            raw[ev.round_index].append(ev)
    records = {r.index: r for r in tracer.rounds()}
    expected = PIMStats()
    t = expected.total
    for ev in events:
        if ev.kind == "comm_flat":
            for c in (t, expected.phase(ev.phase)):
                c.comm_words += ev.value
                c.comm_max_words += ev.aux
        elif ev.kind == "round":
            want = _replay_round(ev.round_index, ev.phase,
                                 raw.pop(ev.round_index))
            assert records[ev.round_index] == want
            t.pim_cycles += want.max_cycles
            t.comm_words += want.total_words
            t.comm_max_words += want.max_words
            t.rounds += 1
            t.module_rounds += want.module_rounds
            for ph, c in want.pim_cycles_by_phase.items():
                expected.phase(ph).pim_cycles += c
            for split in want.phase_words_by_module.values():
                for ph, w in split.items():
                    expected.phase(ph).comm_words += w
            for ph, w in want.comm_max_words_by_phase.items():
                expected.phase(ph).comm_max_words += w
            entry = expected.phase(want.entry_phase)
            entry.rounds += 1
            entry.module_rounds += want.module_rounds
            expected.mux_switches += 2
    assert not raw, f"raw events outside any closed round: {dict(raw)}"
    assert sys.stats == expected
    assert sys.stats.to_dict() == expected.to_dict()


class TestRoundOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(script=charge_scripts())
    def test_any_charging_script_matches_oracle(self, script):
        tracer = TraceCollector()
        sys = PIMSystem(N, tracer=tracer)
        _apply_script(sys, script)
        assert_matches_oracle(sys, tracer)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(script=charge_scripts(), seed=st.integers(0, 100))
    def test_faulted_script_matches_oracle(self, script, seed):
        tracer = TraceCollector()
        sys = PIMSystem(N, tracer=tracer,
                        fault_plan=FaultPlan(seed=seed, **FAULTS))
        _run(sys, script)
        assert_matches_oracle(sys, tracer)

    def test_straggler_and_link_ties_go_to_lowest_mid(self):
        tracer = TraceCollector()
        sys = PIMSystem(N, tracer=tracer)
        with sys.round():
            sys.charge_pim_array([3, 1, 2], [5.0, 5.0, 2.0])
            sys.recv_array([2, 0], [4.0, 4.0])
        (rec,) = tracer.rounds()
        assert (rec.straggler_mid, rec.max_words_mid) == (1, 0)
        assert_matches_oracle(sys, tracer)


# ======================================================================
# array verbs vs the per-element loop, and traced vs untraced
# ======================================================================
def _faulted_system(seed: int, dead, *, traced: bool = True):
    tracer = TraceCollector() if traced else None
    sys = PIMSystem(N, tracer=tracer, fault_plan=FaultPlan(seed=seed, **FAULTS))
    if dead is not None:
        sys.kill_module(dead)
    return sys, tracer


class TestEntryPointDifferential:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(script=charge_scripts(), seed=st.integers(0, 100),
           dead=st.sampled_from([None, 0, 3]))
    def test_array_verbs_match_per_element_loop(self, script, seed, dead):
        arr, ta = _faulted_system(seed, dead)
        one, tb = _faulted_system(seed, dead)
        assert _run(arr, script) == _run(one, script, loop=True)
        assert arr.stats.to_dict() == one.stats.to_dict()
        assert ([e.to_dict() for e in arr.fault_plan.events]
                == [e.to_dict() for e in one.fault_plan.events])
        assert ([e.to_dict() for e in ta.events()]
                == [e.to_dict() for e in tb.events()])
        assert [r.to_dict() for r in ta.rounds()] == [
            r.to_dict() for r in tb.rounds()]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(script=charge_scripts(), seed=st.integers(0, 100),
           dead=st.sampled_from([None, 2]))
    def test_traced_and_untraced_stats_identical(self, script, seed, dead):
        traced, tracer = _faulted_system(seed, dead)
        plain, _ = _faulted_system(seed, dead, traced=False)
        assert _run(traced, script) == _run(plain, script)
        assert traced.stats == plain.stats
        assert traced.stats.to_dict() == plain.stats.to_dict()
        assert ([e.to_dict() for e in traced.fault_plan.events]
                == [e.to_dict() for e in plain.fault_plan.events])
        assert tracer.timeline.reconcile(traced.stats) == []

    def test_array_verbs_never_call_per_element_verbs(self, monkeypatch):
        calls = []
        for name in ("charge_pim", "send", "recv"):
            orig = getattr(PIMSystem, name)

            def spy(self, *args, _name=name, _orig=orig):
                calls.append(_name)
                return _orig(self, *args)

            monkeypatch.setattr(PIMSystem, name, spy)
        tracer = TraceCollector()
        sys = PIMSystem(8, tracer=tracer, fault_plan=FaultPlan(
            seed=3, drop_rate=0.05, slow_factors={1: 2.0}))
        sys.kill_module(5)
        seen = set()
        booked = 0
        for r in range(40):
            mids = np.arange(8) if r % 2 else np.array([0, 1, 2, 3, 4, 6, 7])
            with sys.round():
                for verb in (sys.charge_pim_array, sys.send_array,
                             sys.recv_array):
                    try:
                        verb(mids, np.arange(1.0, len(mids) + 1.0))
                        booked += 1
                    except (ModuleFailure, MessageLoss) as e:
                        seen.add(type(e))
        assert calls == []
        assert seen == {ModuleFailure, MessageLoss} and booked > 0
        assert any(e.kind == "drop" for e in sys.fault_plan.events)
        assert tracer.timeline.reconcile(sys.stats) == []
        assert_matches_oracle(sys, tracer)


# ======================================================================
# the last live module
# ======================================================================
@pytest.mark.parametrize("plan_kw", [
    dict(seed=1, crash_rate=0.5),
    dict(crash_at={0: 0, 1: 0}),
])
def test_last_live_module_is_never_crashed(plan_kw):
    """The plan must not record a crash the system cannot apply."""
    plan = FaultPlan(**plan_kw)
    sys = PIMSystem(2, fault_plan=plan)
    for _ in range(20):
        with sys.round():
            for mid in range(2):
                if mid not in sys.dead_modules:
                    sys.charge_pim(mid, 1)
    assert sys.n_live == 1
    assert plan.crashed == set(sys.dead_modules)
    assert plan.summary() == {"crash": 1}
