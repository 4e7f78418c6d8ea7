"""Simulator-core unit tests: edge cases of charging and residency.

* zero-charge unification — ``charge_pim``/``send``/``recv`` with a zero
  amount are complete no-ops, matching the array entry points;
* residency clamp — ``free_master``/``free_cache`` snap a within-tolerance
  negative residual to exactly 0.0 (drift cannot accumulate);
* broadcast fan-out atomicity — a drop mid-broadcast no longer leaves
  later modules silently unsent;
* ``HotnessTracker.transfer`` guards (self-transfer, dead destination);
* the ``ModuleView`` proxy surface;
* round-booking edge cases: straggler tie-break, decommission, loads.

The round-booking oracle and the entry-point differentials live in
``tests/test_sim_core.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance import HotnessTracker
from repro.faults import FaultPlan, MessageLoss
from repro.pim import PIMSystem


# ======================================================================
# zero-charge unification (bugfix)
# ======================================================================
class TestZeroChargeSemantics:
    def test_zero_scalar_charges_book_nothing(self):
        sys = PIMSystem(4)
        before = sys.snapshot()
        with sys.round():
            sys.charge_pim(0, 0)
            sys.send(1, 0.0)
            sys.recv(2, 0)
        d = sys.stats.diff(before).total
        assert d.rounds == 0
        assert sys.stats.mux_switches == 0
        assert d.pim_cycles == 0 and d.comm_words == 0

    def test_scalar_vs_bulk_identical_with_zeros(self):
        """Zeros through the per-element entry points must book exactly
        what the array and dict-keyed entry points book."""
        script = [(0, 10.0), (1, 0.0), (2, 7.0), (3, 0.0), (0, 0.0), (2, 3.0)]
        a = PIMSystem(4)
        b = PIMSystem(4)
        with a.round():
            for mid, amt in script:
                a.charge_pim(mid, amt)
                a.send(mid, amt)
                a.recv(mid, amt * 2)
        with b.round():
            for mid, amt in script:
                b.charge_pim_array([mid], [amt])
                b.send_bulk({mid: amt})
                b.recv_array([mid], amt * 2)
        assert a.stats == b.stats
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_zero_only_round_is_empty(self):
        sys = PIMSystem(2)
        with sys.round():
            sys.send(0, 0.0)
        assert sys.stats.total.rounds == 0
        assert sys.stats.mux_switches == 0

    def test_zero_send_consumes_no_drop_rng(self):
        """A zero-word send must not roll the drop RNG (bulk never did)."""
        plan_a = FaultPlan(seed=5, drop_rate=0.5)
        plan_b = FaultPlan(seed=5, drop_rate=0.5)
        a = PIMSystem(2, fault_plan=plan_a)
        b = PIMSystem(2, fault_plan=plan_b)

        def run(sys, with_zero):
            outcomes = []
            for _ in range(20):
                with sys.round():
                    if with_zero:
                        sys.send(1, 0.0)
                    try:
                        sys.send(0, 4)
                        outcomes.append("ok")
                    except MessageLoss:
                        outcomes.append("drop")
            return outcomes

        assert run(a, with_zero=True) == run(b, with_zero=False)


# ======================================================================
# residency clamp (bugfix)
# ======================================================================
class TestResidencyClamp:
    """Each case runs with plain Python float amounts ("scalar") and with
    ``np.float64`` amounts taken from an array ("vector"), the two kinds
    of value callers hand the residency counters."""

    @staticmethod
    def _amounts(kind, *values):
        if kind == "scalar":
            return tuple(float(v) for v in values)
        return tuple(np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_drift_clamps_to_exact_zero(self, kind):
        sys = PIMSystem(2)
        m = sys.modules[0]
        (tenth,) = self._amounts(kind, 0.1)
        # 0.1 is inexact in binary; ten allocs/frees drift below zero by
        # ~1e-17 — within tolerance, so the residual must snap to 0.0.
        for _ in range(10):
            m.alloc_master(tenth)
            m.alloc_cache(tenth)
        for _ in range(10):
            m.free_master(tenth)
            m.free_cache(tenth)
        assert m.master_words == 0.0
        assert m.cache_words == 0.0
        assert m.used_words == 0.0

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_drift_does_not_accumulate_across_cycles(self, kind):
        sys = PIMSystem(2)
        m = sys.modules[1]
        a, b, c = self._amounts(kind, 0.3, 0.1, 0.2)
        for _ in range(500):
            m.alloc_master(a)
            m.free_master(b)
            m.free_master(c)
        assert m.master_words == 0.0

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_real_negative_still_raises(self, kind):
        sys = PIMSystem(2)
        one, half = self._amounts(kind, 1.0, 0.5)
        with pytest.raises(RuntimeError):
            sys.modules[0].free_master(one)
        with pytest.raises(RuntimeError):
            sys.modules[0].free_cache(half)


# ======================================================================
# broadcast fan-out atomicity (bugfix)
# ======================================================================
class TestBroadcastAtomicity:
    def _run(self, seed: int):
        plan = FaultPlan(seed=seed, drop_rate=0.4)
        sys = PIMSystem(8, fault_plan=plan)
        err = None
        with sys.round():
            try:
                sys.broadcast(5)
            except MessageLoss as e:
                err = e
        return sys, err

    def test_partial_delivery_recorded_and_charged(self):
        # Seed chosen so the 8 drop rolls produce at least one loss and
        # at least one delivery (asserted, not assumed).
        sys, err = self._run(seed=1)
        delivered, dropped = sys.last_broadcast
        assert dropped and delivered
        assert err is not None
        assert err.delivered_mids == delivered
        assert err.dropped_mids == dropped
        assert sorted(delivered + dropped) == list(range(8))
        # Every delivered module was charged; no dropped module was.
        assert sys.stats.total.comm_words == 5 * len(delivered)
        assert sys.stats.total.module_rounds == len(delivered)

    def test_fanout_is_deterministic(self):
        a, _ = self._run(seed=3)
        b, _ = self._run(seed=3)
        assert a.last_broadcast == b.last_broadcast
        assert a.stats == b.stats

    def test_fault_free_broadcast_reaches_all_live(self):
        sys = PIMSystem(6)
        sys.decommission(4)
        with sys.round():
            sys.broadcast(3)
        delivered, dropped = sys.last_broadcast
        assert delivered == (0, 1, 2, 3, 5)
        assert dropped == ()
        assert sys.stats.total.comm_words == 3 * 5


# ======================================================================
# HotnessTracker.transfer guards (bugfix)
# ======================================================================
class TestTransferGuards:
    def _tracker(self, n=4):
        sys = PIMSystem(n)
        tr = HotnessTracker(sys, alpha=1.0)
        with sys.round():
            sys.charge_pim(0, 100)
            sys.charge_pim(1, 50)
        tr.observe()
        return sys, tr

    def test_self_transfer_is_noop(self):
        _, tr = self._tracker()
        before = tr.hotness.copy()
        tr.transfer(0, 0, 40.0)
        assert np.array_equal(tr.hotness, before)

    def test_dead_destination_is_noop(self):
        sys, tr = self._tracker()
        sys.decommission(2)
        before = tr.hotness.copy()
        tr.transfer(0, 2, 40.0)
        assert np.array_equal(tr.hotness, before)

    def test_out_of_range_raises(self):
        _, tr = self._tracker()
        with pytest.raises(ValueError):
            tr.transfer(0, 99, 1.0)
        with pytest.raises(ValueError):
            tr.transfer(-5, 1, 1.0)

    def test_migration_then_failover_composes(self):
        """A stale plan executed after the destination crashed must not
        park heat on the dead module (it would never decay back out)."""
        sys, tr = self._tracker()
        # Planner decides to move heat 0 -> 2; module 2 crashes first.
        sys.decommission(2)
        tr.transfer(0, 2, 60.0)
        assert tr.hotness[2] == 0.0
        # Heat stays where observations can still decay it.
        assert tr.hotness[0] == 100.0
        # A live re-plan still works.
        tr.transfer(0, 3, 60.0)
        assert tr.hotness[3] == 60.0 and tr.hotness[0] == 40.0
        assert np.all(tr.live_hotness() >= 0.0)


# ======================================================================
# ModuleView proxy surface (direct unit coverage)
# ======================================================================
class TestModuleViewSurface:
    """The ``ModuleView`` proxy writes through to shared state.

    Every attribute the proxy exposes — counter setters, ``failed``,
    per-module capacity, the pressure callback — must mutate the one
    underlying :class:`VectorState`, visible from a *fresh* view handle
    and from the arrays themselves; and the derived read-only properties
    and pressure-onset semantics must match a plain-float reference.
    """

    def _view(self, n=4, mid=1, **kw):
        sys = PIMSystem(n, **kw)
        return sys, sys.modules[mid]

    def test_counter_setters_write_through(self):
        sys, m = self._view()
        m.total_cycles = 12.0
        m.master_words = 20.0
        m.cache_words = 6.0
        # A fresh handle over the same slot sees every write...
        f = sys.modules[1]
        assert f.total_cycles == 12.0
        assert f.master_words == 20.0 and f.cache_words == 6.0
        # ...derived read-only properties recompute from the arrays...
        assert f.used_words == 26.0
        # ...and the neighbouring slots are untouched.
        for other in (0, 2, 3):
            o = sys.modules[other]
            assert o.total_cycles == 0.0 and o.used_words == 0.0

    def test_values_round_trip_as_python_floats(self):
        _, m = self._view()
        m.total_cycles = np.float64(8.0)
        assert type(m.total_cycles) is float
        assert type(m.master_words) is float
        assert type(m.used_words) is float

    def test_failed_setter_coerces_to_bool(self):
        sys, m = self._view()
        m.failed = 1
        assert m.failed is True
        assert sys.modules[1].failed is True
        m.failed = 0
        assert m.failed is False

    def test_capacity_is_per_module(self):
        sys, m = self._view(module_capacity_words=100)
        assert m.capacity_words == 100
        m.capacity_words = 40
        assert sys.modules[1].capacity_words == 40
        assert sys.modules[0].capacity_words == 100  # others keep theirs

    def test_over_capacity_with_and_without_limit(self):
        sys, m = self._view(module_capacity_words=None)
        m.alloc_master(1e9)
        assert not m.over_capacity()  # None = unlimited
        m.capacity_words = 10
        assert m.over_capacity()
        m.capacity_words = None
        assert not m.over_capacity()

    @pytest.mark.parametrize("alloc", ["alloc_master", "alloc_cache"])
    def test_pressure_fires_only_on_the_crossing_alloc(self, alloc):
        sys, m = self._view(module_capacity_words=10)
        fired = []
        m.pressure_cb = lambda mod: fired.append(mod.mid)
        getattr(m, alloc)(8.0)
        assert fired == []          # under capacity: silent
        getattr(m, alloc)(5.0)
        assert fired == [1]         # the crossing allocation fires once
        getattr(m, alloc)(3.0)
        assert fired == [1]         # further allocs while over: no drone
        # Dropping back under and crossing again fires a fresh onset.
        getattr(m, alloc.replace("alloc", "free"))(8.0)
        getattr(m, alloc)(4.0)
        assert fired == [1, 1]

    def test_pressure_parity_with_scalar(self):
        """The view fires exactly the onsets a plain-float model predicts."""
        script = [("alloc_master", 6), ("alloc_cache", 3), ("alloc_cache", 4),
                  ("free_master", 6), ("alloc_master", 2), ("alloc_master", 9)]
        cap, used, expected = 12, 0.0, []
        for verb, words in script:
            before = used
            used += words if verb.startswith("alloc") else -words
            if verb.startswith("alloc") and used > cap >= before:
                expected.append((0, used))
        sys = PIMSystem(2, module_capacity_words=cap)
        m = sys.modules[0]
        fired: list = []
        m.pressure_cb = lambda mod: fired.append((mod.mid, mod.used_words))
        for verb, words in script:
            getattr(m, verb)(words)
        assert fired == expected
        assert len(fired) == 2  # crossed, receded, crossed again

    def test_charge_and_comm_hit_shared_arrays(self):
        sys, m = self._view()
        with sys.round():
            with sys.phase("build"):
                sys.charge_pim(1, 9.0)
                sys.send(1, 2.0)
                sys.recv(1, 3.0)
            assert m.total_cycles == 9.0
            assert sys._vec.round_cycles[1] == 9.0
            assert sys._vec.round_words[1] == 5.0
        assert sys.modules[1].total_cycles == 9.0
        assert sys._vec.round_words[1] == 0.0  # cleared at round close
        assert sys.stats.phases["build"].comm_words == 5.0


# ======================================================================
# round-booking edge cases
# ======================================================================
class TestSimModeDifferential:
    """Round-booking edge cases with fixed expected values."""

    def test_straggler_tiebreak_matches(self):
        """Equal round cycles: the lowest charged mid is the straggler."""
        sys = PIMSystem(4)
        with sys.round():
            with sys.phase("a"):
                sys.charge_pim(2, 10)
            with sys.phase("b"):
                sys.charge_pim(1, 10)  # tie: mid 1 wins (sorted order)
        assert sys.stats.total.pim_cycles == 10
        assert sys.stats.phases["b"].pim_cycles == 10
        assert "a" not in {
            ph for ph, c in sys.stats.phases.items() if c.pim_cycles
        }

    def test_decommission_and_views(self):
        sys = PIMSystem(4)
        sys.modules[1].alloc_master(50)
        sys.modules[1].alloc_cache(20)
        sys.modules[2].alloc_master(30)
        sys.decommission(1)
        assert sys.modules[1].failed
        assert sys.modules[1].used_words == 0.0
        assert sys.master_words() == 30.0
        assert sys.used_words() == 30.0
        assert list(sys.residency()) == [0.0, 0.0, 30.0, 0.0]
        with pytest.raises(Exception):
            with sys.round():
                sys.charge_pim(1, 5)

    def test_module_loads_shapes(self):
        sys = PIMSystem(3)
        with sys.round():
            sys.charge_pim_array(np.array([0, 2]), np.array([7.0, 9.0]))
        assert list(sys.module_loads()) == [7.0, 0.0, 9.0]
        # module_loads returns a copy, not a live view of the core.
        loads = sys.module_loads()
        loads[0] = 999.0
        assert sys.module_loads()[0] == 7.0
