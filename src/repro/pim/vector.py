"""Array-backed per-module state of the PIM simulator.

:class:`VectorState` holds one NumPy array per counter, indexed by module
id.  Per-round phase attribution is charge-time: one lazily created
float64 array per phase label active in the current round
(``round_phase_cycles`` / ``round_phase_words``), cleared at round close.

Every charge the simulator books is integer-valued (the contract the
vectorized exec layer relies on), so float64 array sums are exact and
order-independent: booking a batch of charges with one ``np.add.at`` is
byte-identical to booking them one at a time.

Call sites outside ``repro.pim`` never see the arrays directly: they
read and mutate residency through ``PIMSystem.modules``, a list of
:class:`ModuleView` proxies whose attributes are views onto the shared
arrays (residency alloc/free with the clamp semantics of
:func:`_checked_free`, capacity pressure, ``failed``, cumulative cycles).
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorState", "ModuleView"]

_FREE_TOLERANCE = 1e-9


def _checked_free(current: float, words: float, mid: int, kind: str) -> float:
    """Residency after freeing ``words``, clamped to exactly 0.0.

    A free is allowed to miss zero by at most ``_FREE_TOLERANCE`` in
    either direction (float drift from repeated fractional alloc/free
    cycles); within the tolerance the residual is snapped to exactly
    0.0 rather than kept, so drift cannot accumulate across many
    migration/failover rounds and poison ``used_words`` or the Gini
    residency signals.  A larger undershoot is a real accounting bug
    and raises.
    """
    remaining = current - words
    if remaining < -_FREE_TOLERANCE:
        raise RuntimeError(f"module {mid}: {kind} residency negative")
    if remaining <= _FREE_TOLERANCE:
        remaining = 0.0
    return remaining


class VectorState:
    """All per-module counters of a ``PIMSystem`` as arrays of length P."""

    __slots__ = (
        "n",
        "capacity_words",
        "pressure_cb",
        "total_cycles",
        "round_cycles",
        "round_words",
        "master_words",
        "cache_words",
        "failed",
        "dirty",
        "round_phase_cycles",
        "round_phase_words",
        "views",
    )

    def __init__(self, n: int, capacity_words: int | None = None) -> None:
        self.n = int(n)
        # Per-module capacity (None = unlimited), a plain list so tests
        # and the planner can override a single module's budget.
        self.capacity_words: list = [capacity_words] * int(n)
        # Capacity-pressure callback, set by the owning PIMSystem: invoked
        # (with the module's view) the moment an allocation crosses its
        # capacity.
        self.pressure_cb = None
        self.total_cycles = np.zeros(n, dtype=np.float64)
        self.round_cycles = np.zeros(n, dtype=np.float64)
        # Words moved CPU<->module this round, both directions together
        # (the bottleneck link carries the sum).
        self.round_words = np.zeros(n, dtype=np.float64)
        self.master_words = np.zeros(n, dtype=np.float64)
        self.cache_words = np.zeros(n, dtype=np.float64)
        self.failed = np.zeros(n, dtype=bool)
        # Modules charged this round.  A mask beats a Python set here:
        # marking 2048 modules is one fancy-index store, not 2048 hashes.
        self.dirty = np.zeros(n, dtype=bool)
        # Charge-time phase attribution for the current round: one array
        # per phase label, created on first charge under that label.
        self.round_phase_cycles: dict[str, np.ndarray] = {}
        self.round_phase_words: dict[str, np.ndarray] = {}
        self.views = [ModuleView(self, mid) for mid in range(self.n)]

    # -- per-round phase arrays ----------------------------------------
    def phase_cycles(self, phase: str) -> np.ndarray:
        arr = self.round_phase_cycles.get(phase)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.float64)
            self.round_phase_cycles[phase] = arr
        return arr

    def phase_words(self, phase: str) -> np.ndarray:
        arr = self.round_phase_words.get(phase)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.float64)
            self.round_phase_words[phase] = arr
        return arr

    def reset_round(self, mids: np.ndarray) -> None:
        """Clear the round accumulators of the modules in ``mids``."""
        self.round_cycles[mids] = 0.0
        self.round_words[mids] = 0.0
        self.dirty[mids] = False
        self.round_phase_cycles.clear()
        self.round_phase_words.clear()


class ModuleView:
    """Per-module proxy over one slot of a VectorState."""

    __slots__ = ("_v", "mid")

    def __init__(self, state: VectorState, mid: int) -> None:
        self._v = state
        self.mid = mid

    # -- counters -------------------------------------------------------
    @property
    def capacity_words(self):
        return self._v.capacity_words[self.mid]

    @capacity_words.setter
    def capacity_words(self, value) -> None:
        self._v.capacity_words[self.mid] = value

    @property
    def total_cycles(self) -> float:
        return float(self._v.total_cycles[self.mid])

    @total_cycles.setter
    def total_cycles(self, value: float) -> None:
        self._v.total_cycles[self.mid] = value

    @property
    def failed(self) -> bool:
        return bool(self._v.failed[self.mid])

    @failed.setter
    def failed(self, value: bool) -> None:
        self._v.failed[self.mid] = bool(value)

    @property
    def pressure_cb(self):
        return self._v.pressure_cb

    @pressure_cb.setter
    def pressure_cb(self, cb) -> None:
        self._v.pressure_cb = cb

    # -- memory residency -----------------------------------------------
    @property
    def master_words(self) -> float:
        return float(self._v.master_words[self.mid])

    @master_words.setter
    def master_words(self, value: float) -> None:
        self._v.master_words[self.mid] = value

    @property
    def cache_words(self) -> float:
        return float(self._v.cache_words[self.mid])

    @cache_words.setter
    def cache_words(self, value: float) -> None:
        self._v.cache_words[self.mid] = value

    @property
    def used_words(self) -> float:
        return float(
            self._v.master_words[self.mid] + self._v.cache_words[self.mid]
        )

    def alloc_master(self, words: float) -> None:
        self._v.master_words[self.mid] += words
        if self._v.capacity_words[self.mid] is not None:
            self._check_pressure(words)

    def free_master(self, words: float) -> None:
        self.master_words = _checked_free(
            self.master_words, words, self.mid, "master"
        )

    def alloc_cache(self, words: float) -> None:
        self._v.cache_words[self.mid] += words
        if self._v.capacity_words[self.mid] is not None:
            self._check_pressure(words)

    def free_cache(self, words: float) -> None:
        self.cache_words = _checked_free(
            self.cache_words, words, self.mid, "cache"
        )

    def _check_pressure(self, delta: float) -> None:
        # Only the allocation that crosses capacity fires the callback,
        # so the event stream marks pressure onsets, not a steady drone.
        v = self._v
        cap = v.capacity_words[self.mid]
        if (v.pressure_cb is not None
                and self.used_words > cap
                and self.used_words - delta <= cap):
            v.pressure_cb(self)

    def over_capacity(self) -> bool:
        cap = self._v.capacity_words[self.mid]
        return cap is not None and self.used_words > cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dead = ", FAILED" if self.failed else ""
        return (
            f"ModuleView(mid={self.mid}, cycles={self.total_cycles:.0f}, "
            f"master={self.master_words:.0f}w, cache={self.cache_words:.0f}w"
            f"{dead})"
        )
