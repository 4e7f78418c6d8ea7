"""repro.tune — self-tuning policy search over the serving config space.

Three layers (see DESIGN.md "Self-tuning"):

* :mod:`repro.tune.space` — :class:`ConfigSpace`, the typed, bounded
  knob dimensions and the single CLI/profile ingestion path
  (:meth:`ConfigSpace.from_args`, raising :class:`KnobConflict`);
* :mod:`repro.tune.search` — the offline strategy-tree search
  (:func:`search`) emitting seed-deterministic tuned profiles
  (:func:`profile_json`);
* :mod:`repro.tune.online` — :class:`OnlineController`, phase-boundary
  adaptation of a whitelisted knob subset with hysteresis.

:mod:`repro.tune.apply` turns a configuration dict into the live serving
objects every consumer shares.
"""

from .apply import (IndexMismatch, apply_serving_config, attach_replication,
                    attach_route_filters, make_index_config, make_policy,
                    make_rebalancer)
from .online import ADAPTABLE_KNOBS, WHITELIST_DEFAULT, OnlineController
from .search import (DEFAULT_SEARCH_KNOBS, WORKLOADS, TuneNode, TuneResult,
                     dominates, evaluate_config, load_profile, pareto_front,
                     profile_doc, profile_json, profile_report, search)
from .space import ConfigSpace, Knob, KnobConflict, Resolution, default_space

__all__ = [
    "Knob",
    "KnobConflict",
    "ConfigSpace",
    "Resolution",
    "default_space",
    "IndexMismatch",
    "make_policy",
    "make_index_config",
    "make_rebalancer",
    "attach_replication",
    "attach_route_filters",
    "apply_serving_config",
    "WORKLOADS",
    "DEFAULT_SEARCH_KNOBS",
    "TuneNode",
    "TuneResult",
    "dominates",
    "pareto_front",
    "evaluate_config",
    "search",
    "profile_doc",
    "profile_json",
    "profile_report",
    "load_profile",
    "ADAPTABLE_KNOBS",
    "WHITELIST_DEFAULT",
    "OnlineController",
]
