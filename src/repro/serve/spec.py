"""One serving run as data: :class:`RunSpec` in, :func:`build_run` out.

Every open-loop serving run in the repo — ``repro serve``/``faults``/
``tune apply``, ``store demo``, each shard of a sweep and each candidate
of the offline tuner — is the same recipe: load the dataset, draw
arrivals and requests from seeded streams, build the index adapter with
the config's index-level knobs, attach the config's serving mechanisms
(:func:`repro.tune.apply_serving_config`) and wire the admission queue
and :class:`~repro.serve.ServeLoop`.  :class:`RunSpec` holds the
recipe's inputs and :func:`build_run` is the recipe; callers differ only
in the spec they build and in what they attach (fault plan, tracer,
durable store, online controller).

Seeds follow one rule: the dataset is drawn from ``data_seed`` (default
``seed``), the arrival stream from ``seed + 1``, the request stream from
``seed + 2``, and the adapter is built with ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["RunSpec", "Run", "arrival_process", "build_run", "load_dataset",
           "probe_capacity"]


@dataclass(frozen=True)
class RunSpec:
    """Everything one open-loop serving run is built from."""

    dataset: str = "uniform"
    n: int = 20_000
    n_modules: int = 32
    seed: int = 7
    data_seed: int | None = None      # None: ``seed``
    index: str = "pim"
    arrival: str = "poisson"
    requests: int = 2000
    rate: float | None = None         # offered req/s; see probe_capacity
    mix: dict | None = None           # None: make_requests' default mix
    k: int = 10
    deadline_s: float = math.inf
    tenants: dict | None = None       # tenant -> traffic weight
    queue_depth: int = 1024
    overflow: str = "reject"
    config: dict | None = None        # resolved ConfigSpace config; None: defaults
    staleness_s: float = 1e-3         # primary-async replica staleness bound
    filter_seed: int | None = None    # route-filter hash seed; None: ``seed``
    max_retries: int = 3
    backoff_s: float = 1e-4
    timeout_s: float | None = None
    degraded_mode: bool = True
    failover: bool = True
    max_restarts: int = 4

    def load_data(self):
        return load_dataset(self.dataset, self.n,
                            self.seed if self.data_seed is None
                            else self.data_seed)


class Run(NamedTuple):
    """A built, not yet started, serving run: ``loop.run(requests)``."""

    requests: list
    adapter: object
    parts: dict     # apply_serving_config: policy, rebalancer, replication, filters
    loop: object


def load_dataset(name: str, n: int, seed: int):
    """``n`` 3-D points of the named distribution (``DATASETS``)."""
    from ..eval.experiments import DATASETS

    try:
        gen = DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    return gen(n, 3, seed=seed)


def arrival_process(name: str):
    """The arrival-time generator called ``name`` (KeyError if unknown)."""
    from ..workloads import arrivals

    return {"poisson": arrivals.poisson_arrivals,
            "bursty": arrivals.bursty_arrivals,
            "diurnal": arrivals.diurnal_arrivals}[name]


def probe_capacity(spec: RunSpec, data=None) -> float:
    """Service capacity (req/s) of the spec's index at a well-amortised
    reference batch, measured on a throwaway fault-free adapter so the
    serving adapter starts cold.  Offered load ``x`` means
    ``rate = x * probe_capacity(spec)``."""
    from ..eval.harness import make_adapter
    from . import calibrate_capacity

    if data is None:
        data = spec.load_data()
    probe = make_adapter(spec.index, data, n_modules=spec.n_modules,
                         seed=spec.seed)
    return calibrate_capacity(probe, data, k=spec.k, seed=spec.seed)


def build_run(spec: RunSpec, *, data=None, fault_plan=None, tracer=None,
              store=None, controller=None) -> Run:
    """Build the requests, adapter, config mechanisms and loop of ``spec``.

    ``data`` skips reloading a dataset the caller already holds.
    ``fault_plan`` and ``tracer`` go to the adapter, ``store`` (a
    :class:`repro.store.DurableStore`) is attached to its tree and the
    loop, ``controller`` (a :class:`repro.tune.OnlineController`) to the
    loop.  Raises ``ValueError`` on a bad mix or tenant set, and
    :class:`repro.tune.apply.IndexMismatch` when the config enables a
    tree-level mechanism on a treeless baseline index.
    """
    from ..eval.harness import make_adapter
    from ..tune import apply_serving_config, default_space, make_index_config
    from . import AdmissionQueue, ServeLoop, make_requests

    if spec.rate is None:
        raise ValueError("RunSpec.rate is unset (use load * probe_capacity)")
    if data is None:
        data = spec.load_data()
    arrivals = arrival_process(spec.arrival)(spec.rate, spec.requests,
                                             seed=spec.seed + 1)
    requests = make_requests(data, arrivals, mix=spec.mix, k=spec.k,
                             deadline_s=spec.deadline_s, seed=spec.seed + 2,
                             tenants=spec.tenants)
    config = (spec.config if spec.config is not None
              else default_space().default_config())
    adapter = make_adapter(
        spec.index, data, n_modules=spec.n_modules, seed=spec.seed,
        fault_plan=fault_plan, tracer=tracer,
        config=make_index_config(config, kind=spec.index, n_points=len(data),
                                 n_modules=spec.n_modules))
    parts = apply_serving_config(
        adapter, config, staleness_s=spec.staleness_s,
        filter_seed=spec.seed if spec.filter_seed is None
        else spec.filter_seed)
    if store is not None:
        store.attach(adapter.tree)
    loop = ServeLoop(
        adapter,
        AdmissionQueue(spec.queue_depth, overflow=spec.overflow,
                       tenants=spec.tenants),
        parts["policy"], max_retries=spec.max_retries,
        backoff_s=spec.backoff_s, timeout_s=spec.timeout_s,
        degraded_mode=spec.degraded_mode, failover=spec.failover,
        rebalancer=parts["rebalancer"], store=store, controller=controller,
        max_restarts=spec.max_restarts)
    return Run(requests, adapter, parts, loop)
