"""Command-line driver: parse a command, run it, report the result.

    python -m repro.cli list                   # experiments; fig5 ... all
    python -m repro.cli serve --load 0.8 --out latency.json
    python -m repro.cli faults --drop-rate 0.02 --crash 3@40
    python -m repro.cli tune search --workload varden --out varden.json

The serving subcommands — ``serve``, ``faults`` (``serve`` with a seeded
fault plan and a tracer attached), ``tune apply``, ``store demo`` and
``sweep`` — parse their flags into one :class:`repro.serve.RunSpec` and
run it through :func:`repro.serve.build_run`; their knob options are
generated from :class:`repro.tune.ConfigSpace` and resolve through
:meth:`~repro.tune.ConfigSpace.from_args`.  Usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .eval.experiments import ALL_EXPERIMENTS, DATASETS, ExperimentResult

_COMMON_PARAMS = {
    "n": (int, "warmup dataset size"),
    "batch": (int, "operations per measured batch"),
    "n_modules": (int, "simulated PIM modules"),
    "seed": (int, "master seed"),
}


# The fault plan's and the loop's resilience flags: (flag, type, default, help).
_FAULT_FLAGS = (
    ("--fault-seed", int, None, "fault-plan RNG seed (default: master seed)"),
    ("--crash-rate", float, 0.0, "per-(module, round) crash probability"),
    ("--max-crashes", int, None, "cap on random crashes"),
    ("--drop-rate", float, 0.0,
     "per-transfer CPU<->PIM message-loss probability"),
    ("--storm-rate", float, 0.0,
     "per-round probability a straggler storm starts"),
    ("--storm-factor", float, 8.0, "cycle multiplier during a storm"),
    ("--storm-rounds", int, 4, "rounds a storm lasts"),
    ("--retries", int, 3, "dispatch retries before giving up on a batch"),
    ("--backoff-ms", float, 0.1,
     "base exponential-backoff delay (simulated ms)"),
    ("--timeout-ms", float, None, "per-request queue timeout (simulated ms)"),
)


class UsageError(Exception):
    """A bad command line: :func:`main` prints ``error: <msg>``, exits 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the PIM-zd-tree paper's tables and figures "
                    "on the simulated PIM system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for name in ALL_EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
        if name in ("fig5", "latency"):
            p.add_argument(
                "--dataset", default="uniform" if name == "fig5" else "osm",
                choices=sorted(DATASETS), help="workload distribution",
            )

    p_all = sub.add_parser("all", help="run every experiment")
    _add_common(p_all)
    p_all.add_argument("--out", type=Path, default=None,
                       help="directory for report.md / results.json")

    p_tr = sub.add_parser("trace", help="traced workload -> per-phase/"
                          "per-module timeline")
    _add_common(p_tr)
    p_tr.add_argument("--dataset", default="uniform", choices=sorted(DATASETS),
                      help="workload distribution")
    p_tr.add_argument("--ops", default="insert,bc-10,bf-10,10-nn",
                      help="comma-separated Fig. 5 operation names")
    p_tr.add_argument("--out", type=Path, default=None,
                      help="path for the JSON trace document")
    p_tr.add_argument("--csv", type=Path, default=None,
                      help="path for the per-phase CSV table")
    p_tr.add_argument("--ring", type=int, default=65536,
                      help="raw-event ring-buffer capacity")
    p_tr.add_argument("--no-events", action="store_true",
                      help="omit raw events from the JSON document")

    p_sv = sub.add_parser("serve", help="open-loop serving run -> latency "
                          "stats")
    _add_serve_args(p_sv)
    _add_adapt_args(p_sv)

    p_ft = sub.add_parser("faults", help="serve under a seeded fault plan "
                          "(crashes, storms, drops)")
    _add_serve_args(p_ft, index_choices=["pim", "pim-skew"])
    _add_adapt_args(p_ft)
    for flag, typ, default, help_text in _FAULT_FLAGS:
        p_ft.add_argument(flag, type=typ, default=default, help=help_text)
    p_ft.add_argument("--crash", action="append", default=None,
                      metavar="MID@ROUND",
                      help="schedule a module crash, e.g. --crash 3@40 "
                           "(repeatable)")
    p_ft.add_argument("--slow", action="append", default=None,
                      metavar="MID:FACTOR",
                      help="static straggler slowdown, e.g. --slow 0:4 "
                           "(repeatable)")
    p_ft.add_argument("--no-failover", action="store_true",
                      help="do not rebuild dead modules' shards")
    p_ft.add_argument("--no-degraded", action="store_true",
                      help="fail exhausted query batches instead of "
                           "completing them with partial results")

    p_sw = sub.add_parser("sweep", help="serve sharded over worker "
                          "processes (independent replicas), merged stats")
    _add_serve_args(p_sw)
    p_sw.add_argument("--procs", type=int, default=None,
                      help="worker processes / shards "
                           "(default: cpu count, capped at 8; 1 = inline)")
    p_sw.set_defaults(requests=1_000_000, queue_depth=4096)

    p_bl = sub.add_parser("balance", help="hot-shard workload served with "
                          "rebalancing off vs on")
    _add_common(p_bl)
    p_bl.add_argument("--dataset", default="varden", choices=sorted(DATASETS),
                      help="workload distribution")
    p_bl.add_argument("--steps", type=int, default=24,
                      help="serving steps (one request batch each) per run")
    p_bl.add_argument("--kind", default="bc", choices=["bc", "knn"],
                      help="request shape: box-count range scans (the "
                           "straggler-bound regime) or kNN batches")
    p_bl.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p_bl.add_argument("--ratio-threshold", type=float, default=1.5,
                      help="max/mean EWMA heat ratio that trips migration")
    p_bl.add_argument("--gini-threshold", type=float, default=0.35,
                      help="EWMA heat Gini that trips migration")
    p_bl.add_argument("--budget-words", type=float, default=65536.0,
                      help="word budget per migration invocation")
    p_bl.add_argument("--max-moves", type=int, default=8,
                      help="chunk moves per migration invocation")
    p_bl.add_argument("--out", type=Path, default=None,
                      help="path for the JSON comparison report")

    p_tn = sub.add_parser("tune", help="tuned-profile search / apply / "
                          "report")
    tune = p_tn.add_subparsers(dest="action", required=True)
    p_ts = tune.add_parser("search",
                           help="emit a tuned profile for --workload")
    _add_common(p_ts, ("n", "n_modules", "seed"))
    p_ts.add_argument("--workload", default="varden",
                      choices=["diurnal", "uniform", "varden"],
                      help="workload class to tune for")
    _add_load_args(p_ts)
    p_ts.set_defaults(requests=240, load=1.0)
    p_ts.add_argument("--generations", type=int, default=2,
                      help="strategy-tree refinement depth")
    p_ts.add_argument("--beam", type=int, default=4,
                      help="surviving Pareto nodes expanded per generation")
    p_ts.add_argument("--procs", type=int, default=1,
                      help="worker processes for candidate evaluation "
                           "(the result is procs-independent)")
    p_ts.add_argument("--knobs", default=None,
                      help="comma-separated knob subset to refine "
                           "(default: the serving-visible set)")
    p_ts.add_argument("--out", type=Path, default=None,
                      help="path for the tuned-profile JSON")
    p_ta = tune.add_parser("apply", help="serve with --profile applied")
    _add_serve_args(p_ta)
    _add_adapt_args(p_ta)
    p_ta.set_defaults(requests=240, load=1.0)
    p_tr = tune.add_parser("report", help="print a profile's headline numbers")
    p_tr.add_argument("--profile", type=Path, default=None,
                      help="tuned-profile JSON (a 'tune search' artifact)")

    p_st = sub.add_parser("store", help="durable tier: checkpointed serve "
                          "(demo), inspect or recover a store")
    p_st.add_argument("action", choices=["demo", "inspect", "recover"],
                      help="demo: serve with checkpoint/WAL attached; "
                           "inspect: print a store's manifest + WAL table; "
                           "recover: rebuild the index from disk")
    _add_common(p_st)
    p_st.add_argument("--dataset", default="uniform", choices=sorted(DATASETS),
                      help="workload distribution (demo)")
    p_st.add_argument("--backend", default="file",
                      choices=["file", "sqlite"], help="storage backend")
    p_st.add_argument("--path", type=Path, default=None,
                      help="store location (directory for file, db file for "
                           "sqlite; demo defaults to a fresh temp dir)")
    p_st.add_argument("--requests", type=int, default=400,
                      help="offered requests (demo)")
    p_st.add_argument("--load", type=float, default=0.8,
                      help="offered load as a fraction of calibrated "
                           "capacity (demo)")
    p_st.add_argument("--mix", default="knn=0.5,insert=0.35,bc=0.1,bf=0.05",
                      help="request mix (demo)")
    p_st.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p_st.add_argument("--kill-round", type=int, default=None,
                      help="BSP round at which the whole machine is killed "
                           "(demo; omit for a crash-free checkpointing run)")
    p_st.add_argument("--budget-fraction", type=float, default=0.05,
                      help="checkpoint time budget as a fraction of "
                           "service time (demo)")
    p_st.add_argument("--max-restarts", type=int, default=4,
                      help="crash-restarts before the loop gives up (demo)")
    p_st.add_argument("--out", type=Path, default=None,
                      help="path for the latency + store-event JSON (demo)")
    return parser


def _add_serve_args(p: argparse.ArgumentParser,
                    index_choices: list[str] | None = None) -> None:
    """Arguments of every subcommand that parses into a ``RunSpec``."""
    from .tune import default_space

    _add_common(p)
    p.add_argument("--dataset", default="uniform", choices=sorted(DATASETS),
                   help="workload distribution")
    p.add_argument("--index", default="pim",
                   choices=index_choices or ["pim", "pim-skew", "zd", "pkd"],
                   help="index adapter to serve from")
    p.add_argument("--arrival", default="poisson",
                   choices=["poisson", "bursty", "diurnal"],
                   help="arrival process")
    _add_load_args(p)
    p.add_argument("--mix", default="knn=0.7,bc=0.15,bf=0.1,insert=0.05",
                   help="request mix, e.g. knn=0.8,insert=0.2")
    p.add_argument("--overflow", default="reject",
                   choices=["reject", "shed-oldest"],
                   help="backpressure policy when the queue is full")
    p.add_argument("--out", type=Path, default=None,
                   help="path for the latency-stats JSON document")
    p.add_argument("--csv", type=Path, default=None,
                   help="path for the flat metric,value CSV")
    p.add_argument("--profile", type=Path, default=None,
                   help="tuned-profile JSON (a 'tune search' artifact); "
                        "explicit flags that contradict it are an error")
    for knob in default_space().knobs:
        if knob.kind == "bool":
            p.add_argument(knob.flag, action="store_true",
                           help=f"knob {knob.name}: {knob.doc}")
            continue
        typed = ({"choices": list(knob.choices)} if knob.kind == "choice"
                 else {"type": int if knob.kind == "int" else float})
        p.add_argument(knob.flag, default=None, **typed,
                       help=f"knob {knob.name}: {knob.doc} "
                            f"(default {knob.default})")
    p.add_argument("--tenants", default=None,
                   help="multi-tenant admission: name=weight pairs, e.g. "
                        "gold=4,bronze=1 — requests are tagged in those "
                        "traffic proportions and the queue dequeues "
                        "weighted-fair with fair-share shedding")
    p.add_argument("--staleness-ms", type=float, default=1.0,
                   help="staleness bound for --write-policy primary-async "
                        "(simulated ms)")


def _add_load_args(p: argparse.ArgumentParser) -> None:
    """Offered-load flags of serve-style runs and ``tune search``."""
    p.add_argument("--requests", type=int, default=2000,
                   help="number of offered requests")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load as a fraction of calibrated capacity")
    p.add_argument("--rate", type=float, default=None,
                   help="absolute arrival rate (req/s of simulated time; "
                        "overrides --load)")
    p.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="admission-queue depth bound")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request relative deadline (simulated ms)")


def _add_adapt_args(p: argparse.ArgumentParser) -> None:
    """The online-controller flags (serve/faults/tune apply)."""
    p.add_argument("--adapt", action="store_true",
                   help="run the online tuning controller: adapts a "
                        "whitelisted knob subset at phase boundaries "
                        "between batches, never mid-round")
    p.add_argument("--adapt-window", type=int, default=32,
                   help="batches per controller phase")


def _add_common(p: argparse.ArgumentParser, names=tuple(_COMMON_PARAMS)
                ) -> None:
    for name in names:
        typ, help_text = _COMMON_PARAMS[name]
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                       help=help_text)


def _kwargs_from(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in (*_COMMON_PARAMS, "dataset")
            if getattr(args, name, None) is not None}


def _run_one(name: str, kwargs: dict) -> ExperimentResult:
    import inspect

    fn = ALL_EXPERIMENTS[name]
    accepted = set(inspect.signature(fn).parameters)
    kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    t0 = time.time()
    result = fn(**kwargs)
    print(result)
    print(f"[{name} completed in {time.time() - t0:.1f}s wall]\n")
    return result


# ======================================================================
# shared parsing and reporting
# ======================================================================
def _seed(args: argparse.Namespace, default: int = 7) -> int:
    return args.seed if args.seed is not None else default


def _parse_mix(text: str) -> dict[str, float]:
    """``--mix kind=weight,...`` as a dict."""
    try:
        mix = {}
        for part in text.split(","):
            kind, _, w = part.strip().partition("=")
            mix[kind] = float(w)
    except ValueError:
        raise UsageError(f"malformed --mix {text!r}") from None
    return mix


def _parse_tenants(text: str | None) -> dict[str, float] | None:
    """``--tenants name=weight,...`` as a dict (None when unset)."""
    if text is None:
        return None
    tenants = {}
    try:
        for part in text.split(","):
            name, sep, w = part.strip().partition("=")
            if not sep or not name:
                raise ValueError
            tenants[name] = float(w)
            if tenants[name] <= 0:
                raise ValueError
    except ValueError:
        raise UsageError(f"malformed --tenants {text!r} "
                         "(want name=weight,... with positive weights)"
                         ) from None
    return tenants


def _check_requests(args: argparse.Namespace) -> None:
    if args.requests < 1:
        raise UsageError("--requests must be >= 1")


def _resolve_tune_config(args: argparse.Namespace):
    """The :class:`repro.tune.Resolution` of defaults < ``--profile`` <
    flags; conflicts and ungated refinement flags are usage errors."""
    from .tune import KnobConflict, default_space, load_profile

    space = default_space()
    profile = None
    if args.profile is not None:
        try:
            profile = load_profile(json.loads(args.profile.read_text()),
                                   space=space)
        except (OSError, ValueError, KeyError) as e:
            raise UsageError(f"cannot load profile {args.profile}: {e}"
                             ) from None
    try:
        return space.from_args(args, profile=profile)
    except (KnobConflict, ValueError) as e:
        raise UsageError(str(e)) from None


def _serve_spec(args: argparse.Namespace, config: dict, mix: dict, *,
                n_modules: int = 32, **fields):
    """The ``RunSpec`` a serve-style command line describes."""
    from .serve import RunSpec

    return RunSpec(
        dataset=args.dataset, n=args.n or 20_000,
        n_modules=args.n_modules or n_modules, seed=_seed(args),
        index=args.index, arrival=args.arrival, requests=args.requests,
        rate=args.rate, mix=mix, k=args.k,
        deadline_s=(args.deadline_ms * 1e-3 if args.deadline_ms is not None
                    else math.inf),
        queue_depth=args.queue_depth, overflow=args.overflow, config=config,
        staleness_s=args.staleness_ms * 1e-3, **fields)


def _calibrate(spec, load: float, data=None, *, what: str = "capacity",
               per: str = ""):
    """``spec`` with its rate set to ``load`` × the probed capacity (as is
    when ``--rate`` already set it)."""
    if spec.rate is not None:
        return spec
    from .serve import probe_capacity

    capacity = probe_capacity(spec, data)
    rate = load * capacity
    print(f"calibrated {what} ≈ {capacity:.0f} req/s; offering "
          f"{load:.2f}x = {rate:.0f} req/s{per}")
    return replace(spec, rate=rate)


def _report_tuned(res) -> None:
    """Print the non-default knobs of a resolved configuration."""
    tuned = res.non_default()
    if tuned:
        print("tuned knobs: " + ", ".join(
            f"{k}={v} [{res.sources[k]}]" for k, v in sorted(tuned.items())))


def _report_phase(adapter, phase: str, of: str = "total sim time") -> None:
    """Print one phase's simulated time and its share of the whole run."""
    stats = adapter.system.stats
    counters = stats.phases.get(phase)
    if counters is None:
        return
    t = adapter.tree.cost_model.time(counters)
    total_s = adapter.tree.cost_model.time(stats.total).total_s
    share = 100.0 * t.total_s / total_s if total_s else 0.0
    print(f"{phase} phase: {t.total_s * 1e3:.3f}ms simulated "
          f"({share:.2f}% of {of})")


def _report_reconcile(tracer, stats, prefix: str = "") -> list:
    """Check a serve-style trace against the system's counters."""
    problems = tracer.timeline.reconcile(stats)
    print(f"{prefix}trace reconciles exactly" if not problems
          else f"{prefix.upper()}RECONCILIATION FAILED: {problems}")
    return problems


def _wrote(*paths) -> None:
    for path in paths:
        if path is not None:
            print(f"wrote {path}")


# ======================================================================
# subcommands
# ======================================================================
def _run_list(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name, fn in ALL_EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        print(f"  {name:8s} {doc[0] if doc else ''}")
    return 0


def _run_all(args: argparse.Namespace) -> int:
    from .eval.experiments import write_report

    results = [_run_one(name, _kwargs_from(args)) for name in ALL_EXPERIMENTS]
    if args.out is not None:
        report, raw = write_report(results, args.out)
        print(f"wrote {report} and {raw}")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: traced workload → timeline export."""
    from .eval import phase_breakdown_table, run_suite
    from .eval.harness import PIMZdTreeAdapter
    from .obs import TraceCollector, load_summary, timeline_csv, write_trace
    from .serve.spec import load_dataset

    n = args.n or 20_000
    batch = args.batch or 256
    n_modules = args.n_modules or 32
    seed = _seed(args)
    ops = tuple(o.strip() for o in args.ops.split(",") if o.strip())
    for op in ops:
        root = op.split("-")[0]
        valid = (op == "insert" or
                 (op.endswith("-nn") and root.isdigit()) or
                 (op.startswith(("bc-", "bf-")) and op[3:].isdigit()))
        if not valid:
            raise UsageError(f"unknown op {op!r} "
                             "(expected insert, bc-N, bf-N or K-nn)")
    if args.ring < 1:
        raise UsageError("--ring must be >= 1")

    data = load_dataset(args.dataset, n, seed)
    gen = DATASETS[args.dataset]
    counter = {"i": 0}

    def fresh(m: int):
        counter["i"] += 1
        return gen(m, 3, seed=seed * 1000 + counter["i"])

    tracer = TraceCollector(capacity=args.ring)
    adapter = PIMZdTreeAdapter(data, n_modules=n_modules, seed=seed,
                               tracer=tracer)
    measurements = run_suite(adapter, data=data, ops=ops, batch=batch,
                             seed=seed, fresh_points=fresh)

    print(f"=== trace — {args.dataset}, n={n}, batch={batch}, "
          f"P={n_modules}, ops={','.join(ops)} ===")
    print(phase_breakdown_table(measurements))
    print(f"\nevents emitted: {tracer.seq} (retained {len(tracer.events())}, "
          f"dropped {tracer.dropped}); rounds: {tracer.rounds_seen}")

    load = load_summary(tracer, residency=adapter.system.residency())
    cyc, res = load["cycles"], load["resident_words"]
    print(f"module load: cycles max/mean x{cyc['max_mean_ratio']:.2f} "
          f"gini={cyc['gini']:.3f}; resident words max/mean "
          f"x{res['max_mean_ratio']:.2f} gini={res['gini']:.3f}")
    if tracer.capacity_events:
        print(f"capacity-pressure events: {len(tracer.capacity_events)}")

    problems = tracer.timeline.reconcile(adapter.system.stats)
    if problems:
        print("RECONCILIATION FAILED:")
        for p in problems:
            print(f"  {p}")
    else:
        print("trace reconciles exactly with PIMStats totals")

    if args.out is not None or args.csv is not None:
        write_trace(tracer, json_path=args.out, csv_path=args.csv,
                    stats=adapter.system.stats,
                    include_events=not args.no_events,
                    residency=adapter.system.residency())
        _wrote(args.out, args.csv)
    else:
        print("\n" + timeline_csv(tracer))
    return 1 if problems else 0


def _fault_plan(args: argparse.Namespace):
    """The ``faults`` subcommand's :class:`FaultPlan`."""
    from .faults import FaultPlan

    try:
        crash_at = {}
        for text in args.crash or []:
            mid, sep, rnd = text.partition("@")
            if not sep:
                raise ValueError(f"malformed --crash {text!r} (want MID@ROUND)")
            crash_at[int(mid)] = int(rnd)
        slow = {}
        for text in args.slow or []:
            mid, sep, factor = text.partition(":")
            if not sep:
                raise ValueError(f"malformed --slow {text!r} (want MID:FACTOR)")
            slow[int(mid)] = float(factor)
        plan = FaultPlan(
            seed=args.fault_seed if args.fault_seed is not None
            else _seed(args),
            crash_at=crash_at, crash_rate=args.crash_rate,
            max_crashes=args.max_crashes, drop_rate=args.drop_rate,
            slow_factors=slow, storm_rate=args.storm_rate,
            storm_factor=args.storm_factor, storm_rounds=args.storm_rounds,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    return plan


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``, ``faults`` and ``tune apply``: one open-loop run."""
    from .obs import TraceCollector, write_latency
    from .serve import build_run
    from .tune import IndexMismatch, OnlineController

    faults = args.command == "faults"
    mix = _parse_mix(args.mix)
    n_modules = args.n_modules or 32
    plan = _fault_plan(args) if faults else None
    _check_requests(args)
    if faults and any(mid >= n_modules or mid < 0
                      for mid in (*plan.crash_at, *plan.slow_factors)):
        raise UsageError(f"module ids must be in [0, {n_modules})")
    res = _resolve_tune_config(args)
    controller = None
    if args.adapt:
        try:
            controller = OnlineController(window=args.adapt_window)
        except ValueError as e:
            raise UsageError(str(e)) from None
    loop_fields = {}
    if faults:
        loop_fields = dict(
            max_retries=args.retries, backoff_s=args.backoff_ms * 1e-3,
            timeout_s=(args.timeout_ms * 1e-3 if args.timeout_ms is not None
                       else None),
            degraded_mode=not args.no_degraded, failover=not args.no_failover)
    spec = _serve_spec(args, res.config, mix, filter_seed=0, **loop_fields)
    data = spec.load_data()
    # Fault runs calibrate on the healthy machine, so degradation shows.
    spec = _calibrate(spec, args.load, data,
                      what="fault-free capacity" if faults else "capacity")
    spec = replace(spec, tenants=_parse_tenants(args.tenants))
    tracer = TraceCollector() if faults else None
    try:
        run = build_run(spec, data=data, fault_plan=plan, tracer=tracer,
                        controller=controller)
    except IndexMismatch as e:
        _report_tuned(res)
        raise UsageError(f"{e} (got --index {args.index!r})") from None
    except ValueError as e:
        raise UsageError(str(e)) from None
    _report_tuned(res)
    rep, flt = run.parts["replication"], run.parts["filters"]
    if rep is not None:
        print(f"replication: installed {rep['installed']} secondary "
              f"copies ({rep['words']:,.0f} words)")
    if flt is not None:
        print(f"route filters: fpr={flt['fpr']:g}, "
              f"{flt['keys_indexed']} keys indexed, "
              f"{flt['filter_kib']:.1f} KiB resident")
    loop, adapter = run.loop, run.adapter
    result = loop.run(run.requests)

    print(f"=== {'faults' if faults else 'serve'} — {args.dataset}, "
          f"{args.index}, n={spec.n}, P={spec.n_modules}, {args.arrival} "
          f"arrivals, {res.config['batch.policy']} batching ===")
    print(result.stats.table())
    rebalancer = run.parts["rebalancer"]
    if rebalancer is not None:
        print(f"\nrebalance: {loop.rebalance_steps} steps, "
              f"{rebalancer.migrations} chunk moves, "
              f"{rebalancer.words_moved:,.0f} words moved "
              f"({loop.rebalance_time_s * 1e3:.3f}ms of simulated time)")
        _report_phase(adapter, "rebalance")
    if controller is not None:
        aud = controller.audit()
        print(f"\ncontroller: {aud['changes']} change(s) over "
              f"{aud['phases']} phase(s) "
              f"(whitelist: {', '.join(aud['whitelist'])})")
        for h in aud["history"]:
            print(f"  phase {h['phase']}: {h['knob']} {h['old']:g} -> "
                  f"{h['new']:g} ({h['why']})")

    problems = []
    if faults:
        summary = plan.summary()
        dead = sorted(adapter.system.dead_modules)
        events = (", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
                  if summary else "none")
        print(f"\ninjected events: {events}")
        print(f"dead modules: {dead if dead else 'none'} "
              f"({adapter.system.n_live}/{adapter.system.n_modules} live)")
        retried = sum(1 for b in result.batches if b.retries)
        print(f"batches: {len(result.batches)} total, {retried} retried")
        _report_phase(adapter, "recovery")
        problems = _report_reconcile(tracer, adapter.system.stats)

    if args.out is not None or args.csv is not None:
        tune_doc = None
        if res.non_default() or (controller is not None and controller.active):
            tune_doc = {"knobs": res.config, "sources": res.sources}
        write_latency(result.stats, json_path=args.out, csv_path=args.csv,
                      batches=result.batches,
                      faults=plan.events if faults else None,
                      config=tune_doc)
        _wrote(args.out, args.csv)
    return 1 if problems else 0


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: sharded paper-scale serve run."""
    from .serve import run_sweep

    mix = _parse_mix(args.mix)
    _check_requests(args)
    res = _resolve_tune_config(args)
    spec = _serve_spec(args, res.config, mix, n_modules=2048,
                       tenants=_parse_tenants(args.tenants))
    _report_tuned(res)
    # Per-shard rate: every shard serves the same index, so one probe
    # speaks for all.
    spec = _calibrate(spec, args.load, per=" per shard")
    fields = asdict(spec)
    result = run_sweep(total_requests=fields.pop("requests"),
                       procs=args.procs, **fields)

    print(f"=== sweep — {args.dataset}, {args.index}, n={spec.n}, "
          f"P={spec.n_modules}, {args.arrival} arrivals, "
          f"{res.config['batch.policy']} batching ===")
    print(result.table())
    if args.out is not None:
        args.out.write_text(json.dumps(result.to_dict(), indent=2))
    if args.csv is not None:
        args.csv.write_text(result.csv())
    _wrote(args.out, args.csv)
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    """The ``tune`` subcommand: offline search / tuned serve / report."""
    if args.action == "apply":
        if args.profile is None:
            raise UsageError("tune apply requires --profile")
        return _run_serve(args)
    if args.action == "report":
        return _run_tune_report(args)

    from .tune import profile_json, search

    knobs = None
    if args.knobs:
        knobs = tuple(k.strip() for k in args.knobs.split(",") if k.strip())
    seed = _seed(args)
    try:
        result = search(
            args.workload, seed=seed, n=args.n or 4000,
            n_modules=args.n_modules or 8, requests=args.requests,
            rate=args.rate, load=args.load, k=args.k,
            deadline_ms=args.deadline_ms, generations=args.generations,
            beam=args.beam, procs=args.procs, knobs=knobs,
            queue_depth=args.queue_depth)
    except (ValueError, RuntimeError) as e:
        raise UsageError(str(e)) from None
    print(f"=== tune search — {args.workload}, seed {seed}, "
          f"generations={args.generations}, beam={args.beam} ===")
    print(result.table())
    failed = sum(1 for nd in result.nodes.values() if nd.error)
    if failed:
        print(f"note: {failed} candidate evaluation(s) failed and were "
              "pruned")
    if args.out is not None:
        args.out.write_text(profile_json(result))
        _wrote(args.out)
    return 0


def _run_tune_report(args: argparse.Namespace) -> int:
    """``tune report``: a tuned profile's headline numbers."""
    from .tune import default_space, load_profile, profile_report

    if args.profile is None:
        raise UsageError("tune report requires --profile")
    try:
        doc = json.loads(args.profile.read_text())
        load_profile(doc, space=default_space())
    except (OSError, ValueError, KeyError) as e:
        raise UsageError(f"cannot load profile {args.profile}: {e}") from None
    print(profile_report(doc))
    return 0


def _run_balance(args: argparse.Namespace) -> int:
    """The ``balance`` subcommand: rebalance-off vs rebalance-on serving."""
    from .balance import BalanceConfig
    from .eval.skewbench import rebalance_comparison
    from .obs import sanitize_json
    from .serve.spec import load_dataset
    from .workloads import bin_points, gini_coefficient

    n = args.n or 16_000
    batch = args.batch or 64
    n_modules = args.n_modules or 16
    seed = _seed(args, 8)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")

    data = load_dataset(args.dataset, n, seed)
    gini = gini_coefficient(bin_points(data))
    cfg = BalanceConfig(ratio_threshold=args.ratio_threshold,
                        gini_threshold=args.gini_threshold,
                        budget_words=args.budget_words,
                        max_moves=args.max_moves, seed=seed)
    cmp = rebalance_comparison(data, cfg, n_modules=n_modules, seed=seed,
                               batch=batch, steps=args.steps, k=args.k,
                               kind=args.kind)
    hot_metas, rebalancer = cmp["hot_metas"], cmp["rebalancer"]
    print(f"=== balance — {args.dataset} (gini={gini:.3f}), n={n}, "
          f"P={n_modules}, kind={args.kind}, batch={batch}, "
          f"steps={args.steps} ===")
    print(f"attacking module {cmp['hot_module']}: {len(hot_metas)} "
          f"colocated chunks, "
          f"{sum(m.root.count for m in hot_metas):,} points under them")
    print(f"\n{'step':>4} {'off req/s':>12} {'on req/s':>12} {'moves':>6}")
    for a, b in zip(cmp["timeline_off"], cmp["timeline_on"]):
        print(f"{a['step']:>4} {a['throughput']:>12.0f} "
              f"{b['throughput']:>12.0f} {b['migrations']:>6}")
    print(f"\nsteady-state throughput (trailing half): "
          f"off {cmp['off']:,.0f} req/s, on {cmp['on']:,.0f} req/s — "
          f"{cmp['speedup']:.2f}x")
    print(f"migrations: {rebalancer.migrations} chunk moves, "
          f"{rebalancer.words_moved:,.0f} words, "
          f"{len(rebalancer.history)} invocations")
    _report_phase(cmp["adapter"], "rebalance")
    problems = cmp["problems"]
    print("traces reconcile exactly" if not problems
          else f"RECONCILIATION FAILED: {problems}")

    if args.out is not None:
        doc = sanitize_json({
            "format": "repro.obs/balance-1",
            "dataset": args.dataset, "gini": gini, "n": n,
            "n_modules": n_modules, "kind": args.kind,
            "batch": batch, "k": args.k,
            "hot_module": cmp["hot_module"],
            "hot_chunks": len(hot_metas),
            "timeline_off": cmp["timeline_off"],
            "timeline_on": cmp["timeline_on"],
            "steady_state": {"off": cmp["off"], "on": cmp["on"],
                             "speedup": cmp["speedup"]},
            "migrations": rebalancer.history,
            "reconciliation": {"exact": not problems, "problems": problems},
        })
        args.out.write_text(json.dumps(doc, indent=2, allow_nan=False))
        _wrote(args.out)
    return 1 if problems else 0


def _run_store(args: argparse.Namespace) -> int:
    """The ``store`` subcommand: durable tier demo / inspect / recover."""
    from .store import StoreError, open_backend

    if args.action == "demo":
        return _run_store_demo(args)
    if args.path is None:
        raise UsageError(f"--path is required for {args.action}")
    try:
        backend = open_backend(args.backend, args.path)
    except (OSError, StoreError) as e:
        raise UsageError(f"cannot open store at {args.path}: {e}") from None
    if args.action == "inspect":
        return _run_store_inspect(args, backend)

    from .obs import TraceCollector
    from .store import recover

    tracer = TraceCollector()
    try:
        res = recover(backend, tracer=tracer)
    except StoreError as e:
        print(f"error: recovery refused: {e}")
        return 1
    stats = res.system.stats
    t = res.tree.cost_model.time(stats.total)
    print(f"=== recover — {args.backend} backend at {args.path} ===")
    print(f"snapshot seq {res.snapshot_seq} ({res.snapshot_words:,.0f} "
          f"words) + {res.wal_records} WAL records: {res.replayed} "
          f"replayed, {res.skipped_uncommitted} uncommitted skipped"
          + (", torn tail dropped" if res.torn_tail else ""))
    print(f"index: {res.tree.root.count:,} points on "
          f"{res.system.n_live}/{res.system.n_modules} modules")
    print(f"charged restart cost: {t.total_s * 1e3:.3f}ms simulated, "
          f"all under the 'recovery' phase "
          f"(phases: {sorted(stats.phases)})")
    return 1 if _report_reconcile(tracer, stats) else 0


def _run_store_inspect(args: argparse.Namespace, backend) -> int:
    """``store inspect``: a store's manifest and WAL record table."""
    from .store import SnapshotStore, StoreError, committed_seqs, scan_wal

    try:
        image = SnapshotStore(backend).load_image()
    except StoreError as e:
        print(f"error: {e}")
        return 1
    man = image.manifest
    tree_m, sys_m = man["tree"], man["system"]
    print(f"=== store — {args.backend} backend at {args.path} ===")
    print(f"snapshot: v{man['version']}, covers WAL seq <= "
          f"{man['wal_seq']}; {tree_m['size']:,} points, "
          f"dims={tree_m['dims']}, P={sys_m['n_modules']}, "
          f"seed={sys_m['seed']}, "
          f"dead={sys_m['dead_modules'] or 'none'}")
    print(f"chunks: {len(image.chunks)} ({image.total_bytes:,} bytes "
          f"incl. topology)")
    raw = backend.wal_read()
    try:
        records, torn = scan_wal(raw)
    except StoreError as e:
        print(f"WAL CORRUPT: {e}")
        return 1
    committed = committed_seqs(records)
    print(f"\nWAL: {len(raw):,} bytes, {len(records)} records")
    for r in records:
        mark = ("committed" if r.seq in committed else "UNCOMMITTED"
                ) if r.kind_name in ("insert", "delete") else "control"
        print(f"  @{r.offset:<8} seq={r.seq:<6} {r.kind_name:<9} "
              f"{len(r.payload):>8}B  {mark}")
    if torn is not None:
        print(f"  torn tail at byte {torn.offset}: {torn.reason} "
              f"({torn.dropped_bytes}B dropped on replay)")
    return 0


def _run_store_demo(args: argparse.Namespace) -> int:
    """``store demo``: serve with checkpoint + WAL, optionally killed."""
    import tempfile

    from .faults import FaultPlan
    from .obs import TraceCollector, write_latency
    from .serve import RunSpec, build_run
    from .store import DurableStore, open_backend, recover

    spec = RunSpec(dataset=args.dataset, n=args.n or 20_000,
                   n_modules=args.n_modules or 32, seed=_seed(args),
                   requests=args.requests, mix=_parse_mix(args.mix),
                   k=args.k, max_restarts=args.max_restarts)
    _check_requests(args)
    path = args.path
    if path is None:
        tmp = Path(tempfile.mkdtemp(prefix="repro-store-"))
        path = tmp / "store.db" if args.backend == "sqlite" else tmp
    backend = open_backend(args.backend, path)

    data = spec.load_data()
    spec = _calibrate(spec, args.load, data)
    plan = (FaultPlan(machine_kill_at=args.kill_round)
            if args.kill_round is not None else None)
    tracer = TraceCollector()
    store = DurableStore(backend, budget_fraction=args.budget_fraction)
    try:
        run = build_run(spec, data=data, fault_plan=plan, tracer=tracer,
                        store=store)
    except ValueError as e:
        raise UsageError(str(e)) from None
    loop, adapter = run.loop, run.adapter
    result = loop.run(run.requests)

    print(f"=== store demo — {args.dataset}, n={spec.n}, "
          f"P={spec.n_modules}, {args.backend} backend at {path} ===")
    print(result.stats.table())
    print(f"\ncheckpoints: {loop.checkpoints} "
          f"({loop.checkpoint_time_s * 1e3:.3f}ms of simulated time); "
          f"WAL records pending: {store.dirty_records}")
    for r in loop.restarts:
        print(f"machine killed at t={r['killed_at_s'] * 1e3:.3f}ms, "
              f"recovered at t={r['recovered_at_s'] * 1e3:.3f}ms "
              f"(restart {r['restart_s'] * 1e3:.3f}ms = time-to-first-query; "
              f"{r['replayed']} replayed, "
              f"{r['skipped_uncommitted']} uncommitted skipped)")
    if plan is not None and not loop.restarts:
        print("no machine kill fired (too few BSP rounds before --kill-round?)")
    _report_phase(adapter, "recovery", "the post-restart system's sim time")

    # The serve tracer watches the pre-crash system, whose stats die with
    # the kill — so after a restart, reconcile a *fresh* standalone
    # recovery instead (every charge on that system is recovery, traced
    # from birth).  Crash-free runs reconcile the serve trace directly.
    if loop.restarts:
        tracer2 = TraceCollector()
        res = recover(backend, tracer=tracer2,
                      cost_model=adapter.tree.cost_model)
        problems = _report_reconcile(tracer2, res.system.stats, "recovery ")
    else:
        problems = _report_reconcile(tracer, adapter.system.stats)

    if args.out is not None:
        write_latency(result.stats, json_path=args.out,
                      batches=result.batches,
                      faults=plan.events if plan is not None else None,
                      store_events=store.events, restarts=loop.restarts)
        _wrote(args.out)
    return 1 if problems else 0


_COMMANDS = {
    "list": _run_list,
    "all": _run_all,
    "trace": _run_trace,
    "serve": _run_serve,
    "faults": _run_serve,
    "sweep": _run_sweep,
    "tune": _run_tune,
    "balance": _run_balance,
    "store": _run_store,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run = _COMMANDS.get(args.command)
    try:
        if run is not None:
            return run(args)
        _run_one(args.command, _kwargs_from(args))
        return 0
    except UsageError as e:
        print(f"error: {e}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
