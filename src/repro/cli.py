"""Command-line driver: regenerate any paper experiment from a shell.

Examples::

    python -m repro.cli list
    python -m repro.cli fig5 --dataset osm --n 30000
    python -m repro.cli table3 --batch 256
    python -m repro.cli all --out results/
    python -m repro.cli trace --ops insert,bc-10,10-nn --out trace.json
    python -m repro.cli serve --arrival poisson --load 0.8 --out latency.json
    python -m repro.cli faults --drop-rate 0.02 --crash 3@40 --retries 3
    python -m repro.cli balance --dataset varden --steps 24 --out balance.json
    python -m repro.cli store demo --kill-round 30 --path /tmp/zd-store
    python -m repro.cli store inspect --path /tmp/zd-store
    python -m repro.cli store recover --path /tmp/zd-store
    python -m repro.cli tune search --workload varden --out varden.json
    python -m repro.cli tune report --profile varden.json
    python -m repro.cli tune apply --profile varden.json --dataset varden
    python -m repro.cli serve --profile varden.json --adapt

``all`` runs every experiment and (with ``--out``) writes one markdown
report plus a JSON dump of the raw rows.  ``trace`` runs a workload with
the ``repro.obs`` collector attached and exports the per-phase/per-module
timeline (JSON, optionally CSV), checking that the trace reconciles
exactly with the simulator's counters.  ``faults`` is ``serve`` under a
seeded :class:`repro.faults.FaultPlan`: module crashes, straggler storms
and message drops are injected, the loop retries/fails over/degrades,
and the report adds availability, the fault-event summary and the
recovery phase's share of simulated time.  ``balance`` attacks a
hash-colocated hot module with an adversarial kNN stream and serves it
twice — rebalance off, then on — reporting the throughput recovery, the
chunk migrations and the ``"rebalance"`` phase's share of simulated
time; ``serve``/``faults`` accept ``--rebalance`` to step the online
rebalancer between batches of an open-loop run.  ``store`` drives the
durable tier: ``demo`` serves with checkpoint + WAL attached (optionally
killing the whole machine mid-run and restarting from disk, charged
under the ``"recovery"`` phase), ``inspect`` prints an on-disk store's
manifest and WAL record table, and ``recover`` rebuilds the index from
disk and reports the charged restart cost.  ``tune`` drives the
self-tuning subsystem (``repro.tune``): ``search`` runs the offline
strategy-tree policy search over the serving config space and emits a
tuned profile, ``report`` prints a profile's headline numbers, and
``apply`` serves with the profile's knobs applied.  ``serve``, ``faults``
and ``sweep`` all ingest their knobs through one path
(:meth:`repro.tune.ConfigSpace.from_args`): defaults < ``--profile`` <
explicit flags, where contradicting sources — or a refinement flag like
``--rebalance-ratio`` without its ``--rebalance`` gate — are loud errors
rather than silent no-ops.  ``--adapt`` (serve/faults) additionally runs
the online controller, which nudges a whitelisted knob subset at phase
boundaries between batches.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .eval.experiments import ALL_EXPERIMENTS, DATASETS, ExperimentResult

_COMMON_PARAMS = {
    "n": (int, "warmup dataset size"),
    "batch": (int, "operations per measured batch"),
    "n_modules": (int, "simulated PIM modules"),
    "seed": (int, "master seed"),
}


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

    p_tr = sub.add_parser(
        "trace",
        help="run a traced workload; export the per-phase/per-module timeline",
    )
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

    p_sv = sub.add_parser(
        "serve",
        help="open-loop serving run: arrival process, admission queue, "
             "continuous batching, latency stats",
    )
    _add_serve_args(p_sv)
    _add_adapt_args(p_sv)

    p_ft = sub.add_parser(
        "faults",
        help="serving run under a seeded fault plan: crashes, straggler "
             "storms, message drops; retry/failover/degraded-mode stats",
    )
    _add_serve_args(p_ft, index_choices=["pim", "pim-skew"])
    _add_adapt_args(p_ft)
    p_ft.add_argument("--fault-seed", type=int, default=None,
                      help="fault-plan RNG seed (default: master seed)")
    p_ft.add_argument("--crash", action="append", default=None,
                      metavar="MID@ROUND",
                      help="schedule a module crash, e.g. --crash 3@40 "
                           "(repeatable)")
    p_ft.add_argument("--crash-rate", type=float, default=0.0,
                      help="per-(module, round) crash probability")
    p_ft.add_argument("--max-crashes", type=int, default=None,
                      help="cap on random crashes")
    p_ft.add_argument("--drop-rate", type=float, default=0.0,
                      help="per-transfer CPU<->PIM message-loss probability")
    p_ft.add_argument("--slow", action="append", default=None,
                      metavar="MID:FACTOR",
                      help="static straggler slowdown, e.g. --slow 0:4 "
                           "(repeatable)")
    p_ft.add_argument("--storm-rate", type=float, default=0.0,
                      help="per-round probability a straggler storm starts")
    p_ft.add_argument("--storm-factor", type=float, default=8.0,
                      help="cycle multiplier during a storm")
    p_ft.add_argument("--storm-rounds", type=int, default=4,
                      help="rounds a storm lasts")
    p_ft.add_argument("--retries", type=int, default=3,
                      help="dispatch retries before giving up on a batch")
    p_ft.add_argument("--backoff-ms", type=float, default=0.1,
                      help="base exponential-backoff delay (simulated ms)")
    p_ft.add_argument("--timeout-ms", type=float, default=None,
                      help="per-request queue timeout (simulated ms)")
    p_ft.add_argument("--no-failover", action="store_true",
                      help="do not rebuild dead modules' shards")
    p_ft.add_argument("--no-degraded", action="store_true",
                      help="fail exhausted query batches instead of "
                           "completing them with partial results")

    p_sw = sub.add_parser(
        "sweep",
        help="paper-scale sharded serve sweep: split the offered load "
             "across worker processes (independent replicas), merge "
             "latency/throughput stats",
    )
    _add_serve_args(p_sw)
    p_sw.add_argument("--procs", type=int, default=None,
                      help="worker processes / shards "
                           "(default: cpu count, capped at 8; 1 = inline)")
    p_sw.set_defaults(requests=1_000_000, queue_depth=4096)

    p_bl = sub.add_parser(
        "balance",
        help="skew-aware rebalancing demo: adversarial hot-shard workload "
             "served with rebalance off vs on; migration + recovery report",
    )
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

    p_tn = sub.add_parser(
        "tune",
        help="self-tuning: offline strategy-tree search over the serving "
             "config space (search), tuned serve run (apply), or profile "
             "inspection (report)",
    )
    p_tn.add_argument("action", choices=["search", "apply", "report"],
                      help="search: emit a tuned profile for --workload; "
                           "apply: serve with --profile applied; "
                           "report: print a profile's headline numbers")
    _add_serve_args(p_tn)
    _add_adapt_args(p_tn)
    p_tn.add_argument("--workload", default="varden",
                      choices=["diurnal", "uniform", "varden"],
                      help="workload class to tune for (search)")
    p_tn.add_argument("--generations", type=int, default=2,
                      help="strategy-tree refinement depth (search)")
    p_tn.add_argument("--beam", type=int, default=4,
                      help="surviving Pareto nodes expanded per generation "
                           "(search)")
    p_tn.add_argument("--procs", type=int, default=1,
                      help="worker processes for candidate evaluation "
                           "(search; the result is procs-independent)")
    p_tn.add_argument("--knobs", default=None,
                      help="comma-separated knob subset to refine (search; "
                           "default: the serving-visible set)")
    p_tn.set_defaults(requests=240, load=1.0)

    p_st = sub.add_parser(
        "store",
        help="durable storage tier: checkpointed serving with an optional "
             "whole-machine kill + charged crash-restart, or inspect/"
             "recover an on-disk store",
    )
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
    """Arguments shared by the ``serve`` and ``faults`` subcommands."""
    _add_common(p)
    p.add_argument("--dataset", default="uniform", choices=sorted(DATASETS),
                   help="workload distribution")
    p.add_argument("--index", default="pim",
                   choices=index_choices or ["pim", "pim-skew", "zd", "pkd"],
                   help="index adapter to serve from")
    p.add_argument("--arrival", default="poisson",
                   choices=["poisson", "bursty", "diurnal"],
                   help="arrival process")
    p.add_argument("--requests", type=int, default=2000,
                   help="number of offered requests")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load as a fraction of calibrated capacity")
    p.add_argument("--rate", type=float, default=None,
                   help="absolute arrival rate (req/s of simulated time; "
                        "overrides --load)")
    p.add_argument("--mix", default="knn=0.7,bc=0.15,bf=0.1,insert=0.05",
                   help="request mix, e.g. knn=0.8,insert=0.2")
    p.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="admission-queue depth bound")
    p.add_argument("--overflow", default="reject",
                   choices=["reject", "shed-oldest"],
                   help="backpressure policy when the queue is full")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request relative deadline (simulated ms)")
    p.add_argument("--policy", default=None,
                   choices=["adaptive", "fixed"],
                   help="batch-size policy (default adaptive, unless a "
                        "--profile says otherwise)")
    p.add_argument("--overhead-target", type=float, default=None,
                   help="adaptive policy: fixed-overhead share of batch "
                        "service time (default 0.1)")
    p.add_argument("--fixed-batch", type=int, default=None,
                   help="batch size for --policy fixed (default 64)")
    p.add_argument("--out", type=Path, default=None,
                   help="path for the latency-stats JSON document")
    p.add_argument("--csv", type=Path, default=None,
                   help="path for the flat metric,value CSV")
    p.add_argument("--profile", type=Path, default=None,
                   help="tuned-profile JSON (a 'tune search' artifact); "
                        "explicit flags that contradict it are an error")
    p.add_argument("--rebalance", action="store_true",
                   help="step the online rebalancer between batches "
                        "(pim index adapters only)")
    p.add_argument("--rebalance-ratio", type=float, default=None,
                   help="max/mean EWMA heat ratio that trips migration "
                        "(default 1.5; requires --rebalance)")
    p.add_argument("--rebalance-gini", type=float, default=None,
                   help="EWMA heat Gini that trips migration "
                        "(default 0.35; requires --rebalance)")
    p.add_argument("--rebalance-budget-words", type=float, default=None,
                   help="word budget per migration invocation "
                        "(default 65536; requires --rebalance)")
    p.add_argument("--rebalance-budget", type=float, default=None,
                   help="rebalance time budget as a fraction of service "
                        "time (default 0.05; requires --rebalance)")
    p.add_argument("--pull-factor", type=float, default=None,
                   help="push-pull trigger: load-imbalance factor that "
                        "flips a round from push to pull (default 3.0)")
    p.add_argument("--tenants", default=None,
                   help="multi-tenant admission: name=weight pairs, e.g. "
                        "gold=4,bronze=1 — requests are tagged in those "
                        "traffic proportions and the queue dequeues "
                        "weighted-fair with fair-share shedding")
    p.add_argument("--replicate", type=int, default=None, metavar="K",
                   help="K-way chunk replication (total copies incl. the "
                        "primary); installs replicas before serving and "
                        "routes reads to the least-loaded copy")
    p.add_argument("--write-policy", default=None,
                   choices=["write-all", "primary-async"],
                   help="replica write policy (default write-all; "
                        "requires --replicate >= 2)")
    p.add_argument("--staleness-ms", type=float, default=1.0,
                   help="staleness bound for --write-policy primary-async "
                        "(simulated ms)")
    p.add_argument("--route-filter", action="store_true",
                   help="install host-resident membership filters that "
                        "suppress provably-empty sends on point lookups, "
                        "deletes and kNN fetches (answers unchanged)")
    p.add_argument("--route-fpr", type=float, default=None, metavar="FPR",
                   help="Bloom false-positive rate target for "
                        "--route-filter (default 0.01)")


def _add_adapt_args(p: argparse.ArgumentParser) -> None:
    """The online-controller flags (serve/faults/tune apply)."""
    p.add_argument("--adapt", action="store_true",
                   help="run the online tuning controller: adapts a "
                        "whitelisted knob subset at phase boundaries "
                        "between batches, never mid-round")
    p.add_argument("--adapt-window", type=int, default=32,
                   help="batches per controller phase")


def _add_common(p: argparse.ArgumentParser) -> None:
    for name, (typ, help_text) in _COMMON_PARAMS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                       help=help_text)


def _kwargs_from(args: argparse.Namespace) -> dict:
    kw = {}
    for name in _COMMON_PARAMS:
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    if getattr(args, "dataset", None) is not None:
        kw["dataset"] = args.dataset
    return kw


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


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: traced workload → timeline export."""
    from .eval import phase_breakdown_table, run_suite
    from .eval.experiments import _dataset
    from .eval.harness import PIMZdTreeAdapter
    from .obs import TraceCollector, load_summary, timeline_csv, write_trace

    n = args.n or 20_000
    batch = args.batch or 256
    n_modules = args.n_modules or 32
    seed = args.seed if args.seed is not None else 7
    ops = tuple(o.strip() for o in args.ops.split(",") if o.strip())
    for op in ops:
        root = op.split("-")[0]
        valid = (op == "insert" or
                 (op.endswith("-nn") and root.isdigit()) or
                 (op.startswith(("bc-", "bf-")) and op[3:].isdigit()))
        if not valid:
            print(f"error: unknown op {op!r} "
                  "(expected insert, bc-N, bf-N or K-nn)")
            return 2
    if args.ring < 1:
        print("error: --ring must be >= 1")
        return 2

    data = _dataset(args.dataset, n, seed)
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
        for path in (args.out, args.csv):
            if path is not None:
                print(f"wrote {path}")
    elif args.csv is None and args.out is None:
        print("\n" + timeline_csv(tracer))
    return 1 if problems else 0


def _parse_tenants(spec: str | None):
    """Parse ``--tenants name=weight,...`` into a dict (None when unset).

    Returns the sentinel ``2`` (the CLI usage-error exit code) on a
    malformed spec.
    """
    if spec is None:
        return None
    tenants = {}
    try:
        for part in spec.split(","):
            name, sep, w = part.strip().partition("=")
            if not sep or not name:
                raise ValueError
            tenants[name] = float(w)
            if tenants[name] <= 0:
                raise ValueError
    except ValueError:
        print(f"error: malformed --tenants {spec!r} "
              "(want name=weight,... with positive weights)")
        return 2
    return tenants


def _resolve_tune_config(args: argparse.Namespace):
    """Resolve the knob space from defaults, ``--profile`` and flags.

    The single ingestion path (:meth:`ConfigSpace.from_args`) shared by
    serve/faults/sweep/tune: conflicting sources, and refinement flags
    whose gate mechanism is off, raise rather than being silently
    dropped.  Returns a :class:`repro.tune.Resolution` or the sentinel
    ``2`` (the CLI usage-error exit code).
    """
    from .tune import KnobConflict, default_space, load_profile

    space = default_space()
    profile = None
    path = getattr(args, "profile", None)
    if path is not None:
        try:
            profile = load_profile(json.loads(Path(path).read_text()),
                                   space=space)
        except (OSError, ValueError, KeyError) as e:
            print(f"error: cannot load profile {path}: {e}")
            return 2
    try:
        return space.from_args(args, profile=profile)
    except (KnobConflict, ValueError) as e:
        print(f"error: {e}")
        return 2


def _report_tuned(res) -> None:
    """Print the non-default knobs of a resolved configuration."""
    tuned = res.non_default()
    if tuned:
        print("tuned knobs: " + ", ".join(
            f"{k}={v} [{res.sources[k]}]" for k, v in sorted(tuned.items())))


def _apply_tune_config(args: argparse.Namespace, adapter, config: dict):
    """Attach the config's serving mechanisms to ``adapter``.

    Returns the parts dict from
    :func:`repro.tune.apply_serving_config` (``{"policy", "rebalancer",
    "replication", "filters"}``) or the sentinel ``2`` on a usage error
    (a tree-level mechanism requested on a treeless baseline adapter).
    """
    from .tune import apply_serving_config

    try:
        parts = apply_serving_config(
            adapter, config,
            staleness_s=getattr(args, "staleness_ms", 1.0) * 1e-3)
    except ValueError as e:
        print(f"error: {e} (got --index {args.index!r})")
        return 2
    rep, flt = parts["replication"], parts["filters"]
    if rep is not None:
        print(f"replication: installed {rep['installed']} secondary "
              f"copies ({rep['words']:,.0f} words)")
    if flt is not None:
        print(f"route filters: fpr={flt['fpr']:g}, "
              f"{flt['keys_indexed']} keys indexed, "
              f"{flt['filter_kib']:.1f} KiB resident")
    return parts


def _make_controller(args: argparse.Namespace):
    """Build the online tuning controller for ``--adapt`` (or None).

    Returns the sentinel ``2`` on a bad ``--adapt-window``.
    """
    if not getattr(args, "adapt", False):
        return None
    from .tune import OnlineController

    try:
        return OnlineController(window=getattr(args, "adapt_window", 32))
    except ValueError as e:
        print(f"error: {e}")
        return 2


def _report_controller(controller) -> None:
    """Print the online controller's adaptation history."""
    if controller is None:
        return
    aud = controller.audit()
    print(f"\ncontroller: {aud['changes']} change(s) over "
          f"{aud['phases']} phase(s) "
          f"(whitelist: {', '.join(aud['whitelist'])})")
    for h in aud["history"]:
        print(f"  phase {h['phase']}: {h['knob']} {h['old']:g} -> "
              f"{h['new']:g} ({h['why']})")


def _report_rebalance(loop, rebalancer, adapter) -> None:
    """Print the rebalance summary of one serve/faults run."""
    if rebalancer is None:
        return
    print(f"\nrebalance: {loop.rebalance_steps} steps, "
          f"{rebalancer.migrations} chunk moves, "
          f"{rebalancer.words_moved:,.0f} words moved "
          f"({loop.rebalance_time_s * 1e3:.3f}ms of simulated time)")
    stats = adapter.system.stats
    reb = stats.phases.get("rebalance")
    if reb is not None:
        t = adapter.tree.cost_model.time(reb)
        total_t = adapter.tree.cost_model.time(stats.total)
        share = 100.0 * t.total_s / total_t.total_s if total_t.total_s else 0.0
        print(f"rebalance phase: {t.total_s * 1e3:.3f}ms simulated "
              f"({share:.2f}% of total sim time)")


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: open-loop run → latency stats."""
    import math

    from .eval.experiments import _dataset
    from .eval.harness import make_adapter
    from .obs import write_latency
    from .serve import (
        AdmissionQueue,
        ServeLoop,
        calibrate_capacity,
        make_requests,
    )
    from .tune import make_index_config
    from .workloads import bursty_arrivals, diurnal_arrivals, poisson_arrivals

    n = args.n or 20_000
    n_modules = args.n_modules or 32
    seed = args.seed if args.seed is not None else 7

    try:
        mix = {}
        for part in args.mix.split(","):
            kind, _, w = part.strip().partition("=")
            mix[kind] = float(w)
    except ValueError:
        print(f"error: malformed --mix {args.mix!r}")
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1")
        return 2
    res = _resolve_tune_config(args)
    if res == 2:
        return 2
    config = res.config
    controller = _make_controller(args)
    if controller == 2:
        return 2

    data = _dataset(args.dataset, n, seed)

    rate = args.rate
    if rate is None:
        # Express load relative to measured capacity at a well-amortised
        # reference batch; calibrate on a throwaway adapter so the serving
        # adapter starts cold.
        probe = make_adapter(args.index, data, n_modules=n_modules, seed=seed)
        capacity = calibrate_capacity(probe, data, k=args.k, seed=seed)
        rate = args.load * capacity
        print(f"calibrated capacity ≈ {capacity:.0f} req/s; offering "
              f"{args.load:.2f}x = {rate:.0f} req/s")

    tenants = _parse_tenants(args.tenants)
    if tenants == 2:
        return 2
    arrival_fn = {"poisson": poisson_arrivals, "bursty": bursty_arrivals,
                  "diurnal": diurnal_arrivals}[args.arrival]
    arrivals = arrival_fn(rate, args.requests, seed=seed + 1)
    deadline_s = (args.deadline_ms * 1e-3 if args.deadline_ms is not None
                  else math.inf)
    try:
        requests = make_requests(data, arrivals, mix=mix, k=args.k,
                                 deadline_s=deadline_s, seed=seed + 2,
                                 tenants=tenants)
    except ValueError as e:
        print(f"error: {e}")
        return 2

    idx_cfg = make_index_config(config, kind=args.index, n_points=len(data),
                                n_modules=n_modules)
    adapter = make_adapter(args.index, data, n_modules=n_modules, seed=seed,
                           config=idx_cfg)
    _report_tuned(res)
    parts = _apply_tune_config(args, adapter, config)
    if parts == 2:
        return 2
    rebalancer = parts["rebalancer"]
    loop = ServeLoop(adapter,
                     AdmissionQueue(args.queue_depth, overflow=args.overflow,
                                    tenants=tenants),
                     parts["policy"], rebalancer=rebalancer,
                     controller=controller)
    result = loop.run(requests)

    print(f"=== serve — {args.dataset}, {args.index}, n={n}, P={n_modules}, "
          f"{args.arrival} arrivals, {config['batch.policy']} batching ===")
    print(result.stats.table())
    _report_rebalance(loop, rebalancer, adapter)
    _report_controller(controller)
    if args.out is not None or args.csv is not None:
        tune_doc = None
        if res.non_default() or (controller is not None and controller.active):
            tune_doc = {"knobs": res.config, "sources": res.sources}
        write_latency(result.stats, json_path=args.out, csv_path=args.csv,
                      batches=result.batches, config=tune_doc)
        for path in (args.out, args.csv):
            if path is not None:
                print(f"wrote {path}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: sharded paper-scale serve run."""
    import math

    from .eval.experiments import _dataset
    from .eval.harness import make_adapter
    from .serve import calibrate_capacity, run_sweep

    n = args.n or 20_000
    n_modules = args.n_modules or 2048
    seed = args.seed if args.seed is not None else 7

    try:
        mix = {}
        for part in args.mix.split(","):
            kind, _, w = part.strip().partition("=")
            mix[kind] = float(w)
    except ValueError:
        print(f"error: malformed --mix {args.mix!r}")
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1")
        return 2
    res = _resolve_tune_config(args)
    if res == 2:
        return 2
    config = res.config
    tenants = _parse_tenants(args.tenants)
    if tenants == 2:
        return 2
    _report_tuned(res)

    rate = args.rate
    if rate is None:
        # Per-shard rate, calibrated once on a throwaway adapter (all
        # shards serve the same index, so one probe speaks for all).
        data = _dataset(args.dataset, n, seed)
        probe = make_adapter(args.index, data, n_modules=n_modules, seed=seed)
        capacity = calibrate_capacity(probe, data, k=args.k, seed=seed)
        rate = args.load * capacity
        print(f"calibrated capacity ≈ {capacity:.0f} req/s; offering "
              f"{args.load:.2f}x = {rate:.0f} req/s per shard")

    result = run_sweep(
        dataset=args.dataset, n=n, n_modules=n_modules, index=args.index,
        total_requests=args.requests, rate=rate, procs=args.procs, seed=seed,
        mix=mix, k=args.k,
        deadline_s=(args.deadline_ms * 1e-3 if args.deadline_ms is not None
                    else math.inf),
        queue_depth=args.queue_depth, overflow=args.overflow,
        policy=config["batch.policy"], fixed_batch=int(config["batch.fixed"]),
        arrival=args.arrival, tenants=tenants,
        tune_config=config if res.non_default() else None,
    )

    print(f"=== sweep — {args.dataset}, {args.index}, n={n}, P={n_modules}, "
          f"{args.arrival} arrivals, {config['batch.policy']} batching ===")
    print(result.table())
    if args.out is not None:
        args.out.write_text(json.dumps(result.to_dict(), indent=2))
        print(f"wrote {args.out}")
    if args.csv is not None:
        rows = [("n_shards", result.n_shards), ("n_offered", result.n_offered),
                ("n_done", result.n_done), ("n_failed", result.n_failed),
                ("n_timed_out", result.n_timed_out),
                ("n_rejected", result.n_rejected), ("n_shed", result.n_shed),
                ("aggregate_throughput", result.aggregate_throughput),
                ("aggregate_goodput", result.aggregate_goodput),
                ("wall_s", result.wall_s)]
        for group, d in (("latency", result.latency), ("queue", result.queue),
                         ("service", result.service)):
            rows.extend((f"{group}_{k}", v) for k, v in d.items())
        args.csv.write_text(
            "metric,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n")
        print(f"wrote {args.csv}")
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand: serving under a seeded fault plan."""
    import math

    from .eval.experiments import _dataset
    from .eval.harness import make_adapter
    from .faults import FaultPlan
    from .obs import TraceCollector, write_latency
    from .serve import (
        AdmissionQueue,
        ServeLoop,
        calibrate_capacity,
        make_requests,
    )
    from .tune import make_index_config
    from .workloads import bursty_arrivals, diurnal_arrivals, poisson_arrivals

    n = args.n or 20_000
    n_modules = args.n_modules or 32
    seed = args.seed if args.seed is not None else 7
    fault_seed = args.fault_seed if args.fault_seed is not None else seed

    try:
        mix = {}
        for part in args.mix.split(","):
            kind, _, w = part.strip().partition("=")
            mix[kind] = float(w)
        crash_at = {}
        for spec in args.crash or []:
            mid, sep, rnd = spec.partition("@")
            if not sep:
                raise ValueError(f"malformed --crash {spec!r} (want MID@ROUND)")
            crash_at[int(mid)] = int(rnd)
        slow = {}
        for spec in args.slow or []:
            mid, sep, factor = spec.partition(":")
            if not sep:
                raise ValueError(f"malformed --slow {spec!r} (want MID:FACTOR)")
            slow[int(mid)] = float(factor)
        plan = FaultPlan(
            seed=fault_seed, crash_at=crash_at, crash_rate=args.crash_rate,
            max_crashes=args.max_crashes, drop_rate=args.drop_rate,
            slow_factors=slow, storm_rate=args.storm_rate,
            storm_factor=args.storm_factor, storm_rounds=args.storm_rounds,
        )
    except ValueError as e:
        print(f"error: {e}")
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1")
        return 2
    if any(mid >= n_modules or mid < 0 for mid in (*crash_at, *slow)):
        print(f"error: module ids must be in [0, {n_modules})")
        return 2
    res = _resolve_tune_config(args)
    if res == 2:
        return 2
    config = res.config
    controller = _make_controller(args)
    if controller == 2:
        return 2

    data = _dataset(args.dataset, n, seed)

    rate = args.rate
    if rate is None:
        # Calibrate against a fault-free throwaway adapter: capacity means
        # the healthy machine's capacity, so degradation is visible.
        probe = make_adapter(args.index, data, n_modules=n_modules, seed=seed)
        capacity = calibrate_capacity(probe, data, k=args.k, seed=seed)
        rate = args.load * capacity
        print(f"calibrated fault-free capacity ≈ {capacity:.0f} req/s; "
              f"offering {args.load:.2f}x = {rate:.0f} req/s")

    tenants = _parse_tenants(args.tenants)
    if tenants == 2:
        return 2
    arrival_fn = {"poisson": poisson_arrivals, "bursty": bursty_arrivals,
                  "diurnal": diurnal_arrivals}[args.arrival]
    arrivals = arrival_fn(rate, args.requests, seed=seed + 1)
    deadline_s = (args.deadline_ms * 1e-3 if args.deadline_ms is not None
                  else math.inf)
    try:
        requests = make_requests(data, arrivals, mix=mix, k=args.k,
                                 deadline_s=deadline_s, seed=seed + 2,
                                 tenants=tenants)
    except ValueError as e:
        print(f"error: {e}")
        return 2

    tracer = TraceCollector()
    idx_cfg = make_index_config(config, kind=args.index, n_points=len(data),
                                n_modules=n_modules)
    adapter = make_adapter(args.index, data, n_modules=n_modules, seed=seed,
                           fault_plan=plan, tracer=tracer, config=idx_cfg)
    _report_tuned(res)
    parts = _apply_tune_config(args, adapter, config)
    if parts == 2:
        return 2
    rebalancer = parts["rebalancer"]
    loop = ServeLoop(
        adapter, AdmissionQueue(args.queue_depth, overflow=args.overflow,
                                tenants=tenants),
        parts["policy"], max_retries=args.retries,
        backoff_s=args.backoff_ms * 1e-3,
        timeout_s=(args.timeout_ms * 1e-3 if args.timeout_ms is not None
                   else None),
        degraded_mode=not args.no_degraded, failover=not args.no_failover,
        rebalancer=rebalancer, controller=controller,
    )
    result = loop.run(requests)

    print(f"=== faults — {args.dataset}, {args.index}, n={n}, P={n_modules}, "
          f"{args.arrival} arrivals, {config['batch.policy']} batching ===")
    print(result.stats.table())
    _report_rebalance(loop, rebalancer, adapter)
    _report_controller(controller)

    summary = plan.summary()
    dead = sorted(adapter.system.dead_modules)
    events = (", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
              if summary else "none")
    print(f"\ninjected events: {events}")
    print(f"dead modules: {dead if dead else 'none'} "
          f"({adapter.system.n_live}/{adapter.system.n_modules} live)")
    retried = sum(1 for b in result.batches if b.retries)
    print(f"batches: {len(result.batches)} total, {retried} retried")

    stats = adapter.system.stats
    rec = stats.phases.get("recovery")
    if rec is not None:
        t = adapter.tree.cost_model.time(rec)
        total_t = adapter.tree.cost_model.time(stats.total)
        share = 100.0 * t.total_s / total_t.total_s if total_t.total_s else 0.0
        print(f"recovery phase: {t.total_s * 1e3:.3f}ms simulated "
              f"({share:.2f}% of total sim time)")

    problems = tracer.timeline.reconcile(stats)
    print("trace reconciles exactly" if not problems
          else f"RECONCILIATION FAILED: {problems}")

    if args.out is not None or args.csv is not None:
        tune_doc = None
        if res.non_default() or (controller is not None and controller.active):
            tune_doc = {"knobs": res.config, "sources": res.sources}
        write_latency(result.stats, json_path=args.out, csv_path=args.csv,
                      batches=result.batches, faults=plan.events,
                      config=tune_doc)
        for path in (args.out, args.csv):
            if path is not None:
                print(f"wrote {path}")
    return 1 if problems else 0


def _run_tune(args: argparse.Namespace) -> int:
    """The ``tune`` subcommand: offline search / tuned serve / report."""
    if args.action == "apply":
        if args.profile is None:
            print("error: tune apply requires --profile")
            return 2
        return _run_serve(args)

    if args.action == "report":
        if args.profile is None:
            print("error: tune report requires --profile")
            return 2
        from .tune import default_space, load_profile

        try:
            doc = json.loads(args.profile.read_text())
            load_profile(doc, space=default_space())
        except (OSError, ValueError, KeyError) as e:
            print(f"error: cannot load profile {args.profile}: {e}")
            return 2
        params = doc.get("params", {})
        print(f"=== tuned profile — workload {doc['workload']}, "
              f"seed {doc['seed']} ===")
        print(f"search: {doc.get('evaluated', '?')} configs evaluated, "
              f"{len(doc.get('pareto_front', []))} on the Pareto front "
              f"(n={params.get('n')}, P={params.get('n_modules')}, "
              f"requests={params.get('requests')})")
        tuned = doc.get("tuned", {})
        print("tuned knobs: " + (", ".join(
            f"{k}={v}" for k, v in sorted(tuned.items())) or "(defaults)"))
        base, best = doc.get("baseline", {}), doc.get("objectives", {})
        imp = doc.get("improvement", {})

        def x(v):
            return f"{v:.2f}x" if isinstance(v, (int, float)) else "n/a"

        print(f"goodput: {base.get('goodput', 0.0):,.1f} -> "
              f"{best.get('goodput', 0.0):,.1f} req/s "
              f"({x(imp.get('goodput'))})")
        print(f"p99:     {base.get('p99_s', 0.0) * 1e3:.3f}ms -> "
              f"{best.get('p99_s', 0.0) * 1e3:.3f}ms ({x(imp.get('p99'))})")
        print(f"comm:    {base.get('comm_words', 0.0):,.0f} -> "
              f"{best.get('comm_words', 0.0):,.0f} words "
              f"({x(imp.get('comm_words'))})")
        return 0

    # ------------------------------------------------------------ search
    from .tune import profile_json, search

    res = _resolve_tune_config(args)
    if res == 2:
        return 2
    if res.non_default():
        print("error: tune search explores from the shipped defaults; "
              "knob flags and --profile belong to 'tune apply' "
              f"(got: {', '.join(sorted(res.non_default()))})")
        return 2
    knobs = None
    if args.knobs:
        knobs = tuple(k.strip() for k in args.knobs.split(",") if k.strip())
    seed = args.seed if args.seed is not None else 7
    try:
        result = search(
            args.workload, seed=seed, n=args.n or 4000,
            n_modules=args.n_modules or 8, requests=args.requests,
            rate=args.rate, load=args.load, k=args.k,
            deadline_ms=args.deadline_ms, generations=args.generations,
            beam=args.beam, procs=args.procs, knobs=knobs,
            queue_depth=args.queue_depth)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}")
        return 2
    print(f"=== tune search — {args.workload}, seed {seed}, "
          f"generations={args.generations}, beam={args.beam} ===")
    print(result.table())
    failed = sum(1 for nd in result.nodes.values() if nd.error)
    if failed:
        print(f"note: {failed} candidate evaluation(s) failed and were "
              "pruned")
    if args.out is not None:
        args.out.write_text(profile_json(result))
        print(f"wrote {args.out}")
    return 0


def _run_balance(args: argparse.Namespace) -> int:
    """The ``balance`` subcommand: rebalance-off vs rebalance-on serving."""
    from .balance import BalanceConfig, OnlineRebalancer
    from .eval.experiments import _dataset
    from .eval.harness import PIMZdTreeAdapter
    from .eval.skewbench import (
        boxes_under_metas,
        hottest_colocated_metas,
        queries_under_metas,
        steady_state_throughput,
        throughput_timeline,
    )
    from .obs import TraceCollector
    from .workloads import bin_points, gini_coefficient

    n = args.n or 16_000
    batch = args.batch or 64
    n_modules = args.n_modules or 16
    seed = args.seed if args.seed is not None else 8
    if args.steps < 2:
        print("error: --steps must be >= 2")
        return 2

    data = _dataset(args.dataset, n, seed)
    gini = gini_coefficient(bin_points(data))
    cfg = BalanceConfig(
        ratio_threshold=args.ratio_threshold,
        gini_threshold=args.gini_threshold,
        budget_words=args.budget_words,
        max_moves=args.max_moves,
        seed=seed,
    )

    def build():
        tracer = TraceCollector()
        adapter = PIMZdTreeAdapter(data, n_modules=n_modules, seed=seed,
                                   tracer=tracer)
        return adapter, tracer

    # Construction is deterministic, so both runs see the same layout and
    # the same adversarial query stream.
    adapter_off, tracer_off = build()
    hot_mid, hot_metas = hottest_colocated_metas(adapter_off.tree)
    if args.kind == "bc":
        queries = boxes_under_metas(adapter_off.tree, hot_metas,
                                    max(batch, 256), seed=seed + 1)
    else:
        queries = queries_under_metas(adapter_off.tree, hot_metas,
                                      max(batch, 1024), seed=seed + 1)
    print(f"=== balance — {args.dataset} (gini={gini:.3f}), n={n}, "
          f"P={n_modules}, kind={args.kind}, batch={batch}, "
          f"steps={args.steps} ===")
    print(f"attacking module {hot_mid}: {len(hot_metas)} colocated chunks, "
          f"{sum(m.root.count for m in hot_metas):,} points under them")

    rows_off = throughput_timeline(adapter_off, queries, steps=args.steps,
                                   batch=batch, k=args.k, kind=args.kind)
    adapter_on, tracer_on = build()
    rebalancer = OnlineRebalancer(adapter_on.tree, cfg)
    rows_on = throughput_timeline(adapter_on, queries, steps=args.steps,
                                  batch=batch, k=args.k, kind=args.kind,
                                  rebalancer=rebalancer)

    off = steady_state_throughput(rows_off)
    on = steady_state_throughput(rows_on)
    speedup = on / off if off > 0 else float("inf")
    print(f"\n{'step':>4} {'off req/s':>12} {'on req/s':>12} {'moves':>6}")
    for a, b in zip(rows_off, rows_on):
        print(f"{a['step']:>4} {a['throughput']:>12.0f} "
              f"{b['throughput']:>12.0f} {b['migrations']:>6}")
    print(f"\nsteady-state throughput (trailing half): "
          f"off {off:,.0f} req/s, on {on:,.0f} req/s — {speedup:.2f}x")
    print(f"migrations: {rebalancer.migrations} chunk moves, "
          f"{rebalancer.words_moved:,.0f} words, "
          f"{len(rebalancer.history)} invocations")

    stats = adapter_on.system.stats
    reb = stats.phases.get("rebalance")
    if reb is not None:
        t = adapter_on.tree.cost_model.time(reb)
        total_t = adapter_on.tree.cost_model.time(stats.total)
        share = 100.0 * t.total_s / total_t.total_s if total_t.total_s else 0.0
        print(f"rebalance phase: {t.total_s * 1e3:.3f}ms simulated "
              f"({share:.2f}% of total sim time)")

    problems = (tracer_off.timeline.reconcile(adapter_off.system.stats)
                + tracer_on.timeline.reconcile(adapter_on.system.stats))
    print("traces reconcile exactly" if not problems
          else f"RECONCILIATION FAILED: {problems}")

    if args.out is not None:
        from .obs import sanitize_json

        doc = sanitize_json({
            "format": "repro.obs/balance-1",
            "dataset": args.dataset, "gini": gini, "n": n,
            "n_modules": n_modules, "kind": args.kind,
            "batch": batch, "k": args.k,
            "hot_module": int(hot_mid),
            "hot_chunks": len(hot_metas),
            "timeline_off": rows_off, "timeline_on": rows_on,
            "steady_state": {"off": off, "on": on, "speedup": speedup},
            "migrations": rebalancer.history,
            "reconciliation": {"exact": not problems, "problems": problems},
        })
        args.out.write_text(json.dumps(doc, indent=2, allow_nan=False))
        print(f"wrote {args.out}")
    return 1 if problems else 0


def _store_backend(args: argparse.Namespace, path: Path):
    from .store import open_backend

    return open_backend(args.backend, path)


def _run_store(args: argparse.Namespace) -> int:
    """The ``store`` subcommand: durable tier demo / inspect / recover."""
    from .store import SnapshotStore, StoreError, committed_seqs, scan_wal

    if args.action in ("inspect", "recover"):
        if args.path is None:
            print(f"error: --path is required for {args.action}")
            return 2
        try:
            backend = _store_backend(args, args.path)
        except (OSError, StoreError) as e:
            print(f"error: cannot open store at {args.path}: {e}")
            return 2

    if args.action == "inspect":
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

    if args.action == "recover":
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
        problems = tracer.timeline.reconcile(stats)
        print("trace reconciles exactly" if not problems
              else f"RECONCILIATION FAILED: {problems}")
        return 1 if problems else 0

    # ------------------------------------------------------------- demo
    import math
    import tempfile

    from .eval.experiments import _dataset
    from .eval.harness import make_adapter
    from .faults import FaultPlan
    from .obs import TraceCollector, write_latency
    from .serve import (
        AdaptiveBatchPolicy,
        AdmissionQueue,
        ServeLoop,
        calibrate_capacity,
        make_requests,
    )
    from .store import DurableStore
    from .workloads import poisson_arrivals

    n = args.n or 20_000
    n_modules = args.n_modules or 32
    seed = args.seed if args.seed is not None else 7
    try:
        mix = {}
        for part in args.mix.split(","):
            kind, _, w = part.strip().partition("=")
            mix[kind] = float(w)
    except ValueError:
        print(f"error: malformed --mix {args.mix!r}")
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1")
        return 2

    path = args.path
    if path is None:
        tmp = Path(tempfile.mkdtemp(prefix="repro-store-"))
        path = tmp / "store.db" if args.backend == "sqlite" else tmp
    backend = _store_backend(args, path)

    data = _dataset(args.dataset, n, seed)
    probe = make_adapter("pim", data, n_modules=n_modules, seed=seed)
    capacity = calibrate_capacity(probe, data, k=args.k, seed=seed)
    rate = args.load * capacity
    print(f"calibrated capacity ≈ {capacity:.0f} req/s; offering "
          f"{args.load:.2f}x = {rate:.0f} req/s")
    arrivals = poisson_arrivals(rate, args.requests, seed=seed + 1)
    try:
        requests = make_requests(data, arrivals, mix=mix, k=args.k,
                                 deadline_s=math.inf, seed=seed + 2)
    except ValueError as e:
        print(f"error: {e}")
        return 2

    plan = (FaultPlan(machine_kill_at=args.kill_round)
            if args.kill_round is not None else None)
    tracer = TraceCollector()
    adapter = make_adapter("pim", data, n_modules=n_modules, seed=seed,
                           fault_plan=plan, tracer=tracer)
    store = DurableStore(backend, budget_fraction=args.budget_fraction)
    store.attach(adapter.tree)
    loop = ServeLoop(adapter, AdmissionQueue(1024), AdaptiveBatchPolicy(),
                     store=store, max_restarts=args.max_restarts)
    result = loop.run(requests)

    print(f"=== store demo — {args.dataset}, n={n}, P={n_modules}, "
          f"{args.backend} backend at {path} ===")
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

    stats = adapter.system.stats
    rec = stats.phases.get("recovery")
    if rec is not None:
        t = adapter.tree.cost_model.time(rec)
        total_t = adapter.tree.cost_model.time(stats.total)
        share = 100.0 * t.total_s / total_t.total_s if total_t.total_s else 0.0
        print(f"recovery phase: {t.total_s * 1e3:.3f}ms simulated "
              f"({share:.2f}% of the post-restart system's sim time)")

    # The serve tracer watches the pre-crash system, whose stats die with
    # the kill — so after a restart, reconcile a *fresh* standalone
    # recovery instead (every charge on that system is recovery, traced
    # from birth).  Crash-free runs reconcile the serve trace directly.
    if loop.restarts:
        from .store import recover

        tracer2 = TraceCollector()
        res = recover(backend, tracer=tracer2,
                      cost_model=adapter.tree.cost_model)
        problems = tracer2.timeline.reconcile(res.system.stats)
        print("recovery trace reconciles exactly" if not problems
              else f"RECOVERY RECONCILIATION FAILED: {problems}")
    else:
        problems = tracer.timeline.reconcile(stats)
        print("trace reconciles exactly" if not problems
              else f"RECONCILIATION FAILED: {problems}")

    if args.out is not None:
        write_latency(result.stats, json_path=args.out,
                      batches=result.batches,
                      faults=plan.events if plan is not None else None,
                      store_events=store.events, restarts=loop.restarts)
        print(f"wrote {args.out}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print("available experiments:")
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"  {name:8s} {doc[0] if doc else ''}")
        return 0

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "tune":
        return _run_tune(args)

    if args.command == "balance":
        return _run_balance(args)

    if args.command == "store":
        return _run_store(args)

    if args.command == "all":
        kwargs = _kwargs_from(args)
        results = []
        for name in ALL_EXPERIMENTS:
            kw = dict(kwargs)
            results.append(_run_one(name, kw))
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            report = args.out / "report.md"
            with report.open("w") as f:
                f.write("# PIM-zd-tree reproduction report\n\n")
                for r in results:
                    f.write(f"## {r.name} ({r.paper_ref})\n\n```\n{r.table()}\n```\n")
                    if r.notes:
                        f.write(f"\n{r.notes}\n")
                    f.write("\n")
            blob = {
                r.name: {"headers": r.headers, "rows": r.rows, "notes": r.notes}
                for r in results
            }
            (args.out / "results.json").write_text(json.dumps(blob, indent=2))
            print(f"wrote {report} and {args.out / 'results.json'}")
        return 0

    _run_one(args.command, _kwargs_from(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
