"""Programmatic definitions of every §7 experiment.

Each ``run_*`` function reproduces one table or figure of the paper and
returns a structured :class:`ExperimentResult` (rows + column names +
paper reference), so the experiments can be driven from scripts, notebooks
or the CLI (``python -m repro.cli``) as well as from the pytest benchmark
suite.  Parameters default to the scaled-down sizes of DESIGN.md and can
be raised toward paper scale on bigger machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core import throughput_optimized
from ..serve.spec import load_dataset
from ..workloads import (
    cosmos_like_points,
    osm_like_points,
    uniform_points,
    varden_points,
    zipf_mix_queries,
)
from .harness import (
    FIG5_OPS,
    PIMZdTreeAdapter,
    calibrate_box_side,
    make_adapter,
    run_op,
    run_suite,
)
from .metrics import OpMeasurement, percentile
from .report import bar_chart, format_table

__all__ = [
    "ExperimentResult",
    "DATASETS",
    "run_fig5",
    "run_latency",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table2",
    "run_table3",
    "ALL_EXPERIMENTS",
    "write_report",
]

DATASETS: dict[str, Callable] = {
    "uniform": uniform_points,
    "cosmos": cosmos_like_points,
    "osm": osm_like_points,
    "varden": varden_points,
}


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    name: str
    paper_ref: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    raw: dict = field(default_factory=dict)

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def __str__(self) -> str:  # pragma: no cover - convenience
        out = f"=== {self.name} ({self.paper_ref}) ===\n{self.table()}"
        if self.notes:
            out += f"\n{self.notes}"
        return out


# ======================================================================
# Fig. 5 — the end-to-end comparison
# ======================================================================
def run_fig5(
    dataset: str = "uniform",
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = FIG5_OPS,
    indexes: Sequence[str] = ("pim", "pkd", "zd"),
) -> ExperimentResult:
    """Throughput + per-element traffic for all operations and indexes."""
    data = load_dataset(dataset, n, seed)
    gen = DATASETS[dataset]
    counter = {"i": 0}

    def fresh(m: int) -> np.ndarray:
        counter["i"] += 1
        return gen(m, 3, seed=seed * 1000 + counter["i"])

    targets = sorted({int(o.split("-")[1]) for o in ops if o.startswith(("bc-", "bf-"))})
    sides = {t: calibrate_box_side(data, t, seed=seed) for t in targets}

    results: dict[str, list[OpMeasurement]] = {}
    for kind in indexes:
        adapter = make_adapter(kind, data, n_modules=n_modules)
        results[adapter.name] = run_suite(
            adapter, data=data, ops=ops, batch=batch, seed=seed,
            fresh_points=fresh, box_sides=sides,
        )

    headers = ["op"]
    names = list(results)
    for name in names:
        headers += [f"{name} MOp/s", f"{name} B/elem"]
    rows = []
    for i, op in enumerate(ops):
        row = [op]
        for name in names:
            m = results[name][i]
            row += [round(m.throughput / 1e6, 4), round(m.traffic_per_element, 1)]
        rows.append(row)
    # A terminal rendition of the Fig. 5 bars for one representative op.
    bar_op = ops[-1]
    idx = list(ops).index(bar_op)
    chart = bar_chart(
        names,
        [results[nm][idx].throughput / 1e6 for nm in names],
        unit=" MOp/s",
        log=True,
    )
    return ExperimentResult(
        name=f"fig5-{dataset}",
        paper_ref="Fig. 5",
        headers=headers,
        rows=rows,
        notes=f"throughput, {bar_op} (log-scale bars):\n{chart}",
        raw={k: [m.row() for m in v] for k, v in results.items()},
    )


# ======================================================================
# §7.2 latency
# ======================================================================
def run_latency(
    dataset: str = "osm",
    *,
    n: int = 40_000,
    batch: int = 96,
    n_batches: int = 24,
    n_modules: int = 64,
    seed: int = 7,
    k: int = 1,
) -> ExperimentResult:
    """P50/P99 per-batch kNN latency for the three indexes."""
    data = load_dataset(dataset, n, seed)
    rows = []
    for kind in ("pim", "pkd", "zd"):
        adapter = make_adapter(kind, data, n_modules=n_modules)
        rng = np.random.default_rng(seed + 1)
        lats = []
        for _ in range(n_batches):
            q = data[rng.integers(0, len(data), batch)]
            lats.append(adapter.measure(lambda: adapter.knn(q, k)).sim_time_s)
        rows.append(
            [adapter.name, round(percentile(lats, 50) * 1e3, 3),
             round(percentile(lats, 99) * 1e3, 3)]
        )
    return ExperimentResult(
        name=f"latency-{dataset}",
        paper_ref="§7.2 latency",
        headers=["index", "P50 ms", "P99 ms"],
        rows=rows,
        notes="paper (absolute, full scale): pim 32.5 ms, pkd 44.9 ms, zd 210 ms",
    )


# ======================================================================
# Fig. 6 — runtime breakdown
# ======================================================================
def run_fig6(
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = ("insert", "bc-1", "bc-100", "bf-100", "100-nn"),
) -> ExperimentResult:
    data = load_dataset("uniform", n, seed)
    adapter = make_adapter("pim", data, n_modules=n_modules)
    sides = {t: calibrate_box_side(data, t, seed=seed) for t in (1, 100)}
    counter = {"i": 0}

    def fresh(m: int) -> np.ndarray:
        counter["i"] += 1
        return uniform_points(m, 3, seed=seed * 31 + counter["i"])

    rows = []
    for op in ops:
        m = run_op(
            adapter, op, data=data, batch=batch, seed=seed,
            box_sides=sides, fresh_points=fresh,
        )
        f = m.breakdown_fractions()
        rows.append([op, round(f["cpu"], 3), round(f["pim"], 3), round(f["comm"], 3)])
    return ExperimentResult(
        name="fig6",
        paper_ref="Fig. 6",
        headers=["op", "cpu", "pim", "comm"],
        rows=rows,
    )


# ======================================================================
# Fig. 7 — batch-size sensitivity
# ======================================================================
def run_fig7(
    *,
    n: int = 40_000,
    batch_sizes: Sequence[int] = (128, 256, 512, 1024, 2048, 4096),
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    data = load_dataset("uniform", n, seed)
    rows = []
    for batch in batch_sizes:
        adapter = make_adapter("pim", data, n_modules=n_modules)
        fresh = uniform_points(batch, 3, seed=seed * 31 + batch)
        m = adapter.measure(lambda: adapter.insert(fresh))
        rows.append(
            [batch, round(m.throughput / 1e6, 4), round(m.traffic_bytes / batch, 1)]
        )
    return ExperimentResult(
        name="fig7",
        paper_ref="Fig. 7",
        headers=["batch", "MOp/s", "traffic B/op"],
        rows=rows,
    )


# ======================================================================
# Fig. 8 — dataset-size sensitivity
# ======================================================================
def run_fig8(
    *,
    sizes: Sequence[int] = (10_000, 20_000, 40_000, 80_000),
    batch: int = 384,
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for kind in ("pim", "pkd", "zd"):
        row = [kind]
        for n in sizes:
            data = uniform_points(n, 3, seed=seed)
            adapter = make_adapter(kind, data, n_modules=n_modules)
            rng = np.random.default_rng(seed + n)
            q = data[rng.integers(0, n, batch)]
            m = adapter.measure(lambda: adapter.knn(q, 1))
            row.append(round(m.throughput / 1e6, 4))
        rows.append(row)
    return ExperimentResult(
        name="fig8",
        paper_ref="Fig. 8",
        headers=["index"] + [f"n={n}" for n in sizes],
        rows=rows,
        notes="paper: PIM stable; Pkd degrades 1.4x, zd 1.6x over a 15x sweep",
    )


# ======================================================================
# Fig. 9 — skew resistance
# ======================================================================
def run_fig9(
    *,
    n: int = 40_000,
    batch: int = 768,
    fractions: Sequence[float] = (0.0, 0.002, 0.02, 0.2, 1.0),
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    data = load_dataset("uniform", n, seed)
    rows = []
    for variant in ("pim", "pim-skew"):
        adapter = make_adapter(variant, data, n_modules=n_modules)
        row = [adapter.variant]
        for i, frac in enumerate(fractions):
            q = zipf_mix_queries(data, batch, frac, seed=seed * 100 + i)
            m = adapter.measure(lambda: adapter.knn(q, 1))
            row.append(round(m.throughput / 1e6, 4))
        rows.append(row)
    return ExperimentResult(
        name="fig9",
        paper_ref="Fig. 9",
        headers=["variant"] + [f"varden={f:g}" for f in fractions],
        rows=rows,
        notes="paper: skew-resistant fluctuates <= 4.1%; throughput-optimized "
              "degrades 10.66x at 2% Varden",
    )


# ======================================================================
# Table 2 — configuration properties
# ======================================================================
def run_table2(
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    data = load_dataset("uniform", n, seed)
    rng = np.random.default_rng(seed)
    rows = []
    for variant in ("pim", "pim-skew"):
        adapter = make_adapter(variant, data, n_modules=n_modules)
        space = adapter.tree.space_words()["total"]
        point_words = len(data) * (adapter.tree.dims + 1)
        q = data[rng.integers(0, len(data), batch)]
        snap = adapter.system.snapshot()
        adapter.tree.search(q)
        d = adapter.system.stats.diff(snap).total
        rows.append(
            [
                adapter.variant,
                round(space / point_words, 2),
                round(d.comm_words / batch, 1),
                d.rounds,
            ]
        )
    return ExperimentResult(
        name="table2",
        paper_ref="Table 2",
        headers=["config", "space/points", "search words/op", "search rounds"],
        rows=rows,
    )


# ======================================================================
# Table 3 — implementation-technique ablations
# ======================================================================
def run_table3(
    *,
    n: int = 40_000,
    batch: int = 256,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = ("insert", "bc-10", "bf-10", "10-nn"),
) -> ExperimentResult:
    data = load_dataset("uniform", n, seed)
    sides = {10: calibrate_box_side(data, 10, seed=seed)}
    counter = {"i": 0}

    def fresh(m: int) -> np.ndarray:
        counter["i"] += 1
        return uniform_points(m, 3, seed=seed * 77 + counter["i"])

    def suite(**cfg_over) -> dict[str, float]:
        cfg = throughput_optimized(len(data), n_modules, **cfg_over)
        adapter = PIMZdTreeAdapter(data, n_modules=n_modules, config=cfg)
        out = {}
        for op in ops:
            m = run_op(
                adapter, op, data=data, batch=batch, seed=seed,
                box_sides=sides, fresh_points=fresh,
            )
            out[op] = m.sim_time_s / max(1, m.elements)
        return out

    base = suite()
    ablations = {
        "lazy-counter": {"lazy_counters": False},
        "fast-zorder": {"fast_zorder": False},
        "fast-l2": {"fast_l2": False},
        "direct-api": {"direct_api": False},
    }
    rows = []
    for name, over in ablations.items():
        abl = suite(**over)
        rows.append([name] + [round(abl[op] / base[op], 3) for op in ops])
    return ExperimentResult(
        name="table3",
        paper_ref="Table 3",
        headers=["technique removed"] + list(ops),
        rows=rows,
        notes="paper: lazy 1.49x insert; fast z-order 1.99/1.58/1.31/1.67x; "
              "fast l2 1.58x knn; direct API 1.06-1.09x",
    )


ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig5": run_fig5,
    "latency": run_latency,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "table2": run_table2,
    "table3": run_table3,
}


def write_report(results: Sequence[ExperimentResult], out) -> tuple:
    """Write ``report.md`` (every table) and ``results.json`` (the raw
    rows) under directory ``out``; returns both paths."""
    import json
    from pathlib import Path

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    report, raw = out / "report.md", out / "results.json"
    with report.open("w") as f:
        f.write("# PIM-zd-tree reproduction report\n\n")
        for r in results:
            f.write(f"## {r.name} ({r.paper_ref})\n\n```\n{r.table()}\n```\n")
            if r.notes:
                f.write(f"\n{r.notes}\n")
            f.write("\n")
    raw.write_text(json.dumps(
        {r.name: {"headers": r.headers, "rows": r.rows, "notes": r.notes}
         for r in results}, indent=2))
    return report, raw
