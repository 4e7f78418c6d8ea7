"""Byte-level parity of the ``repro.cli`` subcommands against golden runs.

Each scenario runs one or more CLI invocations in-process through
``repro.cli.main`` at tiny sizes, inside a fresh temp directory, and
compares three things per step with the checked-in goldens under
``tests/golden/cli_parity/<scenario>/<step>/``:

* the exit code (``exit``);
* everything printed to stdout (``stdout``);
* every file the step wrote or changed under the temp directory
  (``files/<relative path>``), byte for byte.

Only two things are masked before comparing: the temp directory's path
(``<TMP>``) and the wall-clock readings (the sweep's ``wall_s`` fields
and ``wall clock`` line, the tune search's ``(…s wall)``).  Everything
else — simulated latencies, knob blocks, store bytes, error messages —
must match exactly, so a refactor of the CLI's wiring cannot drift its
output unnoticed.  ``trace`` runs with ``--no-events``: the raw event
ring records the build round's sends in the iteration order of the
tree's meta-node set, which follows object addresses and so changes
with whatever ran earlier in the process; the aggregated timeline does
not.

Regenerating after an *intentional* output change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_parity.py

(then review the diff of ``tests/golden/cli_parity`` and commit it).
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "cli_parity"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))

SMALL = ["--n", "1500", "--n-modules", "8"]

# scenario -> ordered (step name, argv) pairs; "{tmp}" is the temp dir.
SCENARIOS: dict[str, list[tuple[str, list[str]]]] = {
    "serve": [("serve", [
        "serve", *SMALL, "--requests", "120", "--load", "1.2",
        "--deadline-ms", "50", "--queue-depth", "64",
        "--out", "{tmp}/lat.json", "--csv", "{tmp}/lat.csv"])],
    "serve_tree_knobs": [("serve", [
        "serve", *SMALL, "--requests", "120", "--rate", "20000",
        "--mix", "knn=0.5,insert=0.3,bc=0.2", "--route-filter",
        "--replicate", "2", "--write-policy", "primary-async",
        "--staleness-ms", "5", "--tenants", "gold=3,bronze=1",
        "--out", "{tmp}/lat.json", "--csv", "{tmp}/lat.csv"])],
    "faults": [("faults", [
        "faults", *SMALL, "--requests", "120", "--rate", "30000",
        "--crash", "3@25", "--drop-rate", "0.02", "--timeout-ms", "5",
        "--out", "{tmp}/faults.json", "--csv", "{tmp}/faults.csv"])],
    "sweep_procs1": [("sweep", [
        "sweep", *SMALL, "--requests", "120", "--rate", "30000",
        "--procs", "1", "--out", "{tmp}/sweep.json",
        "--csv", "{tmp}/sweep.csv"])],
    "sweep_procs2": [("sweep", [
        "sweep", *SMALL, "--requests", "120", "--load", "0.8",
        "--procs", "2", "--out", "{tmp}/sweep.json",
        "--csv", "{tmp}/sweep.csv"])],
    "store": [
        ("demo", ["store", "demo", *SMALL, "--requests", "120",
                  "--kill-round", "30", "--path", "{tmp}/store",
                  "--out", "{tmp}/demo.json"]),
        ("inspect", ["store", "inspect", "--path", "{tmp}/store"]),
        ("recover", ["store", "recover", "--path", "{tmp}/store"]),
    ],
    "tune": [
        ("search", ["tune", "search", "--workload", "uniform", "--n", "1500",
                    "--n-modules", "4", "--requests", "60",
                    "--generations", "1", "--beam", "2",
                    "--out", "{tmp}/profile.json"]),
        ("report", ["tune", "report", "--profile", "{tmp}/profile.json"]),
        ("apply", ["tune", "apply", "--profile", "{tmp}/profile.json",
                   "--n", "1500", "--n-modules", "4", "--requests", "60",
                   "--adapt", "--adapt-window", "4",
                   "--out", "{tmp}/apply.json"]),
    ],
    "balance": [("balance", [
        "balance", *SMALL, "--batch", "32", "--steps", "4",
        "--out", "{tmp}/balance.json"])],
    "trace": [("trace", [
        "trace", "--n", "1500", "--n-modules", "4", "--batch", "32",
        "--ops", "insert,bc-10,10-nn", "--no-events",
        "--out", "{tmp}/trace.json", "--csv", "{tmp}/trace.csv"])],
    # usage errors: exit 2 with the message on stdout
    "err_bad_mix": [("serve", [
        "serve", *SMALL, "--requests", "10", "--rate", "1000",
        "--mix", "knn=x"])],
    "err_ungated_refinement": [("serve", [
        "serve", *SMALL, "--requests", "10", "--rate", "1000",
        "--rebalance-ratio", "2.0"])],
    "err_bad_crash": [("faults", [
        "faults", *SMALL, "--requests", "10", "--rate", "1000",
        "--crash", "3"])],
    "err_apply_without_profile": [("apply", ["tune", "apply"])],
    "err_inspect_without_path": [("inspect", ["store", "inspect"])],
}

_WALL_PATTERNS = (
    (re.compile(r'("wall_s": )[0-9.eE+-]+'), r"\1<WALL>"),
    (re.compile(r'("shard_wall_s": )\[[^\]]*\]'), r"\1<WALL>"),
    (re.compile(r"^(wall_s,).*$", re.M), r"\1<WALL>"),
    (re.compile(r"^(wall clock\s+).*$", re.M), r"\1<WALL>"),
    (re.compile(r"\([0-9.]+s wall\)"), "(<WALL>s wall)"),
)


def _mask(text: str, tmp: pathlib.Path) -> str:
    text = text.replace(str(tmp), "<TMP>")
    for pattern, repl in _WALL_PATTERNS:
        text = pattern.sub(repl, text)
    return text


def _snapshot(tmp: pathlib.Path) -> dict[str, bytes]:
    return {p.relative_to(tmp).as_posix(): p.read_bytes()
            for p in sorted(tmp.rglob("*")) if p.is_file()}


def _is_text(name: str) -> bool:
    return name.endswith((".json", ".csv"))


def _run_step(argv: list[str], tmp: pathlib.Path, capsys) -> tuple:
    """Run one CLI step; returns (exit code, masked stdout, written files)."""
    before = _snapshot(tmp)
    capsys.readouterr()
    try:
        rc = main([a.replace("{tmp}", str(tmp)) for a in argv])
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    out = _mask(capsys.readouterr().out, tmp)
    written = {}
    for name, blob in _snapshot(tmp).items():
        if before.get(name) != blob:
            written[name] = (_mask(blob.decode(), tmp).encode()
                             if _is_text(name) else blob)
    return rc, out, written


def _golden_step(step_dir: pathlib.Path) -> tuple:
    rc = int((step_dir / "exit").read_text())
    out = (step_dir / "stdout").read_text()
    files_dir = step_dir / "files"
    files = ({p.relative_to(files_dir).as_posix(): p.read_bytes()
              for p in sorted(files_dir.rglob("*")) if p.is_file()}
             if files_dir.exists() else {})
    return rc, out, files


def _write_golden(step_dir: pathlib.Path, rc, out, files) -> None:
    if step_dir.exists():
        shutil.rmtree(step_dir)
    step_dir.mkdir(parents=True)
    (step_dir / "exit").write_text(f"{rc}\n")
    (step_dir / "stdout").write_text(out)
    for name, blob in files.items():
        path = step_dir / "files" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cli_output_matches_golden(scenario, tmp_path, capsys):
    for step, argv in SCENARIOS[scenario]:
        rc, out, files = _run_step(argv, tmp_path, capsys)
        step_dir = GOLDEN_DIR / scenario / step
        if REGEN:
            _write_golden(step_dir, rc, out, files)
            continue
        assert step_dir.exists(), (
            f"missing golden {step_dir}; regenerate with REGEN_GOLDEN=1 "
            "PYTHONPATH=src python -m pytest tests/test_cli_parity.py")
        want_rc, want_out, want_files = _golden_step(step_dir)
        assert rc == want_rc, f"{scenario}/{step}: exit {rc} != {want_rc}"
        assert out == want_out, f"{scenario}/{step}: stdout differs"
        assert sorted(files) == sorted(want_files), (
            f"{scenario}/{step}: wrote {sorted(files)}, "
            f"golden has {sorted(want_files)}")
        for name in files:
            assert files[name] == want_files[name], (
                f"{scenario}/{step}: {name} differs")
