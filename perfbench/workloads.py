"""Workload inputs, one timed pass, and the correctness gate of each workload.

``make_inputs`` depends only on the workload name, the seed and the smoke
flag, never on the bmtk code under test, so one seed gives byte-identical
inputs on any commit.  ``run_pass`` calls bmtk through module attributes
(``cli.main``, ``boundcheck.check_*``, ...), so the tracer's patches in
``tracer.py`` see every call.  ``finish`` runs after the timed region: it
counts failed operations and checks the outputs.  Gate work that has to
happen during a pass, so that its outputs need not be kept alive, runs under
``pause()`` and is left out of the pass's wall and CPU time.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from pathlib import Path

WORKLOADS = ("scan-wide", "scan-deep", "bounds-range", "identities")

DEFAULT_SEED = 1

# The acceptance grid of criterion 10: every sweep keeps these a values,
# and its m <= 5 cells must stay unflagged.
ACCEPT_A = (-0.5, 0.0, 0.5, 1.0, 2.0, 10.0)
ACCEPT_M_MAX = 5
ANCHORS = ((0, 1.0, math.pi / 4), (1, 1.0, 5 * math.pi / 32))
QUAD_TOL = 1e-10

# Offsets move the start of a scan window.  Cells at the low end of a window
# are the cheapest ones, so every offset costs about the same.
SCAN_OFFSETS = 4

BOUND_CHECKS = (
    # (bound id, boundcheck function, argument shape)
    ("thm21", "check_growth_lower_bound", "pair"),
    ("thm22", "check_strict_growth_bound", "pair"),
    ("l31", "check_successor_ratio_bound", "row"),
    ("l32", "check_growth_upper_bound", "pair"),
    ("l33", "check_predecessor_bound", "row"),
    ("l34", "check_reflected_ratio_gap", "m"),
    ("sec4", "check_endpoint_ratios", "row"),
)


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """The generated arguments of one workload; plain JSON-able data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-wide":
        offset = rng.randrange(SCAN_OFFSETS)
        return {"m_from": 2 + offset, "m_to": 60 if smoke else 300, "depth": 2}
    if workload == "scan-deep":
        offset = rng.randrange(SCAN_OFFSETS)
        base, top = (20, 32) if smoke else (60, 120)
        return {"m_from": base + offset, "m_to": top, "depth": 6}
    if workload == "bounds-range":
        return {"m_max": 40 if smoke else 250}
    # One value near the singular end a -> -1, where quadrature converges
    # slowly, and one large value, where the absolute tolerance is too loose.
    # The narrow band for the first keeps the sweep's cost comparable.
    a_values = list(ACCEPT_A) + [
        round(rng.uniform(-0.92, -0.88), 3),
        round(10 ** rng.uniform(1.3, 2.3), 1),
    ]
    return {
        "grid": 20 if smoke else 200,
        "m_max": 8 if smoke else 40,
        "a_values": a_values,
    }


def pin_key(workload: str, inputs: dict) -> str | None:
    """The key of the pinned output digest for these inputs, if any.

    ``pins.json`` maps each key to the sha256 the parent commit of the
    benchmark produced; inputs whose key is missing fail the gate.
    """
    if workload.startswith("scan-"):
        return f"scan m={inputs['m_from']}..{inputs['m_to']} depth={inputs['depth']}"
    if workload == "bounds-range":
        return f"bounds m=2..{inputs['m_max']}"
    return None


def expected_ops(workload: str, inputs: dict) -> int:
    """Operations one pass attempts: scan cells, bound reports, or the six
    identities plus the quadrature cells."""
    if workload.startswith("scan-"):
        return inputs["m_to"] - inputs["m_from"] + 1
    if workload == "bounds-range":
        return len(BOUND_CHECKS) * (inputs["m_max"] - 1)
    return 6 + (inputs["m_max"] + 1) * len(inputs["a_values"])


def run_pass(workload: str, inputs: dict, tmpdir: Path, pause=nullcontext) -> dict:
    """One pass of the workload; returns its raw outputs for :func:`finish`."""
    if workload.startswith("scan-"):
        return _scan(inputs, tmpdir)
    if workload == "bounds-range":
        return _bounds(inputs, pause)
    return _identities(inputs)


def finish(workload: str, inputs: dict, raw: dict) -> dict:
    """Failure accounting and the correctness gate, outside the timed region.

    Returns ``ops``, ``failed``, ``problems`` (gate failures, empty when the
    outputs are correct), ``digest`` and ``facts`` (counts for the trace).
    """
    ops = expected_ops(workload, inputs)
    if workload.startswith("scan-"):
        return _finish_scan(ops, inputs, raw)
    if workload == "bounds-range":
        return _finish_bounds(ops, raw)
    return _finish_identities(ops, inputs, raw)


# -- scan ----------------------------------------------------------------------


def _scan(inputs: dict, tmpdir: Path) -> dict:
    from bmtk import cli

    ledger, out = tmpdir / "ledger.jsonl", tmpdir / "scan.json"
    argv = [
        "scan",
        "--from", str(inputs["m_from"]),
        "--to", str(inputs["m_to"]),
        "--depth", str(inputs["depth"]),
        "--strict",
        "--workers", "1",
        "--ledger", str(ledger),
        "--format", "json",
        "--out", str(out),
    ]
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed pass, not a dead benchmark
        return {"code": None, "error": repr(exc), "ledger": str(ledger), "out": str(out)}
    return {"code": code, "error": None, "ledger": str(ledger), "out": str(out)}


def scan_digest(payload: dict) -> str:
    """sha256 of the scan payload without the run-dependent cell fields."""
    stable = dict(payload)
    stable["cells"] = [
        {k: v for k, v in cell.items() if k not in ("wall_time", "timestamp")}
        for cell in payload["cells"]
    ]
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finish_scan(ops: int, inputs: dict, raw: dict) -> dict:
    out = Path(raw["out"])
    if raw["error"] is not None or raw["code"] == 2 or not out.exists():
        problem = raw["error"] or f"bmtk scan exited {raw['code']}"
        return {"ops": ops, "failed": ops, "problems": [problem], "digest": None, "facts": {}}
    payload = json.loads(out.read_text())
    verified = {c["m"] for c in payload["cells"] if c["verdict"] == "verified"}
    wanted = set(range(inputs["m_from"], inputs["m_to"] + 1))
    failed = len(wanted - verified)
    problems = [f"{failed} of {ops} cells not verified"] if failed else []
    if not payload.get("all_verified"):
        problems.append("payload says not all verified")
    ledger = Path(raw["ledger"])
    facts = {"ledger_bytes": ledger.stat().st_size if ledger.exists() else 0}
    return {
        "ops": ops,
        "failed": failed,
        "problems": problems,
        "digest": scan_digest(payload),
        "facts": facts,
    }


# -- bounds --------------------------------------------------------------------


class _BoundsTally:
    """Failure count and digest of the exact min_ratio and margin strings,
    fed one report at a time so that no report outlives its check."""

    def __init__(self) -> None:
        self.reports = self.failed = self.records = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, bound_id: str, m: int, report) -> None:
        self.reports += 1
        if isinstance(report, str):
            self.failed += 1
            self.problems.append(f"{bound_id} at m={m} raised {report}")
            return
        self.records += len(report.records)
        if not report.all_hold:
            self.failed += 1
            self.problems.append(f"{bound_id} does not hold at m={m}")
        self.digest.update(f"{bound_id} {m} {report.min_ratio}".encode())
        for rec in report.records:
            self.digest.update(f" {rec.margin}".encode())
        self.digest.update(b"\n")


def _bounds(inputs: dict, pause) -> dict:
    from bmtk import bmcoeff, boundcheck

    m_max = inputs["m_max"]
    tally = _BoundsTally()
    chain = bmcoeff.rows("recu1", m_max + 1)
    for m in range(2, m_max + 1):
        row, nxt = chain[m], chain[m + 1]
        args = {"pair": (row, nxt), "row": (row,), "m": (m,)}
        for bound_id, name, shape in BOUND_CHECKS:
            try:
                report = getattr(boundcheck, name)(*args[shape])
            except (ValueError, ArithmeticError) as exc:
                report = repr(exc)
            with pause():
                tally.add(bound_id, m, report)
    return {"tally": tally}


def _finish_bounds(ops: int, raw: dict) -> dict:
    tally = raw["tally"]
    problems = tally.problems[:20]
    if tally.reports != ops:
        problems.append(f"{tally.reports} bound reports, expected {ops}")
    return {
        "ops": ops,
        "failed": tally.failed,
        "problems": problems,
        "digest": tally.digest.hexdigest(),
        "facts": {"records": tally.records},
    }


# -- identities ------------------------------------------------------------------


def _identities(inputs: dict) -> dict:
    from bmtk import polyident, quadoracle

    try:
        suite = polyident.run_identity_suite(inputs["grid"])
        suite_error = None
    except (ValueError, ArithmeticError) as exc:
        suite, suite_error = [], repr(exc)
    # identity_sweep records QuadratureConvergenceError and ValueError per
    # cell, flagged, and keeps going.
    cells = quadoracle.identity_sweep(inputs["m_max"], inputs["a_values"], tol=QUAD_TOL)
    return {"suite": suite, "suite_error": suite_error, "cells": cells}


def _finish_identities(ops: int, inputs: dict, raw: dict) -> dict:
    problems = []
    suite, cells = raw["suite"], raw["cells"]
    if raw["suite_error"] is not None:
        problems.append(f"identity suite raised {raw['suite_error']}")
    bad = [i["identity"] for i in suite if not i["equal"] or i["grid_ok"] is False]
    if len(suite) != 6 or bad:
        problems.append(f"identities not equal or failing their grid: {bad or len(suite)}")
    failed_identities = 6 - len(suite) + len(bad)

    by_cell = {(c.m, c.a): c for c in cells}
    if len(cells) != ops - 6:
        problems.append(f"{len(cells)} quadrature cells, expected {ops - 6}")
    for m in range(ACCEPT_M_MAX + 1):
        for a in ACCEPT_A:
            cell = by_cell.get((m, a))
            if cell is None or cell.flagged:
                problems.append(f"acceptance cell m={m} a={a} flagged or missing")
    for m, a, exact in ANCHORS:
        cell = by_cell.get((m, a))
        if cell is None or cell.result is None or abs(cell.result.integral_estimate - exact) >= 1e-8:
            problems.append(f"analytic anchor m={m} a={a} missed")
    # A flagged cell is the oracle's own verdict on a completed cross-check,
    # not a failed operation: outside the acceptance grid, adaptive Simpson
    # with an absolute tolerance flags cells at a near -1 and at large a.
    # Those cells stay in every pass; their count is reported, not failed.
    flagged = sum(c.flagged for c in cells)
    converged = sum(c.error is None for c in cells)
    return {
        "ops": ops,
        "failed": failed_identities,
        "problems": problems,
        "digest": None,
        "facts": {
            "quad_cells": len(cells),
            "quad_converged": converged,
            "quad_flagged": flagged,
        },
    }
