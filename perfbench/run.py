"""bmtk benchmark: four verification workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload scan-wide --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload in turn
    python3 perfbench/run.py --smoke

Run it from any directory; it imports bmtk from its checkout's
``src/`` and needs nothing outside the standard library.  A run spawns a few
set-up probes, then one fresh ``python3 -s perfbench/child.py`` per pass until
``--seconds`` are used, one process at a time and ``--workers 1`` throughout.

``--trace 0`` reports the end-to-end metrics (wall_s and cpu_s as the mean over
the passes, the others as the median):

    wall_s       time from built inputs to the verified result of one pass
    cpu_s        user + sys CPU time of the pass's process
    peak_rss_mb  ru_maxrss of the pass's process
    setup_s      interpreter start + bmtk import + input building

``--trace 1`` alternates traced and untraced passes and reports per-layer
metrics from the traced ones (self times from the spans in ``tracer.py``),
plus the tracing overhead.  ``--smoke`` runs one traced pass of every workload
at reduced size, with every correctness gate on.

Each workload prints human-readable lines, then its result as one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--workload`` that JSON object is the last line of standard output.  The exit
code is 1 when a correctness gate fails, 2 when a run cannot start or finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing  # perfbench/ is sys.path[0] when run as a script
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run must be over within 180 s
MAX_BITS_LEVELS = 6
BOUND_IDS = [b for b, _, _ in workloads.BOUND_CHECKS]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# On a shared host, CPU speed drifts over seconds to minutes.  Over a run's
# few long passes the mean (total pass time over passes) follows that drift
# more steadily than the median; the other metrics report the median.
MEAN_OVER_PASSES = {"wall_s", "cpu_s"}

# Span name -> per-layer self-time metric.  Every span but the root and the
# bit counting is a layer; together with the remainder they add up to the
# traced wall_s.
SELF_TIME_METRICS = {
    "exactnum.grow": "exactnum.table_grow_s",
    "bmcoeff.closed_form_row": "bmcoeff.closed_form_row.self_s",
    "bmcoeff.recu1_row": "bmcoeff.recu1_row.self_s",
    "bmcoeff.rows": "bmcoeff.rows.self_s",
    "bmcoeff.eval_poly": "bmcoeff.eval_poly.self_s",
    "seqprops.l_operator": "seqprops.l_operator.self_s",
    "seqprops.ratio_monotone": "seqprops.ratio_monotone.self_s",
    "seqprops.k_property": "seqprops.k_property.self_s",
    **{f"boundcheck.{b}": f"boundcheck.{b}.self_s" for b in BOUND_IDS},
    "polyident.run_identity_suite": "polyident.suite.self_s",
    "polyident.verify": "polyident.verify.self_s",
    "polyident.grid_nonnegativity": "polyident.grid_nonnegativity.self_s",
    "quadoracle.identity_sweep": "quadoracle.sweep.self_s",
    "quadoracle.quartic_integral": "quadoracle.quartic_integral.self_s",
    "scanner.scan": "scanner.self_s",
    "scanner.verify_cell": "scanner.verify_cell.self_s",
    "cli.main": "cli.self_s",
}
CALL_METRICS = {
    "bmcoeff.closed_form_row": "bmcoeff.closed_form_row.calls",
    "seqprops.l_operator": "seqprops.l_operator.calls",
    "quadoracle.quartic_integral": "quadoracle.quartic_integral.calls",
}
PER_LAYER = {
    "exactnum.binomial_rows": "count",
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    **{name: "count" for name in CALL_METRICS.values()},
    **{f"seqprops.max_bits.L{k}": "count" for k in range(MAX_BITS_LEVELS)},
    "boundcheck.records": "count",
    "polyident.grid_points": "count",
    "quadoracle.converged_frac": "ratio",
    "quadoracle.flagged_cells": "count",
    "scanner.verify_cell.n": "count",
    "scanner.verify_cell.p50_ms": "ms",
    "scanner.verify_cell.p95_ms": "ms",
    "scanner.ledger_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}


class PassError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def spawn(spec: dict, timeout: float) -> dict:
    """Run one child to completion; its result plus ``setup_s``."""
    env = dict(os.environ)
    env.pop("BMTK_BINOMIAL_CACHE", None)
    cmd = [sys.executable, "-s", str(HERE / "child.py"), json.dumps(spec)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{spec['mode']} of {spec['workload']} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassError(f"child exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_value(name: str, values: list[float]) -> float:
    """What a run reports for one end-to-end metric."""
    if name in MEAN_OVER_PASSES:
        return statistics.fmean(values)
    return statistics.median(values)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def layer_metrics(result: dict, spans: list[dict]) -> tuple[dict[str, float], list[float]]:
    """Per-layer values of one traced pass, and its verify_cell durations."""
    selfs, calls, cells = tracing.self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = selfs.get(span, 0.0)
    for span, metric in CALL_METRICS.items():
        out[metric] = calls.get(span, 0)
    for level, bits in result["max_bits"].items():
        if int(level) < MAX_BITS_LEVELS:
            out[f"seqprops.max_bits.L{level}"] = bits
    facts = result["facts"]
    out["exactnum.binomial_rows"] = result["binomial_rows"]
    out["boundcheck.records"] = facts.get("records", 0)
    out["polyident.grid_points"] = result["counts"].get("polyident.grid_points", 0)
    if facts.get("quad_cells"):
        out["quadoracle.converged_frac"] = facts["quad_converged"] / facts["quad_cells"]
        out["quadoracle.flagged_cells"] = facts["quad_flagged"]
    out["scanner.ledger_bytes"] = facts.get("ledger_bytes", 0)
    out["trace.wall_s"] = result["wall_s"]
    out["trace.remainder_s"] = result["wall_s"] - sum(
        out[metric] for metric in SELF_TIME_METRICS.values()
    )
    return out, cells


class Run:
    """The passes of one workload at one seed, and what they add up to."""

    def __init__(self, workload: str, seed: int, smoke: bool, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self.inputs = workloads.make_inputs(workload, seed, smoke)
        self.pins = json.loads((HERE / "pins.json").read_text())
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.layers: list[dict[str, float]] = []
        self.cells: list[float] = []
        self.spans: list[dict] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.quad_cells = 0
        self.quad_flagged = 0
        self.problems: list[str] = []

    def spec(self, mode: str, trace: bool, tmpdir: Path | None) -> dict:
        return {
            "root": str(ROOT),
            "workload": self.workload,
            "seed": self.seed,
            "smoke": self.smoke,
            "mode": mode,
            "trace": trace,
            "tmpdir": str(tmpdir) if tmpdir else None,
            "run_id": f"{self.workload}:{self.seed}:{self.passes}",
        }

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup_probe(self) -> None:
        result = spawn(self.spec("setup", False, None), self.remaining())
        self.samples["setup_s"].append(result["setup_s"])

    def one_pass(self, trace: bool) -> float:
        """Run one pass; returns how long it took from spawn to exit."""
        start = time.monotonic()
        self.passes += 1
        tmpdir = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
        try:
            try:
                result = spawn(self.spec("pass", trace, tmpdir), self.remaining())
            except PassError as exc:
                ops = workloads.expected_ops(self.workload, self.inputs)
                self.attempted += ops
                self.failed += ops
                self.problems.append(str(exc))
                return time.monotonic() - start
            self.attempted += result["ops"]
            self.failed += result["failed"]
            self.quad_cells += result["facts"].get("quad_cells", 0)
            self.quad_flagged += result["facts"].get("quad_flagged", 0)
            self.problems += result["problems"]
            self.check_pin(result["digest"])
            self.samples["setup_s"].append(result["setup_s"])
            if trace:
                spans = tracing.load_spans(tmpdir / "spans.jsonl")
                layers, cells = layer_metrics(result, spans)
                self.layers.append(layers)
                self.cells += cells
                self.spans += spans
            else:
                for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                    self.samples[name].append(result[name])
            return time.monotonic() - start
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

    def check_pin(self, digest: str | None) -> None:
        key = workloads.pin_key(self.workload, self.inputs)
        if key is None:
            return
        if key not in self.pins:
            self.problems.append(f"no pinned digest for {key!r}")
        elif digest != self.pins[key]:
            self.problems.append(f"output digest {digest} differs from the pin for {key!r}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0

    def measure(self, seconds: float, trace: bool) -> None:
        """Set-up probes, then passes while another one fits in ``seconds``;
        with tracing, passes alternate traced and untraced."""
        start = time.monotonic()
        for _ in range(SETUP_PROBES):
            self.setup_probe()
        durations: list[float] = []
        while True:
            traced = trace and len(durations) % 2 == 0
            durations.append(self.one_pass(traced))
            enough = len(durations) >= (2 if trace else 1)
            used = time.monotonic() - start
            if enough and used + statistics.median(durations) > seconds:
                break
            if self.remaining() < 2 * max(durations):
                break


def summary_lines(run: Run, trace: bool) -> list[str]:
    lines = [
        f"workload {run.workload} seed {run.seed}: inputs {json.dumps(run.inputs)}",
    ]
    for name, unit in END_TO_END.items():
        values = run.samples[name]
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        stat = "mean" if name in MEAN_OVER_PASSES else "median"
        lines.append(
            f"  {name:<12} {run_value(name, values):.6g} {unit}  ({stat} of n={len(values)};"
            f" median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g})"
        )
    frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  failed_frac  {frac:.6g}  ({run.failed} failed of {run.attempted} ops)")
    if run.quad_cells:
        lines.append(
            f"  quadrature cells flagged {run.quad_flagged} of {run.quad_cells}"
            " (the oracle's verdicts, not failed ops)"
        )
    if trace and run.layers:
        merged = median_layers(run)
        lines.append(f"  traced passes n={len(run.layers)}; layer self times (median):")
        for metric in SELF_TIME_METRICS.values():
            if merged[metric]:
                lines.append(f"    {metric:<38} {merged[metric]:.6g} s")
        lines.append(
            f"    {'trace.remainder_s':<38} {merged['trace.remainder_s']:.6g} s"
            f"  (of traced wall_s {merged['trace.wall_s']:.6g} s)"
        )
        if run.samples["wall_s"]:
            lines.append(
                f"  tracing overhead {merged['trace.overhead_s']:.6g} s (traced"
                f" {merged['trace.wall_s']:.6g} - untraced {merged['trace.untraced_wall_s']:.6g})"
            )
        if run.cells:
            lines.append(
                f"  verify_cell p50 {merged['scanner.verify_cell.p50_ms']:.6g} ms,"
                f" p95 {merged['scanner.verify_cell.p95_ms']:.6g} ms (n={len(run.cells)})"
            )
    for problem in run.problems[:10]:
        lines.append(f"  GATE FAILED: {problem}")
    lines.append(f"  correct: {str(run.correct).lower()}")
    return lines


def median_layers(run: Run) -> dict[str, float]:
    merged = {
        name: statistics.median(layer[name] for layer in run.layers) for name in PER_LAYER
    }
    untraced = statistics.median(run.samples["wall_s"]) if run.samples["wall_s"] else 0.0
    merged["trace.untraced_wall_s"] = untraced
    merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced
    if run.cells:
        merged["scanner.verify_cell.n"] = len(run.cells)
        merged["scanner.verify_cell.p50_ms"] = 1000 * statistics.median(run.cells)
        merged["scanner.verify_cell.p95_ms"] = 1000 * percentile(run.cells, 0.95)
    return merged


def result_json(run: Run, trace: bool) -> str:
    if trace:
        merged = median_layers(run)
        metrics = {name: {"value": merged[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": run_value(name, run.samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    )


def write_spans(run: Run) -> None:
    path = WORK / f"trace-{run.workload}.jsonl"
    with path.open("w") as fh:
        for span in run.spans:
            fh.write(json.dumps(span) + "\n")


def smoke(seed: int) -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        run = Run(workload, seed, True, time.monotonic() + HARD_LIMIT_S)
        run.one_pass(True)
        print("\n".join(summary_lines(run, True)))
        ok = ok and run.correct
    return 0 if ok else 1


def measure_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One run of one workload: summary lines, then the result as JSON."""
    run = Run(workload, seed, False, time.monotonic() + HARD_LIMIT_S)
    try:
        run.measure(seconds, trace)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if trace:
        write_spans(run)
    if not run.samples["wall_s"] or (trace and not run.layers):
        print("error: no pass completed", file=sys.stderr)
        for problem in run.problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(run, trace)))
    print(result_json(run, trace))
    return 0 if run.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=workloads.WORKLOADS, help="default: every workload in turn"
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bmtk" / "__init__.py").is_file():
        print(f"error: no bmtk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    names = [args.workload] if args.workload else workloads.WORKLOADS
    return max(measure_one(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
