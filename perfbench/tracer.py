"""In-memory spans around bmtk's public functions, installed from outside.

Each wrapped function is replaced at every place it is looked up: the module
that defines it, the modules that import it by name, and the
``seqprops.PROPERTIES`` dispatch table.  Nothing under ``src/`` changes.

Per-lookup methods such as ``BinomialCache.binomial`` (millions of calls on
``scan-wide``) are deliberately not wrapped; their cost stays in the caller's
self time.  Table growth is timed by growing the shared table, in its own
span, to the size the wrapped call would grow it to first; the call then
finds the table ready and produces the same result.

Spans are ``[name, start, end, parent]`` rows kept in a list and written as
JSON lines once the pass is over.  ``self_times`` derives each span's self
time as its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = "bench.pass"
BITS = "trace.max_bits"
GROW = "exactnum.grow"


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.max_bits: dict[int, int] = {}

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(*args)`` runs inside it first,
        ``after(result)`` once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if before is not None:
                    before(*args, **kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": idx,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Patch every lookup site of the traced bmtk functions."""
    from bmtk import bmcoeff, boundcheck, cli, exactnum, polyident, quadoracle, scanner, seqprops

    table = exactnum.default_cache()

    def grow(n: int) -> None:
        if table.row_count <= n:
            with tracer.span(GROW):
                table.ensure_rows(n)

    # Each grows the shared table to the size its wrapped call needs first.
    def grow_closed_form(m, cache=None):
        if cache is None:
            grow(2 * m)

    def grow_thm22(row_m, row_next):
        grow(2 * row_m.m)

    def grow_sec4(row, cache=None):
        if cache is None:
            grow(2 * row.m)

    # k_property checks level 0, 1, 2, ... in order, one predicate call each.
    level = [0]

    def reset_level(*args, **kwargs):
        level[0] = 0

    # The bit count gets its own span, so it shows as tracing cost rather than
    # as the predicate's self time.
    def record_bits(seq, *args, **kwargs):
        with tracer.span(BITS):
            bits = max(
                (abs(x.num if hasattr(x, "num") else x.numerator).bit_length() for x in seq),
                default=0,
            )
            if bits > tracer.max_bits.get(level[0], -1):
                tracer.max_bits[level[0]] = bits
            level[0] += 1

    def count_grid(report) -> None:
        tracer.count("polyident.grid_points", report.points)

    verifiers = [n for n in polyident.__all__ if n.startswith("verify_")]
    patches = [
        # (span name, lookup sites, before, after)
        ("cli.main", [(cli, "main")], None, None),
        ("scanner.scan", [(scanner, "scan")], None, None),
        ("scanner.verify_cell", [(scanner, "verify_cell")], None, None),
        ("seqprops.k_property", [(seqprops, "k_property"), (scanner, "k_property")],
         reset_level, None),
        ("seqprops.l_operator", [(seqprops, "l_operator"), (scanner, "l_operator")], None, None),
        ("seqprops.ratio_monotone", [(seqprops.PROPERTIES, seqprops.RATIO_MONOTONE)],
         record_bits, None),
        ("bmcoeff.closed_form_row",
         [(bmcoeff, "closed_form_row"), (scanner, "closed_form_row"),
          (boundcheck, "closed_form_row"), (quadoracle, "closed_form_row")],
         grow_closed_form, None),
        ("bmcoeff.recu1_row", [(bmcoeff, "recu1_row"), (boundcheck, "recu1_row")], None, None),
        ("bmcoeff.rows", [(bmcoeff, "rows")], None, None),
        ("bmcoeff.eval_poly", [(bmcoeff, "eval_poly"), (quadoracle, "eval_poly")], None, None),
        ("boundcheck.thm21", [(boundcheck, "check_growth_lower_bound")], None, None),
        ("boundcheck.thm22", [(boundcheck, "check_strict_growth_bound")], grow_thm22, None),
        ("boundcheck.l31", [(boundcheck, "check_successor_ratio_bound")], None, None),
        ("boundcheck.l32", [(boundcheck, "check_growth_upper_bound")], None, None),
        ("boundcheck.l33", [(boundcheck, "check_predecessor_bound")], None, None),
        ("boundcheck.l34", [(boundcheck, "check_reflected_ratio_gap")], None, None),
        ("boundcheck.sec4", [(boundcheck, "check_endpoint_ratios")], grow_sec4, None),
        ("polyident.run_identity_suite", [(polyident, "run_identity_suite")], None, None),
        ("polyident.verify", [(polyident, n) for n in verifiers], None, None),
        ("polyident.grid_nonnegativity", [(polyident, "grid_nonnegativity")], None, count_grid),
        ("quadoracle.identity_sweep", [(quadoracle, "identity_sweep")], None, None),
        ("quadoracle.quartic_integral", [(quadoracle, "quartic_integral")], None, None),
    ]
    for name, sites, before, after in patches:
        for owner, key in sites:
            if isinstance(owner, dict):
                owner[key] = tracer.wrap(name, owner[key], before, after)
            else:
                setattr(owner, key, tracer.wrap(name, getattr(owner, key), before, after))


def load_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> tuple[dict[str, float], dict[str, int], list[float]]:
    """Per span name: summed self time (s) and call count; plus the
    durations of every ``scanner.verify_cell`` span."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    cells = []
    for idx, span in enumerate(spans):
        duration = span["end"] - span["start"]
        name = span["name"]
        selfs[name] = selfs.get(name, 0.0) + duration - child_time[idx]
        calls[name] = calls.get(name, 0) + 1
        if name == "scanner.verify_cell":
            cells.append(duration)
    return selfs, calls, cells
