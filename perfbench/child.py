"""One pass of a workload in a fresh interpreter, or only its set-up.

``run.py`` starts this file as ``python3 -s perfbench/child.py SPEC`` once per
timed repetition, so every pass pays for interpreter start, the bmtk import
and the growth of the process-wide binomial table, as every ``bmtk`` command
does.  SPEC is a JSON object:

    {"root": checkout, "workload": name, "seed": n, "smoke": bool,
     "mode": "setup" | "pass", "trace": bool, "tmpdir": dir, "run_id": id}

The child prints one JSON line.  ``ready`` is the ``time.monotonic()`` reading
once bmtk is imported and the inputs are built; the parent subtracts its own
reading taken just before the spawn to get ``setup_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Stopwatch:
    """Wall and CPU time spent in ``pause()`` blocks, to leave out of a pass."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def pause(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import bmtk.cli  # imports every bmtk module, as the bmtk command does

    if Path(bmtk.__file__).resolve().parent != (src / "bmtk").resolve():
        print(f"bmtk imported from {bmtk.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = spec["workload"]
    inputs = workloads.make_inputs(workload, spec["seed"], spec["smoke"])
    result: dict = {"ready": time.monotonic()}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tmpdir = Path(spec["tmpdir"])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
    watch = Stopwatch()
    start = time.perf_counter()
    if tracer is None:
        raw = workloads.run_pass(workload, inputs, tmpdir, watch.pause)
    else:
        with tracer.span(tracing.ROOT):
            raw = workloads.run_pass(workload, inputs, tmpdir, watch.pause)
    wall = time.perf_counter() - start - watch.wall
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime - watch.cpu,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    result.update(workloads.finish(workload, inputs, raw))
    if tracer is not None:
        tracer.write(tmpdir / "spans.jsonl")
        result["counts"] = tracer.counts
        result["max_bits"] = tracer.max_bits
        result["binomial_rows"] = bmtk.exactnum.default_cache().row_count
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
