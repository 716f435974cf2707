"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_passes_every_gate_of_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct: true") == len(workloads.WORKLOADS)
    assert proc.stdout.count("failed_frac  0  (0 failed of") == len(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    starts = {workloads.make_inputs("scan-wide", s)["m_from"] for s in range(40)}
    assert len(starts) > 1
    a_values = workloads.make_inputs("identities", 7)["a_values"]
    assert set(workloads.ACCEPT_A) <= set(a_values)
    assert all(a > -1 for a in a_values)


def test_every_window_a_seed_can_draw_is_pinned():
    pins = json.loads((HERE / "pins.json").read_text())
    for name in workloads.WORKLOADS:
        for seed in range(64):
            for smoke in (False, True):
                key = workloads.pin_key(name, workloads.make_inputs(name, seed, smoke))
                assert key is None or key in pins, key


def test_a_changed_digest_fails_the_gate():
    bench = run.Run("bounds-range", 1, False, time.monotonic() + 10)
    bench.attempted = 1
    bench.check_pin("0" * 64)
    assert not bench.correct


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
