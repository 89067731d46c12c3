"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-wide", "preempt-deep", "sched-fold")

#: Per-layer metrics that must repeat exactly across runs of one seed.
DETERMINISTIC_LAYERS = (
    "storage.pages_read",
    "storage.pages_written",
    "durability.manifest_reads",
    "durability.fsync_count",
    "fold.pages_absorbed",
    "fold.pages_shared",
    "fold.refetches",
    "fold.build_hits",
    "fold.refetch_ratio",
)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, list]:
    """Run the benchmark tiny; returns (result JSON, stdout lines)."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def outputs_line(lines: list) -> str:
    return next(line for line in lines if line.startswith("outputs "))


@pytest.fixture(scope="module")
def runs() -> dict:
    """Two untraced runs and one traced run of each workload, one seed."""
    return {
        (w, k): run(w, trace=1 if k == "traced" else 0)
        for w in WORKLOADS
        for k in ("first", "second", "traced")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(runs, workload):
    spec = benchmark_spec()
    for kind, section in (("first", "end_to_end"), ("traced", "per_layer")):
        result, _ = runs[(workload, kind)]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    result, _ = runs[(workload, "first")]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(runs, workload):
    first, first_lines = runs[(workload, "first")]
    second, second_lines = runs[(workload, "second")]
    for name in ("vclock_total", "image_bytes_per_suspend"):
        assert first["metrics"][name] == second["metrics"][name]
    assert outputs_line(first_lines) == outputs_line(second_lines)
    traced, _ = runs[(workload, "traced")]
    again, _ = run(workload, trace=1)
    for name in DETERMINISTIC_LAYERS:
        assert traced["metrics"][name] == again["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_outputs_and_clock(runs, workload):
    _, plain = runs[(workload, "first")]
    _, traced = runs[(workload, "traced")]
    assert outputs_line(plain) == outputs_line(traced)


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark's
    files, the benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [
                sys.executable, os.path.join("perfbench", "run.py"),
                "--workload", "serve-wide", "--seed", "1",
                "--seconds", "1", "--trace", "0",
            ],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_task_is_unchanged():
    """The probe's task is the unit of the JSON timings; a different
    task would change every figure without any change to the program."""
    from speed import reference_task

    assert reference_task() == 112083621
