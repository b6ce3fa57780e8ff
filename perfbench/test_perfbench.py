"""Self-test of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench

It takes about a minute: each traced run sets up three times and then
replays one cycle of its workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"

# Per-layer metrics that are counts of work (or ratios of two counts): these
# depend only on the inputs, so they must repeat exactly for a fixed seed.
COUNT_RATIOS = {
    "assortment.iterations_per_shown_slot",
    "collusion.select_calls_per_audit",
    "simulator.rerank_changed_ratio",
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload: str, seed: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def work():
    WORK.mkdir(parents=True, exist_ok=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _printed(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run_prints_declared_metrics(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _printed(result) == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert _printed(first) == _printed(second) == _declared("per_layer")
    counts = [
        name for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "bytes") or name in COUNT_RATIOS
    ]
    assert len(counts) >= 15
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_input_bytes(work, workload):
    def inputs(seed: int, name: str) -> dict[str, bytes]:
        workloads.build(workload, seed, work / name)
        return {p.name: p.read_bytes() for p in sorted((work / name).glob("*.json"))}

    first = inputs(1, "a")
    assert first
    assert inputs(1, "b") == first
    assert inputs(2, "c") != first


def test_refuses_to_run_without_engine_sources(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
