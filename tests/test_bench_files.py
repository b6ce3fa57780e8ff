"""The committed benchmark trajectory files agree with the runs they hold.

Each ``BENCH_<n>.json`` at the repository root records paired
``perfbench/run.py`` runs (parent commit against a change) and a summary
of them.  Every run must have succeeded, and every summary row must
recompute from the runs: pair count, quartiles per side, relative change
of the medians and the number of pairs the change won.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _all_runs(doc: dict) -> list[dict]:
    earlier = [run for group in doc.get("earlier_revision_runs", []) for run in group["runs"]]
    return doc["runs"] + earlier


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_run_succeeded(path):
    doc = _load(path)
    assert doc["parent_commit"] and doc["machine"]
    for run in _all_runs(doc):
        assert run["exit"] == 0, run
        assert run["result"]["correct"] is True, run
        assert run["result"]["failed"] == 0, run


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summary_recomputes_from_runs(path):
    doc = _load(path)
    assert doc["summary"]
    for row in doc["summary"]:
        runs = [r for r in doc["runs"] if (r["workload"], r["seed"]) == (row["workload"], row["seed"])]
        value = {(r["pair"], r["side"]): r["result"]["metrics"][row["metric"]]["value"] for r in runs}
        pairs = sorted({pair for pair, _ in value})
        assert len(value) == 2 * len(pairs) == 2 * row["pairs"], row
        sides = {}
        for side in ("parent", "change"):
            values = [value[pair, side] for pair in pairs]
            q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
            assert row[side] == pytest.approx({"q1": q1, "median": median, "q3": q3}, rel=1e-12), row
            sides[side] = values
        delta = 100 * (row["change"]["median"] / row["parent"]["median"] - 1)
        # Rows give the change to one or two decimals.
        assert abs(row["delta_median_pct"] - delta) <= 0.05 + 1e-9, row
        lower = BETTER[row["metric"]] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        assert row["change_wins"] == wins, row
