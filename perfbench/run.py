"""Closed-loop benchmark of the assortplan CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload rank-audit --seed 1 --seconds 35 --trace 0

One client, one thread: it calls ``assortplan.cli.main(argv)`` in-process
with stdout captured in memory, issuing one request of each of the
workload's classes per round, round after round, for ``--seconds``.  Inputs
come from ``--seed`` and are written before any timing.  Every response is
checked outside its timed window: the first response to each distinct
request against values this benchmark recomputes itself, later ones for
identical bytes.

``--trace 0`` prints the end-to-end metrics.  Its times are rescaled to a
fixed machine speed by timing ``reference_loop`` beside the requests.
``--trace 1`` wraps the engine's module-level names (see tracing.py) and
prints per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The engine is imported from ``src/`` next to this directory; the
run exits with status 2 if it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MAX_REPORTED_ERRORS = 5
# The VM's speed drifts (a fixed loop ran up to 1.8x faster or slower from
# one run to the next), so round latencies are rescaled to a machine on which
# reference_loop takes REFERENCE_MS: the typical time where the bounds were set.
REFERENCE_MS = 5.0
# A round's speed is the median reference timing of the rounds within this
# distance of it, which follows the drift without one outlier timing.
SPEED_WINDOW = 4


def reference_loop() -> float:
    """Fixed pure-Python work that tracks the machine's current speed.

    Dict building, a JSON round trip, a keyed sort and float math: the same
    kinds of interpreter work as the engine.  Run with the collector off, so
    the size of the engine's heap does not change its time.
    """
    rows = [{"id": f"R{i:04d}", "x": (i * 7919 % 1000) / 10.0, "n": i % 97} for i in range(1000)]
    rows = json.loads(json.dumps(rows))
    rows.sort(key=lambda r: (-r["x"], r["n"], r["id"]))
    return math.fsum(math.exp(-r["x"] / 50.0) * r["n"] for r in rows)


def _reference_ms() -> float:
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return 1e3 * (perf_counter() - start)
    finally:
        gc.enable()


def _rescale(round_ms: list[float], reference_ms: list[float]) -> list[float]:
    """Round latencies at reference speed, each scaled by its neighbourhood's speed."""
    return [
        latency * REFERENCE_MS / statistics.median(
            reference_ms[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
        for i, latency in enumerate(round_ms)
    ]


def _import_engine():
    """Import the engine afresh (dropping any earlier import) and return its CLI module."""
    for name in [m for m in sys.modules if m == "assortplan" or m.startswith("assortplan.")]:
        del sys.modules[name]
    return importlib.import_module("assortplan.cli")


class Client:
    """Issues requests one at a time, timing the CLI call and checking each response."""

    def __init__(self) -> None:
        self.reference: dict[int, tuple[tuple[bytes, ...], str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def issue(self, cli, request, recorder=None) -> float:
        """Run one request; returns its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if recorder is None:
                    code = cli.main(request.argv)
                else:
                    code = recorder.call("cli.main", cli.main, request.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed request, not a failed run
                code = repr(exc)
            elapsed = perf_counter() - start
        stdout = out.getvalue()
        self.attempted += 1
        if recorder is not None:
            recorder.counts["cli.output_bytes"] += len(stdout.encode("utf-8"))
        error = self._verdict(request, code, stdout, err.getvalue())
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{request.cls} {' '.join(request.argv)}: {error}")
        return elapsed

    def _verdict(self, request, code, stdout: str, stderr: str) -> str | None:
        if code != request.expect_code:
            return f"exit {code!r}, want {request.expect_code}; stderr {stderr[:300]!r}"
        if stderr:
            return f"unexpected stderr {stderr[:300]!r}"
        try:
            response = request.response(stdout)
        except OSError as exc:
            return f"output files unreadable: {exc!r}"
        if id(request) not in self.reference:
            try:
                request.check(stdout)
                verdict = None
            except (workloads.CheckError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                verdict = f"check failed: {exc!r}"
            self.reference[id(request)] = (response, verdict)
            return verdict
        first, verdict = self.reference[id(request)]
        if verdict is None and response != first:
            return "response bytes differ from the first response to the same request"
        return verdict


def _percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100)[p - 1]


def _run(args) -> dict:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path) -> dict:
    rounds = workloads.build(args.workload, args.seed, work)
    distinct = list({id(r): r for rnd in rounds for r in rnd}.values())
    client = Client()
    print(
        f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {numpy.__version__}; "
        "wall time on a shared VM"
    )
    print(
        f"workload {args.workload} seed {args.seed}: classes {', '.join(r.cls for r in rounds[0])}; "
        f"{len(distinct)} distinct requests, {len(rounds)} rounds per cycle"
    )

    # Set-up: import the engine and make one pass over the distinct requests.
    setup_s, setup_ref_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        cli = _import_engine()
        busy = perf_counter() - start
        reference = []
        for request in distinct:
            reference.append(_reference_ms())
            busy += client.issue(cli, request)
        setup_s.append(busy)
        setup_ref_s.append(busy * REFERENCE_MS / statistics.median(reference))

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        # Each round runs both untraced and traced, alternating which goes
        # first, so both see the same machine speed and caches and their
        # ratio is the tracing overhead.
        recorder = tracing.Recorder()
        plain = traced = 0.0
        done = 0
        gc.collect()
        start = perf_counter()
        # Whole cycles only, so per-round counts repeat exactly across runs.
        while perf_counter() - start < args.seconds:
            for i, rnd in enumerate(rounds):
                if i % 2:
                    plain += sum(client.issue(cli, request) for request in rnd)
                saved = tracing.install(recorder)
                try:
                    traced += sum(client.issue(cli, request, recorder) for request in rnd)
                finally:
                    tracing.uninstall(saved)
                if not i % 2:
                    plain += sum(client.issue(cli, request) for request in rnd)
            done += len(rounds)
        metrics.update(tracing.layer_metrics(recorder, done))
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
        print(f"traced {done} rounds")
    else:
        round_ms: list[float] = []
        reference_ms: list[float] = []
        gc.collect()
        start = perf_counter()
        while len(round_ms) < 2 or perf_counter() - start < args.seconds:
            rnd = rounds[len(round_ms) % len(rounds)]
            reference_ms.append(_reference_ms())
            round_ms.append(1e3 * sum(client.issue(cli, request) for request in rnd))
        scaled = _rescale(round_ms, reference_ms)
        metrics["setup_s"] = (statistics.median(setup_ref_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["round_ref.p50_ms"] = (statistics.median(scaled), "ms")
        metrics["round_ref.p75_ms"] = (_percentile(scaled, 75), "ms")
        print(
            f"set-up wall median {statistics.median(setup_s):.3f} s; "
            f"measured {len(round_ms)} rounds; wall round p50 {statistics.median(round_ms):.1f} ms, "
            f"p90 {_percentile(round_ms, 90):.1f} ms; at reference speed p90 {_percentile(scaled, 90):.1f} ms; "
            f"reference loop median {statistics.median(reference_ms):.3f} ms"
        )

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for error in client.errors:
        print(f"FAILED {error}")
    print(f"requests attempted {client.attempted}, failed {client.failed}")
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "assortplan" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
