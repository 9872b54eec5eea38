"""Benchmark of the affinesg package: seeded workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload {sweep,invariants,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload runs in a closed loop until S
seconds of timed calls have accumulated, and the last line of stdout
reports the end-to-end metrics named in ``BENCHMARK.json``.  With
``--trace 1`` a fixed prefix of the same input stream runs twice, first
plain and then with spans around every layer (see ``spans.py``), and the
last line reports the per-layer metrics.  Every output is checked outside
the timed region; a wrong answer counts as a failed op.  Spans of a
traced run are written to ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "invariants", "queries")
SETUP_REPS = 15
LATENCY_SAMPLES = 100_000  # a uniform sample of this size keeps memory flat in long runs
PROBE_LOOPS = 30_000
# The probe's time on an uncontended core: Intel Xeon at 2.0 GHz, CPython 3.11.7.
REFERENCE_PROBE_S = 0.0052


def measure_setup(version: str) -> float:
    """Median wall time of a fresh ``python -m affinesg --version`` process.

    Each time is scaled to reference machine speed like the workload's
    (see `probe_s`).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    probe = probe_s()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "affinesg", "--version"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != version:
            raise RuntimeError(f"affinesg --version failed: {proc.stderr.strip()}")
        after = probe_s()
        times.append(elapsed * 2 * REFERENCE_PROBE_S / (probe + after))
        probe = after
    return statistics.median(times)


def probe_s() -> float:
    """Time fixed pure Python: the speed the machine gives Python right now.

    On a shared host that speed swings by half for tens of seconds at a
    time, longer than a run.  The probe touches nothing in the package, so
    scaling each unit's times by REFERENCE_PROBE_S over the probes taken
    around it removes most of the swing and leaves every change to the
    package fully visible.  The list walk makes the probe slow down with a
    busy host about as much as the workloads do; an integer loop alone
    slows down less.
    """
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFF
    table = [i * 7 for i in range(PROBE_LOOPS)]
    for v in table[::-1]:
        x += v
    return perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def execute(wl, unit):
    """Run one unit; a raising call is kept as the outcome, not propagated."""
    from workloads import Outcome

    t0 = perf_counter_ns()
    try:
        res = wl.execute(unit)
    except Exception as exc:  # the op failed; its check counts it
        res = Outcome(rc=-1, error=exc, latencies_ns=[perf_counter_ns() - t0])
    return res, perf_counter_ns() - t0


def check(wl, unit, res) -> int:
    if res.error is not None:
        return unit.ops
    try:
        return min(unit.ops, wl.check(unit, res))
    except Exception:  # a malformed output that trips the checker is a wrong output
        return unit.ops


class Block:
    """Ops and timed ns of one stratified block of units, raw and scaled."""

    def __init__(self) -> None:
        self.ops = 0
        self.ns = 0
        self.scaled_ns = 0.0


class LatencySample:
    """A uniform sample of at most LATENCY_SAMPLES latencies, each with its scale.

    Reservoir sampling with a fixed-seed picker: the sample, and so the
    memory the benchmark itself holds, stops growing with the op count.
    """

    def __init__(self) -> None:
        self.ns = array("q")
        self.scale = array("d")
        self.seen = 0
        self._pick = random.Random(0)

    def add(self, scale: float, latencies_ns: list[int]) -> None:
        for x in latencies_ns:
            if len(self.ns) < LATENCY_SAMPLES:
                self.ns.append(x)
                self.scale.append(scale)
            else:
                j = self._pick.randrange(self.seen + 1)
                if j < LATENCY_SAMPLES:
                    self.ns[j] = x
                    self.scale[j] = scale
            self.seen += 1

    def percentiles(self, scaled: bool) -> tuple[float, float]:
        """p50 and p95 in ms."""
        k = self.scale if scaled else [1.0] * len(self.ns)
        latencies = sorted(x * s for x, s in zip(self.ns, k))
        return statistics.median(latencies) / 1e6, percentile(latencies, 0.95) / 1e6


def end_to_end(wl, rng: random.Random, seconds: float, version: str) -> tuple[dict, dict]:
    """Closed loop over whole blocks until ``seconds`` of timed calls.

    Throughput is the median over blocks; latencies pool all samples.
    Both are stated at reference machine speed: each unit's times are
    scaled by REFERENCE_PROBE_S over the mean of the probes taken just
    before and just after it (see `probe_s`).  The raw figures go to the
    info line.
    """
    setup_s = measure_setup(version)
    units = []
    blocks: dict[int, Block] = {}
    sample = LatencySample()
    probes = [probe_s()]
    timed_ns = attempted = failed = 0
    for i, unit in enumerate(wl.units(rng)):
        if unit.block not in blocks:
            if timed_ns >= seconds * 1e9:
                break
            blocks[unit.block] = Block()
        block = blocks[unit.block]
        wl.prepare(unit, i)
        res, elapsed = execute(wl, unit)
        probes.append(probe_s())
        scale = 2 * REFERENCE_PROBE_S / (probes[-2] + probes[-1])
        timed_ns += elapsed
        block.ops += unit.ops
        block.ns += elapsed
        block.scaled_ns += elapsed * scale
        sample.add(scale, res.latencies_ns)
        attempted += unit.ops
        failed += check(wl, unit, res)
        unit.ns = []  # checked; the shape summary does not read the queries
        units.append(unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p95 = sample.percentiles(scaled=True)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(b.ops * 1e9 / b.scaled_ns for b in blocks.values()),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = (statistics.median(b.ops * 1e9 / b.ns for b in blocks.values()), *sample.percentiles(scaled=False))
    kept = len(sample.ns)
    info = {
        "attempted": attempted,
        "failed": failed,
        "units": len(units),
        "blocks": len(blocks),
        "latency_samples": sample.seen,
        "latency_samples_kept": kept,
        "samples_beyond_p95": kept - math.ceil(0.95 * kept),
        "timed_s": timed_ns / 1e9,
        "probe_ms_median": statistics.median(probes) * 1e3,
        "raw": dict(zip(("ops_per_s", "latency_p50_ms", "latency_p95_ms"), raw)),
        "shape": wl.shape(units),
    }
    return metrics, info


def traced(wl, rng: random.Random, n_units: int, trace_file: Path) -> tuple[dict, dict]:
    import spans

    units = list(islice(wl.units(rng), n_units))
    for i, unit in enumerate(units):
        wl.prepare(unit, i)
    plain_ns = sum(execute(wl, unit)[1] for unit in units)

    tracer = spans.Tracer()
    counters = tracer.counters
    results = []
    traced_ns = 0
    tracer.install()
    try:
        for unit in units:
            classes = counters["semigroup.apery_classes"]
            tracer.begin_op(unit.kind)
            res, elapsed = execute(wl, unit)
            tracer.end_op()
            traced_ns += elapsed
            results.append(res)
            counters["bench.stdout_bytes"] += len(res.out)
            if unit.answers:
                counters["bench.answers"] += unit.answers
                counters["bench.query_classes"] += counters["semigroup.apery_classes"] - classes
    finally:
        tracer.uninstall()
    attempted = sum(unit.ops for unit in units)
    failed = sum(check(wl, unit, res) for unit, res in zip(units, results))
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = plain_ns / traced_ns
    tracer.write(trace_file)
    info = {
        "attempted": attempted,
        "failed": failed,
        "units": len(units),
        "spans": len(tracer.start),
        "span_file": str(trace_file.relative_to(ROOT)),
        "shape": wl.shape(units),
    }
    return metrics, info


def run(workload: str, seed: int, seconds: float, trace: bool, trace_units: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import affinesg
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(workload, workdir)
        rng = random.Random(f"{workload}:{seed}")
        if trace:
            trace_file = ROOT / ".bench_trace" / f"{workload}.csv"
            metrics, info = traced(wl, rng, trace_units or wl.trace_units, trace_file)
        else:
            metrics, info = end_to_end(wl, rng, seconds, affinesg.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "info": {"workload": workload, "seed": seed, **info},
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "affinesg" / "__init__.py").is_file():
        print(f"error: no affinesg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affinesg

    if Path(affinesg.__file__).resolve().parent != SRC / "affinesg":
        print(f"error: imported affinesg from {affinesg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


def report(result: dict) -> None:
    """Print the run's details, one line per metric, and the result object last."""
    info = result.pop("info")
    name = info["workload"]
    print(json.dumps(info, sort_keys=True))
    for metric, m in result["metrics"].items():
        print(f"{name:>10}  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:>10}  ops attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
