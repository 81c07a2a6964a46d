"""Benchmark for ngonstab: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports the library afresh from ``src/``, builds the workload's
inputs from the seed and warms the library's lazy caches; it is done
seven times and the median is reported as ``setup_s``.  The measurement
is a closed loop with one client: the next operation starts when the
previous result is back.  Every result is checked outside the timed
region, and any mismatch makes the run fail.

With ``--trace 0`` the loop runs untraced for S seconds and the last
stdout line reports the end-to-end metrics, with times scaled to a fixed
reference speed of the machine (see `Runner.time_scales`).  With
``--trace 1`` blocks of fresh operations are run alternately without
and with the tracer (``tracer.py``) for S seconds, then each layer's
hot function is timed at several sizes; the last line reports the per-layer metrics.  The line
before it is ``{"info": ...}``: run environment, input shares, the tail
percentile used and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from math import ceil
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import ROOT, WORKLOADS, CliCold, staircase

SETUP_REPEATS = 7
MODULES = ("charges", "gamma0", "compat", "sheaves", "hn", "moduli", "cli")
SRC = ROOT / "src"


class _Discard:
    """Swallows what argparse writes to stderr for refused requests."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def fresh_import() -> tuple[types.SimpleNamespace, int]:
    """Import the library from src/ as a new process would; returns its time."""
    for name in [m for m in sys.modules if m == "ngonstab" or m.startswith("ngonstab.")]:
        del sys.modules[name]
    start = time.perf_counter_ns()
    importlib.import_module("ngonstab.cli")
    elapsed = time.perf_counter_ns() - start
    pkg = sys.modules["ngonstab"]
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"error: imported ngonstab from {pkg.__file__}, not from src/")
    ng = types.SimpleNamespace(pkg=pkg, **{m: sys.modules[f"ngonstab.{m}"] for m in MODULES})
    return ng, elapsed


TAILS = {"p90": 0.9, "p99": 0.99}


def tail(latencies: list[int], label: str) -> tuple[int, float]:
    """Nearest-rank percentile `label` and the number of samples beyond it.

    Each workload fixes its tail percentile: the highest of p90, p99 and
    p99.9 with at least ten samples beyond it, for its number of slots
    (none has enough slots for p99.9).
    """
    ordered = sorted(latencies)
    rank = max(1, ceil(TAILS[label] * len(ordered)))
    return len(ordered) - rank, ordered[rank - 1]


# fast-end time of `reference_work` on the 2-CPU machine the benchmark
# was defined on (Python 3.11)
REFERENCE_WORK_US = 320.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y

    def key(self) -> tuple:
        return (self.y > 0, self.x * 7 - self.y)


def reference_work() -> int:
    """Fixed pure-Python work, independent of the library, that gauges how
    fast the machine runs Python code at the moment: small objects, a
    keyed sort, calls and a dict, as in the library's hot paths."""
    points = [_Point(i % 17 - 8, i % 11 - 5) for i in range(300)]
    points.sort(key=_Point.key)
    acc = sum(a.x * b.y - a.y * b.x for a, b in zip(points, points[1:]))
    seen: dict = {}
    for p in points:
        seen[p.x, p.y] = seen.get((p.x, p.y), 0) + 1
    return acc + len(seen)


def reference_times(count: int) -> list[int]:
    """`count` timings of `reference_work`, in ns."""
    times = []
    for _ in range(count):
        start = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - start)
    return times


def time_scale(samples: list[int]) -> float:
    """Reference time over the median of `samples` of `reference_work`: a
    time multiplied by it is the time at the reference speed."""
    return REFERENCE_WORK_US * 1e3 / statistics.median(samples)


class Runner:
    """Runs operations one at a time, timing each and checking its result."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[int] = []
        self.calibrated_at: list[int] = []
        self.next_calibration = 0.0

    def run(self, ops) -> list[int]:
        """Every op of `ops` once, in order; returns their times in ns.

        `reference_work` runs every 20 ms between operations; for each
        operation, `calibrated_at` keeps the index of the latest sample.
        """
        wl = self.workload
        latencies = []
        for op in ops:
            if time.perf_counter() >= self.next_calibration:
                self.calibration += reference_times(1)
                self.next_calibration = time.perf_counter() + 0.02
            self.calibrated_at.append(len(self.calibration) - 1)
            start = time.perf_counter_ns()
            try:
                result = wl.run(op)
                error = None
            except Exception as exc:  # a failure of the library under test
                result, error = None, exc
            latencies.append(time.perf_counter_ns() - start)
            try:
                bad = [f"unexpected {error!r}"] if error else wl.check(op, result)
            except Exception as exc:  # a result the checker cannot even read
                bad = [f"result failed its check with {exc!r}"]
            self.record(bad)
        return latencies

    def time_scales(self) -> list[float]:
        """Per calibration sample: reference time over the local time.

        Other tenants of a shared machine slow everything on it, by up to
        half, for anything from a fraction of a second to minutes; over a
        second the library's code slows in proportion to the reference
        work.  The local time is the median of eleven neighbouring samples
        (about a quarter of a second), and a time multiplied by the factor is the time
        the machine would take at the reference speed.
        """
        cal = self.calibration
        return [time_scale(cal[max(0, i - 5) : i + 6]) for i in range(len(cal))]

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.extend(bad[: max(0, 20 - len(self.problems))])


def _timings(times: list[float], label: str) -> tuple[dict, int]:
    """Throughput, median and tail of per-slot times in ns, and the
    number of samples beyond the tail."""
    beyond, tail_ns = tail(times, label)
    return {
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
    }, beyond


def end_to_end(runner: Runner, workload, seconds: float, info: dict) -> dict:
    """Each slot's median time over the passes of the run, at the
    reference speed.

    Every pass draws new inputs for every slot (`workload.draw`), and a
    new pass starts only while one more of the same length still fits in
    `seconds`, so every pass is whole and each slot gives one sample.
    The median, unlike the best pass, does not drift with the number of
    passes that fit in a run.
    """
    slots = len(workload.ops)
    deadline = time.perf_counter() + seconds
    ops, measured, passes = workload.ops, [], 0
    with contextlib.redirect_stderr(_Discard()):
        while True:
            begun = time.perf_counter()
            if passes:
                ops = None  # let the last pass's inputs go before the next
                ops = workload.draw(passes)
            measured += runner.run(ops)
            passes += 1
            if 2 * time.perf_counter() - begun > deadline:
                break
    scales = runner.time_scales()
    scaled = [t * scales[c] for t, c in zip(measured, runner.calibrated_at)]
    typical = [statistics.median(scaled[j::slots]) for j in range(slots)]
    metrics, beyond = _timings(typical, workload.tail)
    as_measured, _ = _timings(
        [statistics.median(measured[j::slots]) for j in range(slots)], workload.tail
    )
    shares: dict = {}
    for label, t in zip(workload.labels, typical):
        shares[label] = shares.get(label, 0.0) + t / sum(typical)
    info.update(
        executions=len(measured),
        samples=slots,
        passes=passes,
        tail_percentile=workload.tail,
        tail_samples_beyond=beyond,
        fail_ratio=runner.failed / runner.attempted,
        time_share={k: round(v, 4) for k, v in sorted(shares.items())},
        time_scale_median=statistics.median(scales),
        measured={name: value for name, (value, _) in as_measured.items()},
    )
    metrics["ok_ratio"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    return metrics


def _merge_child_reports(reports: list[dict]) -> dict:
    out = {"calls": {}, "self_ns": {}, "errors": {}, "counts": {}, "rigid_cache": [0, 0]}
    for rep in reports:
        for key in ("calls", "self_ns", "errors", "counts"):
            for name, value in rep[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["rigid_cache"][0] += rep["rigid_cache"][0]
        out["rigid_cache"][1] += rep["rigid_cache"][1]
    return out


def traced_passes(runner: Runner, workload, ng, seconds: float, info: dict) -> dict:
    """Alternate untraced and traced passes over blocks of fresh ops.

    Pass p runs the first `workload.block` slots of `workload.draw(p)`,
    untraced for odd p and traced for even p.  Counts come from the first
    traced pass, which follows the same set-up and one untraced pass on
    every run, so they repeat exactly for a seed; self times add up over
    every traced pass.
    """
    tracer = Tracer(ng.pkg)
    plain_ns = traced_ns = plain_ops = traced_ops = 0
    self_ns = dict.fromkeys(LAYERS, 0)
    first = None
    p = 0
    deadline = time.perf_counter() + seconds
    with contextlib.redirect_stderr(_Discard()):
        while True:
            lat = runner.run(workload.draw(p + 1, workload.block))
            plain_ns, plain_ops = plain_ns + sum(lat), plain_ops + len(lat)
            block = workload.draw(p + 2, workload.block)
            p += 2
            if isinstance(workload, CliCold):
                workload.traced, workload.trace_reports = True, []
                lat = runner.run(block)
                workload.traced = False
                report = _merge_child_reports(workload.trace_reports)
            else:
                tracer.install()
                try:
                    lat = runner.run(block)
                finally:
                    tracer.uninstall()
                report = tracer.collect()
                cache = ng.moduli.enumerate_rigid.cache_info()
                report["rigid_cache"] = [cache.hits, cache.misses]
            traced_ns, traced_ops = traced_ns + sum(lat), traced_ops + len(lat)
            for layer in LAYERS:
                self_ns[layer] += report["self_ns"].get(layer, 0)
            if first is None:
                first = report
            if time.perf_counter() >= deadline:
                break
    info.update(plain_ops=plain_ops, traced_ops=traced_ops, block=workload.block)
    total_self = sum(self_ns.values()) or 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / traced_ops / 1e6, "ms/op")
        metrics[f"{layer}.self_share"] = (self_ns[layer] / total_self, "ratio")
        metrics[f"{layer}.errors"] = (first["errors"].get(layer, 0), "count")
    counts = first["counts"]
    scanned = counts.get("sheaves.scanned_verdicts", 0)
    hits, misses = first["rigid_cache"]
    metrics.update(
        {
            "compat.box_points": (counts.get("compat.box_points", 0), "count"),
            "sheaves.interval_bound": (counts.get("sheaves.interval_bound", 0), "count"),
            "sheaves.full_scan_share": (
                counts.get("sheaves.full_scans", 0) / scanned if scanned else 0.0,
                "ratio",
            ),
            "gamma0.partition_nodes": (counts.get("gamma0.partition_nodes", 0), "count"),
            "moduli.rigid_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            ),
            "trace_overhead_ratio": (
                (traced_ops / traced_ns) / (plain_ops / plain_ns),
                "ratio",
            ),
        }
    )
    return metrics


def _time_call(fn, *args) -> tuple[float, object]:
    """Median wall time in ms of up to three calls, stopping after 0.2 s."""
    times = []
    result = None
    while len(times) < 3 and sum(times) < 200.0:
        start = time.perf_counter_ns()
        result = fn(*args)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times), result


def scaling_curves(runner: Runner, ng) -> dict:
    """Each layer's hot function at three or four sizes, tracing off."""
    sh, gamma0, compat = ng.sheaves, ng.gamma0, ng.compat
    metrics = {}
    for k in (250, 500, 1000, 2000):
        prefix = [(k + 1) * t // k for t in range(k)] + [k]
        chain = sh.ChainSheaf(1, k, 0, tuple(prefix[t + 1] - prefix[t] for t in range(k)))
        ms, verdict = _time_call(sh.is_semistable, chain)
        runner.record([] if verdict == "Stable" else [f"balanced chain k={k}: {verdict}"])
        metrics[f"sheaves.chain_verdict_ms.k{k}"] = (ms, "ms")
        metrics[f"sheaves.chain_verdict_intervals.k{k}"] = (k * (k + 1) // 2 - 1, "count")
    for n in (250, 500, 1000):
        band = sh.BandSheaf(n, 1, staircase(n, n + 1), sh.Label.identity(), 1)
        ms, verdict = _time_call(sh.is_semistable, band)
        runner.record([] if verdict == "Stable" else [f"balanced band N={n}: {verdict}"])
        metrics[f"sheaves.band_verdict_ms.N{n}"] = (ms, "ms")
        metrics[f"sheaves.band_verdict_intervals.N{n}"] = (n * (n - 1), "count")
    for n in (30, 60, 120):
        ms, partition = _time_call(gamma0.brute_force_cusp_partition, n)
        orbits = len(set(gamma0.restrict_partition_to_small_slopes(n, partition).values()))
        expected = gamma0.class_count(n)
        runner.record([] if orbits == expected else [f"level {n}: {orbits} orbits, {expected} classes"])
        metrics[f"gamma0.partition_ms.N{n}"] = (ms, "ms")
        metrics[f"gamma0.partition_nodes.N{n}"] = (len(partition.parent), "count")
    matrix = gamma0.Mat2(2, 1, 1, 1)
    for box in (10, 25, 50):
        compat.order_preserved_brute_force(matrix, 2, box)  # fill the box cache
        ms, preserved = _time_call(compat.order_preserved_brute_force, matrix, 2, box)
        runner.record([] if preserved is True else [f"box {box} oracle rejects {matrix}"])
        metrics[f"compat.order_oracle_ms.box{box}"] = (ms, "ms")
        metrics[f"compat.order_oracle_points.box{box}"] = ((2 * box + 1) ** 2 - 1, "count")
    return metrics


def _commit() -> str:
    if not (ROOT / ".git").exists():  # git would look in the directories above
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, workdir: Path) -> int:
    cls = WORKLOADS[args.workload]
    setup_ns, setup_scaled, import_ns = [], [], []
    workload = ng = None
    for _ in range(SETUP_REPEATS):
        workload = ng = None
        gc.collect()
        before = reference_times(6)
        start = time.perf_counter_ns()
        ng, imported = fresh_import()
        workload = cls(ng, args.seed, workdir)
        with contextlib.redirect_stderr(_Discard()):
            workload.warm()
        setup_ns.append(time.perf_counter_ns() - start)
        # the machine's speed just around this set-up
        setup_scaled.append(setup_ns[-1] * time_scale(before + reference_times(5)))
        import_ns.append(imported)
    if isinstance(workload, CliCold):
        workload.import_ns.clear()  # keep only requests from the measurement

    runner = Runner(workload)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "input": workload.properties(),
        "setup_s_each": [round(s / 1e9, 4) for s in setup_ns],
    }
    if args.trace:
        raw = traced_passes(runner, workload, ng, args.seconds, info)
        raw.update(scaling_curves(runner, ng))
        cold = isinstance(workload, CliCold)
        imports = workload.import_ns if cold else import_ns
        raw["cli.import_ms"] = (statistics.median(imports) / 1e6, "ms")
    else:
        raw = end_to_end(runner, workload, args.seconds, info)
        who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
        raw["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
        info["measured_setup_s"] = statistics.median(setup_ns) / 1e9
        raw["setup_s"] = (statistics.median(setup_scaled) / 1e9, "s")
    for problem in runner.problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ngonstab" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
