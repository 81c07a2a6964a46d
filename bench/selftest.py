"""Self-test of the benchmark at tiny size.

Usage, from the root of a checkout:  python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, with one sample per slot, that each checker flags a
corrupted result and that a run with a wrong result exits nonzero, that
a seed fixes the inputs and every count of the traced run exactly, and
that a second pass draws new inputs.  It runs in about a minute
and lives outside the test suite's collection on purpose: it measures
nothing and only guards the benchmark itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
from workloads import WORKLOADS, check_cli

TINY = {"order_sweep": 20, "sheaf_filtration": 10, "cli_mix": 40, "cli_cold": 10}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKDIR = run.ROOT / ".bench_work" / "selftest"


def tiny_run(name: str, seed: int, trace: int) -> tuple[int, dict, dict]:
    """Exit code, result and info of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
        )
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["info"]


def exact_counts(metrics: dict) -> dict:
    """The traced metrics that are counts, which a seed must reproduce."""
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def check_metrics_and_counts(failures: list[str]) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, info = tiny_run(name, 7, trace)
            if code != 0 or not result["correct"]:
                failures.append(f"{name} trace {trace}: exit {code}, {result}")
            if not trace and (info["samples"], info["executions"] % TINY[name]) != (TINY[name], 0):
                failures.append(f"{name}: {info['executions']} executions are not whole passes")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(wanted))} differ")
            if trace:
                again = exact_counts(tiny_run(name, 7, 1)[1]["metrics"])
                if again != exact_counts(result["metrics"]):
                    failures.append(f"{name}: counts differ between two runs of seed 7")


def check_seeds(failures: list[str]) -> None:
    for name, cls in WORKLOADS.items():
        ng, _ = run.fresh_import()
        runs = [cls(ng, seed, WORKDIR) for seed in (7, 7, 8)]
        prints = [repr(wl.ops) for wl in runs]
        if prints[0] != prints[1]:
            failures.append(f"{name}: seed 7 gave two different input sets")
        if prints[0] == prints[2]:
            failures.append(f"{name}: seeds 7 and 8 gave the same inputs")
        again = repr(runs[0].draw(1))
        if again == prints[0] or again != repr(runs[1].draw(1)):
            failures.append(f"{name}: pass 1 repeats pass 0, or differs between two runs of seed 7")


def corrupt(name: str, result):
    """A copy of `result` with one answer made wrong."""
    if name == "order_sweep":
        return (result[0], (True, False)) + result[2:]
    if name == "sheaf_filtration":
        rows, hn_result, polygon, turned = result
        verdict, phase = rows[0]
        wrong = "Unstable" if verdict != "Unstable" else "Stable"
        return [(wrong, phase)] + rows[1:], hn_result, polygon, turned
    if name == "cli_mix":
        code, out = result
        return code, out[:-2]
    code, out, err = result
    return code, "{" + out, err


def check_checkers(failures: list[str]) -> None:
    for name, cls in WORKLOADS.items():
        ng, _ = run.fresh_import()
        wl = cls(ng, 7, WORKDIR)
        op = next(op for op in wl.ops if not op[-1]) if name.startswith("cli") else wl.ops[0]
        with contextlib.redirect_stderr(io.StringIO()):
            result = wl.run(op)
        if wl.check(op, result):
            failures.append(f"{name}: checker rejects a correct result")
        if not wl.check(op, corrupt(name, result)):
            failures.append(f"{name}: checker accepts a corrupted result")
    if not check_cli(["hn", "x.json"], 1, 0, "{}\n"):
        failures.append("cli: a refused request that succeeded was accepted")

    # a wrong answer inside the timed loop makes the whole run fail
    cls = WORKLOADS["order_sweep"]
    honest = cls.run
    cls.run = lambda self, op: corrupt("order_sweep", honest(self, op))
    try:
        code, result, _ = tiny_run("order_sweep", 7, 0)
    finally:
        cls.run = honest
    if code == 0 or result["correct"] or result["failed"] == 0:
        failures.append(f"a corrupted run exited {code} with {result}")


def main() -> int:
    for name, size in TINY.items():
        WORKLOADS[name].size = size
    failures: list[str] = []
    with contextlib.redirect_stderr(io.StringIO()):
        for check in (check_seeds, check_checkers, check_metrics_and_counts):
            check(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
