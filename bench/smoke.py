"""Tiny-run smoke check of the benchmark.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks the
last output line of each run against BENCHMARK.json: exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every end-to-end
metric with its unit when untraced; every per-layer metric with its unit
when traced; finite values. It also checks that BENCHMARK.json declares
exactly the metrics that run.py and tracing.py emit, and that run.py fails
without printing a result in a directory that holds only BENCHMARK.json
and bench/. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != dict(run.END_TO_END):
        fail(f"BENCHMARK.json end_to_end differs from run.END_TO_END: {declared_e2e}")
    if declared_layer != {name: unit for name, unit, _ in tracing.per_layer_names()}:
        fail("BENCHMARK.json per_layer differs from tracing.per_layer_names()")

    for wl in spec["workloads"]:
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            res = last_json(proc.stdout)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{where}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared:
                missing = sorted(set(declared) - set(got))
                fail(f"{where}: metrics differ from BENCHMARK.json; missing {missing}")
            bad = [n for n, m in res["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                fail(f"{where}: non-finite values {bad}")
            print(f"ok   {where}: {len(got)} metrics, {res['attempted']} items")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok   bare directory: exit {proc.returncode} without a result")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
