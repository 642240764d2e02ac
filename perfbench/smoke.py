"""Smoke test of the benchmark harness at reduced problem sizes.

    python3 perfbench/smoke.py

For every workload it checks the result line against BENCHMARK.json
(keys, metric names and units), that the outputs pass their checks, and
that two traced runs give identical counts.  It also runs
``--workload all`` and checks that the benchmark refuses to run, with no
result, in a directory holding only BENCHMARK.json and this directory.
Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args, cwd=ROOT, seconds="1"):
    cmd = [sys.executable, *SPEC["command"][1:], *args, "--seconds", seconds, "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res, declared, where):
    assert set(res) == RESULT_KEYS, f"{where}: keys {sorted(res)}"
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{where}: {res}"
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units, f"{where}: metrics {got} != declared {units}"


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        args = ("--workload", name, "--seed", "3")
        plain = result(run(*args, "--trace", "0"))
        check_result(plain, SPEC["end_to_end"], f"{name} trace 0")
        assert all(v["value"] > 0 for v in plain["metrics"].values()), plain
        traced = [result(run(*args, "--trace", "1")) for _ in range(2)]
        for res in traced:
            check_result(res, SPEC["per_layer"], f"{name} trace 1")
        counts = [{k: v["value"] for k, v in res["metrics"].items()
                   if "count" in v["unit"] or v["unit"] == "B/op"} for res in traced]
        assert counts[0] == counts[1], f"{name}: counts differ {counts}"
        print(f"ok {name}: results match BENCHMARK.json, {len(counts[0])} counts repeat")

    proc = run("--workload", "all", "--seed", "3")
    assert proc.returncode == 0 and result(proc)["correct"], proc.stdout[-2000:]
    assert "trace.overhead_ops_per_s" in proc.stdout
    print("ok all: every workload untraced and traced, overhead reported")

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", SPEC["workloads"][0]["name"], "--seed", "3", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok bare directory: exit code", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
