"""Fast self-test of the benchmark, at the small instance sizes.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload it runs the benchmark
untraced and traced at ``--scale small`` and checks that the last line is
the result object, that every metric named in BENCHMARK.json is emitted
with its unit, and that no job failed.  It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def check_result(proc, wanted: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(wanted):
        problems.append(f"metrics {sorted(result['metrics'])} != {sorted(wanted)}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got} lacks unit {unit} or a value")
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        problems.append(f"failed_ratio {result['failed']}/{result['attempted']} is not 0")
        problems += [line for line in lines if line.startswith("FAILED")][:10]
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(root, "--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--scale", "small")
            problems = check_result(proc, wanted[trace])
            failures += bool(problems)
            print(f"{'ok ' if not problems else 'BAD'} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")

    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", workloads.WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"{'ok ' if refused else 'BAD'} refuses to run without the program source")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
