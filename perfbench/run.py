"""Benchmark of the equicode CLI: one workload per invocation.

    python3 perfbench/run.py --workload construct-write --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop: one client runs the workload's CLI jobs one
after another through ``equicode.cli.run(argv)``, in a fresh Python process
with one BLAS thread (never more than the usable CPUs).

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
in seconds at reference speed: a shared host can change speed by up to 1.7x
for seconds to minutes at a time, for every process alike, so each job's
time is scaled by the host speed that a fixed reference computation sharing
no code with the program (``worker.reference_s``) shows between the jobs of
its pass, in the same process, and each job's median over at least three
passes is taken (see ``job_s``).  Raw job and reference times are kept in
the run record.  ``--trace 1`` runs two
processes at the same seed that alternate untraced and traced passes,
reports per-layer metrics from the traced passes, requires their exact
counts to repeat, and compares traced with untraced passes for the tracing
overhead.  Every job's output is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A per-run record
(environment, per-pass numbers) is written to ``.perfbench_out/``.
Benchmark errors (no program source, a timeout, counts that do not repeat,
a per-layer metric that ``predictions.json`` says must read 0 and does not)
exit with code 1 and print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "output_mb": "MB"}
SETUP_REPEATS = 5
# The reference computation's usual time on the 2-vCPU Xeon host the bounds
# were set on; it only sets the scale of the reported seconds.
REF_S = 0.010
BLAS_THREADS = 1
DEADLINE_S = 170.0        # the whole run, set-up included
EXACT_COUNTS = tuple(tracer.CALLS) + tracer.EXACT_COUNTERS


class BenchmarkError(Exception):
    pass


def child_env(root: str, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EQUICODE_TOL"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.nproc = len(os.sched_getaffinity(0))
        # One client and matrices of order at most 600: a second BLAS thread
        # buys little and exposes every call to contention on a second CPU.
        self.env = child_env(root, min(BLAS_THREADS, self.nproc))
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(root, ".perfbench_out",
                                 f"work-{args.workload}-{args.seed}-{os.getpid()}")

    def worker(self, mode: str, *extra: str) -> float:
        """Run one worker process to completion; return its wall seconds."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scale", self.args.scale, "--dir", self.work, *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("out of time before starting a worker")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=left,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker {mode} exceeded the run deadline") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {mode} exited {proc.returncode}:\n"
                                 f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
        return elapsed

    def setup(self) -> list:
        """(wall seconds, reference seconds) of each set-up process."""
        runs, digests = [], None
        for _ in range(SETUP_REPEATS):
            elapsed = self.worker("setup")
            with open(os.path.join(self.work, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            if digests is not None and manifest["digests"] != digests:
                raise BenchmarkError("the same seed generated different inputs")
            digests = manifest["digests"]
            runs.append((elapsed, manifest["reference_s"]))
        return runs

    def measure(self, tag: str, seconds: float, traced: bool) -> dict:
        result = os.path.join(self.work, f"{tag}.json")
        extra = ["--seconds", repr(seconds), "--result", result]
        if traced:
            spans = os.path.join(self.root, ".perfbench_out",
                                 f"spans-{self.args.workload}-{self.args.seed}-{tag}.json")
            extra += ["--spans", spans]
        self.worker("measure", *extra)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def job_s(passes: list) -> list:
    """Each job's median time across the passes, at reference speed.

    A pass's host speed is the mean of ``REF_S / t`` over the reference runs
    of the pass, one before each job and one after the last, in the same
    process on the same CPU.  The host can change speed several times
    during one job, so the whole pass estimates its speed better than the
    runs next to the job do.
    """
    scaled = []
    for p in passes:
        speed = statistics.mean(REF_S / t for t in p["reference_s"])
        scaled.append([t * speed for t in p["job_s"]])
    return [statistics.median(times) for times in zip(*scaled)]


def end_to_end(setup_runs: list, res: dict) -> dict:
    passes = res["passes"]
    jobs = job_s(passes)
    return {
        "wall_s": sum(jobs),
        "slowest_job_s": max(jobs),
        # the set-up process's own reference runs are not set-up work
        "setup_s": statistics.median(REF_S * (elapsed - sum(refs)) / statistics.median(refs)
                                     for elapsed, refs in setup_runs),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "output_mb": statistics.median(p["output_bytes"] for p in passes) / 1e6,
    }


def per_layer(runs: list) -> dict:
    """Medians over the traced passes; the exact counts must repeat run to run."""
    traced = [[p for p in res["passes"] if p["traced"]] for res in runs]
    first = [passes[0]["layers"] for passes in traced]
    for name in EXACT_COUNTS:
        values = {layers[name] for layers in first}
        if len(values) != 1:
            raise BenchmarkError(f"{name} differs between two traced runs: {sorted(values)}")
    layers = [p["layers"] for passes in traced for p in passes]
    out = {name: (statistics.median if tracer.UNITS[name] in ("s", "ratio")
                  else statistics.median_low)(p[name] for p in layers)
           for name in layers[0]}
    plain = [p for res in runs for p in res["passes"] if not p["traced"]]
    out["trace.overhead_ratio"] = sum(job_s(sum(traced, []))) / sum(job_s(plain)) - 1.0
    return out


def broken_zero_predictions(workload: str, metrics: dict) -> list:
    """Per-layer metrics that predictions.json says must read 0 here, but do not."""
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    return [f"{p['layer']} reads {metrics[p['layer']]} on {workload}, predicted 0"
            for p in predictions if workload in p.get("zero", ()) and metrics[p["layer"]]]


def git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "equicode", "cli.py")):
        print("perfbench: no program source at src/equicode; run from the repository root",
              file=sys.stderr)
        return 1
    runner = Runner(args, root)
    load_start = os.getloadavg()
    os.makedirs(runner.work)
    try:
        setup_runs = runner.setup()
        if args.trace:
            runs = [runner.measure(tag, args.seconds / 2, traced=True) for tag in ("a", "b")]
            metrics = per_layer(runs)
            units = tracer.UNITS
            broken = broken_zero_predictions(args.workload, metrics)
            if broken:
                raise BenchmarkError("the workload no longer bypasses what predictions.json "
                                     "says it must:\n" + "\n".join(broken))
        else:
            runs = [runner.measure("plain", args.seconds, traced=False)]
            metrics = end_to_end(setup_runs, runs[0])
            units = END_TO_END
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    passes = [p for res in runs for p in res["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = dict(runs[0]["env"], commit=git_commit(root), seed=args.seed,
               workload=args.workload, scale=args.scale, nproc=runner.nproc,
               passes=[len(res["passes"]) for res in runs],
               setup_runs=setup_runs, loadavg_start=load_start,
               reference_ms=1000 * statistics.median(r for p in passes for r in p["reference_s"]),
               loadavg_end=os.getloadavg())
    seen = Counter((" ".join(e["argv"]).replace(runner.work + os.sep, ""), e["error"])
                   for p in passes for e in p["errors"])
    for (argv, error), count in seen.items():
        print(f"FAILED {argv}: {error} (in {count} passes)")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"failed_ratio {failed / attempted} ratio")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(os.path.join(root, ".perfbench_out",
                           f"BENCH_{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(record, env=env, passes=passes), fh, indent=1)
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="instance sizes; 'small' is for the self-test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
