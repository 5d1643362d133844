"""Child process of the benchmark: generate a workload's inputs, or measure it.

    worker.py setup   --workload W --seed N --scale full --dir D
    worker.py measure --workload W --seed N --scale full --dir D --seconds S
                      --result R.json [--spans SPANS.json]

``setup`` imports the program and writes the seeded inputs and a manifest,
with timings of the reference computation, into ``D``.  ``measure`` runs
passes of the workload's job list, one job after another through
``equicode.cli.run(argv)``, while the timed jobs fit
in ``S`` seconds (at least three passes, or two when traced); it checks
every job's output and writes per-pass timings, output bytes, check
failures and, when ``--spans`` is given, per-layer metrics of every second
pass (traced) to ``R.json`` and the spans to ``SPANS.json``.  The
program is imported from ``src/`` of the current directory, never from
anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import time
import traceback
from fractions import Fraction

import numpy as np

import workloads

SETUP_REFERENCES = 5
_REF_MATRIX = np.random.default_rng(0).standard_normal((150, 150))
_REF_MATRIX += _REF_MATRIX.T
_REF_FLOATS = np.random.default_rng(1).standard_normal(5000).tolist()


def reference_s() -> float:
    """Seconds taken by a fixed computation that shares no code with the program.

    It mixes what the program spends its time on: interpreted loops over a
    dict, rational arithmetic, a small symmetric eigendecomposition and float
    formatting.  Timed between the jobs of each pass, in the same process and
    on the same CPU, it gives the host's speed at that moment (see run.py).
    The collector is off so that garbage the program left cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(20000):
            table[i % 977] = table.get(i % 977, 0) + i
            acc += (i * i) % 7
        total = Fraction(0)
        for i in range(1, 150):
            total += Fraction(1, i)
        np.linalg.eigh(_REF_MATRIX)
        ",".join(repr(x) for x in _REF_FLOATS)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _import_program():
    import equicode
    import equicode.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "equicode"))
    if os.path.dirname(os.path.realpath(equicode.__file__)) != src:
        raise SystemExit(f"equicode was imported from {equicode.__file__}, not {src}")
    return equicode.cli


def setup(args) -> None:
    cli = _import_program()
    in_dir = os.path.join(args.dir, "inputs")
    shutil.rmtree(in_dir, ignore_errors=True)
    os.makedirs(in_dir)
    manifest = workloads.generate_inputs(cli, args.workload, args.seed, args.scale, in_dir)
    digests = {}
    for name, path in sorted(manifest["files"].items()):
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest["digests"] = digests
    manifest["reference_s"] = [reference_s() for _ in range(SETUP_REFERENCES)]
    with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def _run_job(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception:  # a crash is a failed job, reported with its traceback
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def _applied_ratio(todo, ran) -> float:
    """Certificates that gave a verdict (not SKIP) over certificates attempted."""
    verdicts = [v for (_, expect), r in zip(todo, ran) if expect["kind"] == "certify"
                for v in workloads.certificate_verdicts(r[2])]
    return sum(not skipped for _, _, skipped in verdicts) / len(verdicts) if verdicts else 0.0


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def measure(args) -> None:
    cli = _import_program()
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = os.path.join(args.dir, "out-" + os.path.basename(args.result).split(".")[0])
    # Untraced processes run at least three passes and the metrics take each
    # job's median across passes, so a first-touch cost of the fresh process
    # (library pages, allocator arenas) moves no metric.  Traced processes alternate
    # untraced and traced passes, starting untraced, which gives the tracing
    # overhead.  Passes are pinned to the usable CPUs in turn (an untraced
    # and a traced pass share one), so that each job and the reference
    # computations timed around it run on the same CPU.
    min_passes = 2 if tracer is not None else 3
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = 2 if tracer is not None else 1
    state, passes, measured = {}, [], 0.0
    while len(passes) < min_passes or measured + sum(passes[-1]["job_s"]) <= args.seconds:
        os.sched_setaffinity(0, {cpus[len(passes) // per_cpu % len(cpus)]})
        os.makedirs(out_dir)
        todo = workloads.jobs(manifest, out_dir)
        traced = tracer is not None and len(passes) % 2 == 1
        ran, refs = [], []
        if traced:
            tracer.reset()
            tracer.enabled = True
        for index, (argv, _) in enumerate(todo):
            if traced:
                tracer.job = f"{len(passes)}:{index}"
            refs.append(reference_s())
            ran.append(_run_job(cli, argv))
        refs.append(reference_s())
        if not passes:
            # before any output check, whose parsing would raise the watermark
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {"traced": traced}
        if traced:
            tracer.enabled = False
            record["layers"] = tracer.layer_metrics()
            record["layers"]["bounds.cert_applied_ratio"] = _applied_ratio(todo, ran)
        record["job_s"] = [r[0] for r in ran]
        record["reference_s"] = refs
        record["output_bytes"] = _dir_bytes(out_dir) + sum(len(r[2].encode("utf-8")) for r in ran)
        record["errors"] = []
        for (argv, expect), (_, rc, stdout, stderr) in zip(todo, ran):
            for error in workloads.check_job(expect, rc, stdout, stderr, state):
                record["errors"].append({"argv": argv, "error": error})
        record["failed"] = len({tuple(e["argv"]) for e in record["errors"]})
        record["attempted"] = len(todo)
        shutil.rmtree(out_dir)
        measured += sum(record["job_s"])
        passes.append(record)
    if tracer is not None:
        tracer.write_spans(args.spans)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result = {
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "equicode_tol_unset": "EQUICODE_TOL" not in os.environ},
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "measure"):
        sub = modes.add_parser(mode)
        sub.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--scale", choices=tuple(workloads.SIZES), required=True)
        sub.add_argument("--dir", required=True)
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--result", required=True)
    sub.add_argument("--spans", help="trace every second pass; write the spans here")
    args = parser.parse_args(argv)
    (setup if args.mode == "setup" else measure)(args)


if __name__ == "__main__":
    main()
