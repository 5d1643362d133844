"""Workload definitions: seeded input generation, job lists and output checks.

Every workload is a closed loop of CLI jobs run one after another through
``equicode.cli.run(argv)``.  Inputs are generated from the seed by the
benchmark's own numpy code and written with the program's file writer; the
program only ever sees the generated files.

Checks read the program's outputs independently (numpy Gram matrices from
the written vectors) wherever that is cheap, and compare certificate
verdicts with the lists recorded below.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import combinations

import numpy as np

WORKLOADS = ("construct-write", "certify-read", "reduce-search")

# Instance sizes.  "full" is what the benchmark measures; "small" keeps the
# same job shapes at sizes that finish in well under a second, for the
# self-test.
SIZES = {
    "full": {
        "construct-write": {"ls": (40, 70, 100, 130, 160), "oddrec": (100, 3),
                            "simplex": 100, "concat": (22, 2, 3, 0.5)},
        "certify-read": {"ls": (250, 300), "t": 6},
        "reduce-search": {"unsat": (17, 18), "sat": (200, 8)},
    },
    "small": {
        "construct-write": {"ls": (10, 14), "oddrec": (10, 3),
                            "simplex": 10, "concat": (9, 2, 3, 0.5)},
        "certify-read": {"ls": (20, 24), "t": 6},
        "reduce-search": {"unsat": (8, 9), "sat": (30, 8)},
    },
}

UNSAT_ORDER_SEED = 0      # vertex order of the unsatisfiable reduce inputs
ANGLE_TOL = 1e-9          # the program's default angle_tol
THIRD = 1.0 / 3.0
# 17 significant digits of +-1/3, as a user would paste them.
LS_ANGLE_SET = "point:-0.33333333333333331+point:0.33333333333333331"

# (name, passed, skipped) per certificate, as `certify --suite all` prints
# them at the commit that introduced this benchmark.
VERDICTS_EQUIANGULAR = [
    ("gerzon", True, False), ("negative-clique", False, True),
    ("schnirelman-applied", False, True), ("matching-full-rank", False, True),
    ("multipartite", False, True), ("dgs", True, False),
    ("lambda-inequality", False, True),
]
VERDICTS_REDUCED = [
    ("gerzon", False, True), ("negative-clique", False, True),
    ("schnirelman-applied", True, False), ("matching-full-rank", False, True),
    ("multipartite", False, True), ("dgs", True, False),
    ("lambda-inequality", True, False),
]


# input generation ---------------------------------------------------------


def ls_gram(n: int) -> np.ndarray:
    """Lemmens-Seidel Gram of order 2n-2 in natural vertex order."""
    m = 2 * n - 2
    g = np.full((m, m), THIRD)
    np.fill_diagonal(g, 1.0)
    for b in range(n - 1):
        g[2 * b, 2 * b + 1] = g[2 * b + 1, 2 * b] = -THIRD
    return g


def lines28_vectors() -> np.ndarray:
    rows = []
    for i, j in combinations(range(8), 2):
        v = np.ones(8)
        v[i] = v[j] = -3.0
        rows.append(v / math.sqrt(24.0))
    return np.array(rows)


def embed(gram: np.ndarray, dim: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(gram)
    x = vecs[:, -dim:] * np.sqrt(np.clip(vals[-dim:], 0.0, None))
    return x / np.linalg.norm(x, axis=1)[:, None]


def generate_inputs(cli, workload: str, seed: int, scale: str, in_dir: str) -> dict:
    """Write the workload's input files; return the manifest the jobs need.

    ``cli`` is the program's ``equicode.cli`` module, used only for its
    file writer.  The same seed always gives the same files.
    """
    sizes = SIZES[scale][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = {"workload": workload, "seed": seed, "scale": scale, "files": {}}

    def write_gram(name, n, perm):
        g = ls_gram(n)[np.ix_(perm, perm)]
        path = os.path.join(in_dir, name)
        cli.write_code_file(path, n, gram=g, metadata={"source": "perfbench"})
        manifest["files"][name] = path

    if workload == "construct-write":
        manifest["concat_seed"] = int(rng.integers(0, 2 ** 31 - 64))
    elif workload == "certify-read":
        for n in sizes["ls"]:
            write_gram(f"ls{n}.json", n, rng.permutation(2 * n - 2))
        x = lines28_vectors()[rng.permutation(28)]
        path = os.path.join(in_dir, "lines28.json")
        cli.write_code_file(path, 8, vectors=x, metadata={"source": "perfbench"})
        manifest["files"]["lines28.json"] = path
    elif workload == "reduce-search":
        # Backtracking cost depends on vertex order by up to 4x, so the
        # unsatisfiable instances take one vertex order fixed for all seeds
        # and the seed picks a random rotation of their vectors instead.
        for n in sizes["unsat"]:
            order = np.random.default_rng(UNSAT_ORDER_SEED).permutation(2 * n - 2)
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            x = embed(ls_gram(n)[np.ix_(order, order)], n) @ (q * np.sign(np.diag(r)))
            x /= np.linalg.norm(x, axis=1)[:, None]
            path = os.path.join(in_dir, f"ls{n}.json")
            cli.write_code_file(path, n, vectors=x, metadata={"source": "perfbench"})
            manifest["files"][f"ls{n}.json"] = path
        n, t = sizes["sat"]
        perm = rng.permutation(2 * n - 2)
        write_gram(f"ls{n}.json", n, perm)
        where = np.argsort(perm)
        manifest["clique"] = sorted(int(where[2 * b]) for b in range(t))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return manifest


# job lists ----------------------------------------------------------------


def jobs(manifest: dict, out_dir: str) -> list:
    """One pass of the workload: a list of (argv, expectation) pairs."""
    workload = manifest["workload"]
    sizes = SIZES[manifest["scale"]][workload]
    files = manifest["files"]
    out = lambda name: os.path.join(out_dir, name)  # noqa: E731
    todo = []
    if workload == "construct-write":
        for n in sizes["ls"]:
            todo.append((["construct", "lemmens-seidel", "--n", str(n),
                          "--out", out(f"ls{n}.json")],
                         {"kind": "construct", "file": out(f"ls{n}.json"),
                          "size": 2 * n - 2, "dim": n, "rank": n,
                          "angles": (-THIRD, THIRD)}))
        n, r = sizes["oddrec"]
        blocks = (n - 1) // (r - 1)
        a = 1.0 / (2 * r - 1)
        todo.append((["construct", "odd-reciprocal", "--n", str(n), "--r", str(r),
                      "--out", out("oddrec.json")],
                     {"kind": "construct", "file": out("oddrec.json"),
                      "size": r * blocks, "dim": n, "rank": 1 + blocks * (r - 1),
                      "angles": (-a, a)}))
        r = sizes["simplex"]
        todo.append((["construct", "simplex", "--r", str(r), "--out", out("simplex.json")],
                     {"kind": "construct", "file": out("simplex.json"),
                      "size": r + 1, "dim": r, "rank": r, "angles": (-1.0 / r,)}))
        n, k, r, alpha1 = sizes["concat"]
        todo.append((["construct", "concat", "--n", str(n), "--k", str(k), "--r", str(r),
                      "--alpha1", str(alpha1), "--seed", str(manifest["concat_seed"]),
                      "--out", out("concat.json")],
                     {"kind": "construct", "file": out("concat.json"),
                      "size": math.comb(n, k) * (r + 1), "dim": n + r, "rank": None,
                      "angles": None, "concat": True}))
    elif workload == "certify-read":
        t = sizes["t"]
        ls = [files[f"ls{n}.json"] for n in sizes["ls"]]
        reduced = [out(f"reduced{n}.json") for n in sizes["ls"]]
        for n, src, dst in zip(sizes["ls"], ls, reduced):
            m = 2 * n - 2
            todo.append((["reduce", src, "--t", str(t), "--out", dst],
                         {"kind": "reduce", "file": dst, "t": t, "size": m,
                          "projected": m - 2 * t, "dim": n}))
        for path in ls + [files["lines28.json"]]:
            todo.append((["certify", path, "--suite", "all"],
                         {"kind": "certify", "verdicts": VERDICTS_EQUIANGULAR}))
        for path in reduced:
            todo.append((["certify", path, "--suite", "all"],
                         {"kind": "certify", "verdicts": VERDICTS_REDUCED}))
        for path in ls:
            todo.append((["verify", path, "--L", LS_ANGLE_SET], {"kind": "verify"}))
    elif workload == "reduce-search":
        for n in sizes["unsat"]:
            todo.append((["reduce", files[f"ls{n}.json"], "--t", str(n),
                          "--out", out(f"reduced{n}.json")],
                         {"kind": "noclique"}))
        n, t = sizes["sat"]
        m = 2 * n - 2
        todo.append((["reduce", files[f"ls{n}.json"], "--t", str(t),
                      "--out", out(f"reduced{n}.json")],
                     {"kind": "reduce", "file": out(f"reduced{n}.json"), "t": t,
                      "size": m, "projected": m - 2 * t, "dim": n}))
        clique = manifest["clique"]
        todo.append((["project", files[f"ls{n}.json"],
                      "--clique", ",".join(str(i) for i in clique),
                      "--out", out(f"projected{n}.json")],
                     {"kind": "project", "file": out(f"projected{n}.json"),
                      "size": m - len(clique), "dim": n}))
    return todo


# output checks -------------------------------------------------------------


def _offdiag(x: np.ndarray) -> np.ndarray:
    g = x @ x.T
    return g[np.triu_indices(len(x), k=1)]


def _near_points(values: np.ndarray, points) -> bool:
    dist = np.min(np.abs(values[:, None] - np.asarray(points)[None, :]), axis=1)
    return bool(dist.max(initial=0.0) <= ANGLE_TOL)


def _check_code_doc(doc: dict, size: int, dim: int) -> list:
    errors = []
    x = np.array(doc.get("vectors", []), dtype=float)
    if x.shape != (size, dim) or int(doc.get("dim", -1)) != dim:
        errors.append(f"shape {x.shape} dim {doc.get('dim')}, want ({size}, {dim})")
    elif np.abs(np.linalg.norm(x, axis=1) - 1.0).max() > ANGLE_TOL:
        errors.append("vectors are not unit length")
    if doc.get("metadata", {}).get("size", size) != size:
        errors.append("metadata.size disagrees")
    return errors


def _noncanonical_numbers(raw: bytes) -> list:
    """Number tokens that are neither a plain integer nor a float's 17-digit form.

    The program's canonical JSON writes every float as ``format(x, ".17g")``
    (so 1.0 is ``1`` and -0.0 is ``-0``).  The tokens are taken from the file
    as written, not from a parsed and re-serialized document.
    """
    bad = []

    def integer(text: str) -> None:
        if text != str(int(text)) and text != format(float(text), ".17g"):
            bad.append(text)

    def real(text: str) -> None:
        if text != format(float(text), ".17g"):
            bad.append(text)

    json.loads(raw, parse_int=integer, parse_float=real)
    return bad


def projected_points(alpha: float, t: int) -> tuple:
    """Angle set L(alpha, t) left after projecting off a positive t-clique."""
    eps = 1.0 / (t + 1.0 / alpha)
    sigma = 2.0 * alpha / (1.0 - alpha)
    neg = -sigma * (1.0 - eps) + eps
    return (neg, eps) if neg >= -1.0 else (eps,)


def certificate_verdicts(stdout: str) -> list:
    """(name, passed, skipped) per certificate line of `certify` output."""
    got = []
    for line in stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASS", "FAIL", "SKIP"):
            got.append((rest.split(":")[0], word == "PASS", word == "SKIP"))
    return got


def check_job(expect: dict, rc: int, stdout: str, stderr: str, state: dict) -> list:
    """Errors for one finished job (empty when the output is correct).

    ``state`` maps each output file to the digest and errors of its first
    check, so later passes must reproduce the same bytes and are not
    parsed again.
    """
    kind = expect["kind"]
    if kind == "noclique":
        if rc != 3 or "NoClique" not in stderr:
            return [f"expected exit 3 with NoClique, got {rc}: {stderr.strip()[:200]}"]
        return []
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    if kind == "verify":
        return [] if stdout.rstrip().endswith("PASS") else ["verify did not PASS"]
    if kind == "certify":
        got = certificate_verdicts(stdout)
        want = [tuple(v) for v in expect["verdicts"]]
        return [] if got == want else [f"certificates {got} != recorded {want}"]

    with open(expect["file"], "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    first_digest, first_errors = state.setdefault(expect["file"], (digest, None))
    if first_digest != digest:
        return [f"{os.path.basename(expect['file'])} differs from the first pass"]
    if first_errors is not None:
        return first_errors          # the same bytes were checked before
    doc = json.loads(raw)
    errors = []
    if kind == "construct":
        errors += _check_code_doc(doc, expect["size"], expect["dim"])
        meta = doc.get("metadata", {})
        if expect["rank"] is not None and meta.get("gram_rank") != expect["rank"]:
            errors.append(f"gram_rank {meta.get('gram_rank')} != {expect['rank']}")
        if expect["angles"] is not None and not errors:
            if not _near_points(_offdiag(np.array(doc["vectors"])), expect["angles"]):
                errors.append("inner products leave the construction's angle set")
        if expect.get("concat") and not meta.get("achieved_beta", -2.0) >= meta.get("beta_target", 2.0):
            errors.append("achieved_beta < beta_target")
        bad = _noncanonical_numbers(raw)
        if bad:
            errors.append(f"numbers not in canonical form: {bad[:3]}")
    elif kind == "reduce":
        with open(expect["file"] + ".reduction.json", encoding="utf-8") as fh:
            side = json.load(fh)
        if side.get("accounting_identity") is not True:
            errors.append("accounting identity is false")
        if side.get("accounting", {}).get("size") != expect["size"]:
            errors.append("accounting size disagrees with the input")
        errors += _check_code_doc(doc, expect["projected"], expect["dim"])
        if not errors and not _near_points(_offdiag(np.array(doc["vectors"])),
                                           projected_points(THIRD, expect["t"])):
            errors.append("projected code does not validate against L(alpha, t)")
    elif kind == "project":
        errors += _check_code_doc(doc, expect["size"], expect["dim"])
    state[expect["file"]] = (digest, errors)
    return errors
