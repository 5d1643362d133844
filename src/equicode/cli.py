"""Command-line surface: construct, verify, certify, project, reduce.

Files are written in a canonical JSON form: fixed key order, floats at 17
significant digits, no whitespace.  Writing, reading, and re-writing a file
reproduces identical bytes, so every certificate is reproducible from the
file alone.  ``canonical_json`` is the one entry point for files; it hands
every 1-D and 2-D float array to ``_format_floats``, the one float-array
writer.  It formats each distinct value of a few-valued array once, through
a token memo, and the rest of an array whose values stop repeating with one
``"%.17g"`` row template; either way every token is ``format(x, ".17g")``.
The ``--gram-csv`` rows, the ``angles:`` line of ``construct`` and the
tokens of ``angle_set_spec`` use the same writer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bounds import (
    dgs_bound_check,
    gerzon_certificate,
    matching_full_rank_certificate,
    multipartite_certificate,
    negative_clique_certificate,
    schnirelman_applied_certificate,
)
from .certificate import Certificate
from .codes import (
    AngleSet,
    Code,
    _pairs,
    project_off_clique,
    validate_code,
)
from .constructions import (
    ConcatParams,
    binary_kcode,
    concatenated_code,
    lemmens_seidel_code,
    odd_reciprocal_code,
    regular_simplex,
    seven_dim_28_lines,
)
from .errors import EquicodeError, InvalidIndex, InvalidMatrix, InvalidParams, TooLarge
from .graphlab import lambda_inequality_check, reduction_pipeline
from .matcore import DEFAULT_TOL, SymMatrix, Tolerance, gram_rank

GRAM_CSV_HEADER = "# equicode gram v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


# canonical JSON ---------------------------------------------------------


_TOKEN_MEMO_CAP = 4096


class _TooManyTokens(Exception):
    """An array or file holds more distinct numbers than a memo keeps.  Not a
    ValueError: if it ever escaped, ``run`` must not report it as a refused
    file."""


class _TokenMemo(dict):
    """``parse(key)`` keyed by ``key``, so a few-distance Gram or a zero-heavy
    vectors file converts each repeated number once, a C-level dict hit after
    the first.  The reader keeps one for integer tokens, parsed by
    ``_json_int`` (so ``-0`` never meets ``0``), and one for float tokens,
    parsed by json's own ``float``, so values keep their bits.  The writer
    keeps one per array, keyed by value, whose ``parse`` is the ``"%.17g"``
    formatter.  Past _TOKEN_MEMO_CAP keys it raises _TooManyTokens: the
    reader parses the text again plainly (the same scanner, so malformed
    text fails alike), and the writer formats the rest of its array by row
    template."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        if len(self) >= _TOKEN_MEMO_CAP:
            raise _TooManyTokens
        value = self[key] = self.parse(key)
        return value


def _float_token(x: float) -> str:
    return _format_floats(np.array([x], dtype=float), open_="", close="")[0]


def _format_floats(a: np.ndarray, sep: str = ",", open_: str = "[",
                   close: str = "]") -> list:
    """Each row of a finite 1-D or 2-D float array as text; 1-D is one row.

    Every token is ``"%.17g" % x``, i.e. ``format(x, ".17g")``.  Rows are
    first joined from a ``_TokenMemo`` keyed by value, so a few-valued array
    (a few-distance Gram, zero-heavy vectors) formats each distinct value
    once.  After the first row that leaves the memo holding more than half
    the tokens seen so far, or once the memo is full, the rows built are
    kept and the rest are formatted by one template of ``"%.17g"`` fields
    per row: an all-distinct array pays for one memoised row.  A dict takes
    -0.0 for 0.0, so an array holding -0.0 takes the template throughout.
    """
    if not np.isfinite(a).all():
        raise InvalidParams("cannot serialize non-finite numbers")
    values = (a.reshape(1, -1) if a.ndim == 1 else a).tolist()
    rows = []
    if not np.signbit(a[a == 0]).any():
        memo = _TokenMemo("%.17g".__mod__)
        seen = 0
        try:
            for row in values:
                rows.append(open_ + sep.join(map(memo.__getitem__, row)) + close)
                seen += len(row)
                if 2 * len(memo) > seen:
                    break
        except _TooManyTokens:
            pass
    template = open_ + sep.join(["%.17g"] * a.shape[-1]) + close
    rows += [template % tuple(row) for row in values[len(rows):]]
    return rows


def canonical_json(obj) -> str:
    """Serialize with deterministic bytes; floats carry 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_token(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim in (1, 2):
            rows = _format_floats(obj)
            return rows[0] if obj.ndim == 1 else "[" + ",".join(rows) + "]"
        return canonical_json(obj.tolist())
    raise InvalidParams(f"cannot serialize {type(obj).__name__}")


def _float_rows(rows, may_hold_bools: bool) -> np.ndarray:
    """The vectors/gram rows of a code file as a 2-D float array.

    InvalidParams unless the rows are equally long and every entry is a
    number.  Numpy's dtype inference, in the one pass that converts, turns
    strings, nulls, objects, nested lists and integers wider than 64 bits
    into a non-numeric array.  It does turn true/false into 1/0 silently,
    so with ``may_hold_bools`` the entries equal to 0 or 1 are looked up.
    """
    try:
        arr = np.asarray(rows)
    except ValueError as exc:
        raise InvalidParams("vectors/gram must be a rectangular array of numbers") from exc
    if arr.shape == (0,):
        arr = arr.reshape(0, 0)  # no rows at all
    if arr.ndim != 2:
        raise InvalidParams("vectors/gram must be a list of rows")
    numeric = arr.dtype.kind in "iuf"
    if numeric and may_hold_bools:
        i, j = np.nonzero((arr == 0) | (arr == 1))
        numeric = not any(type(rows[a][b]) is bool for a, b in zip(i.tolist(), j.tolist()))
    if not numeric:
        raise InvalidParams("vectors/gram entries must be JSON numbers "
                            "(integers of at most 64 bits)")
    return arr.astype(float, copy=False)


def write_code_file(path: str, dim: int, vectors=None, gram=None,
                    metadata: Optional[dict] = None) -> None:
    if (vectors is None) == (gram is None):
        raise InvalidParams("exactly one of vectors/gram must be given")
    key, rows = ("vectors", vectors) if vectors is not None else ("gram", gram)
    rows = _float_rows(rows, may_hold_bools=not isinstance(rows, np.ndarray))
    rewrite_code_file(path, {"format_version": "1", "dim": int(dim), key: rows,
                             "metadata": metadata or {}})


def _json_int(token: str):
    """Integer token of a code file; ``-0`` is how the writer spells -0.0."""
    return -0.0 if token == "-0" else int(token)


def _mentions(text: str, word: str) -> bool:
    """``word in text`` by a memchr scan for its first letter, t or f, which no
    JSON number holds: ~40x faster than ``in`` on rows of numbers."""
    i = text.find(word[0])
    while i != -1:
        if text.startswith(word, i):
            return True
        i = text.find(word[0], i + 1)
    return False


def read_code_file(path: str) -> dict:
    """The parsed code file, its vectors/gram rows as a float array."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_int=_TokenMemo(_json_int).__getitem__,
                         parse_float=_TokenMemo(float).__getitem__)
    except _TooManyTokens:  # mostly distinct numbers (vectors, reduced files)
        doc = json.loads(text, parse_int=_json_int)
    if not isinstance(doc, dict):
        raise InvalidParams("a code file holds one JSON object")
    if doc.get("format_version") != "1":
        raise InvalidParams("unsupported or missing format_version")
    if type(doc.get("dim")) is not int or doc["dim"] < 1:
        raise InvalidParams("dim must be a positive integer")
    if ("vectors" in doc) == ("gram" in doc):
        raise InvalidParams("file must carry exactly one of vectors/gram")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("parameters", {}), dict):
        raise InvalidParams("metadata and its parameters must be JSON objects")
    key = "vectors" if "vectors" in doc else "gram"
    bools = _mentions(text, "true") or _mentions(text, "false")  # JSON's spellings
    doc[key] = _float_rows(doc[key], may_hold_bools=bools)
    if doc[key].size == 0:
        raise InvalidParams("vectors/gram must hold at least one number")
    if not np.all(np.isfinite(doc[key])):  # json reads NaN and Infinity
        raise InvalidParams("vectors/gram entries must be finite")
    return doc


def rewrite_code_file(path: str, doc: dict) -> None:
    """Write a code file, report or sidecar canonically (byte-stable round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


def load_code(path: str, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Code from a file and the parsed document, whose rows move into the code.

    A Gram-only file's Gram is the code's one Gram, and the code has no
    vectors: ``SymMatrix`` checks it square and symmetric, and one
    values-only spectrum certifies it and gives its rank (``gram_rank``),
    which must not exceed the file's ``dim``, the code's.
    """
    doc = read_code_file(path)
    if "vectors" in doc:
        if doc["vectors"].shape[1] != doc["dim"]:
            raise InvalidParams("vector length disagrees with dim")
        return Code(doc.pop("vectors"), tol), doc
    M = SymMatrix(doc.pop("gram"))
    rank = gram_rank(M, tol)
    if rank > doc["dim"]:
        raise InvalidParams(f"embedding needs {rank} > {doc['dim']} dimensions")
    return Code.from_gram(M, doc["dim"], tol, rank), doc


def write_gram_csv(path: str, code: Code) -> None:
    g = code.gram.as_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(GRAM_CSV_HEADER + "\n")
        fh.writelines(_format_floats(g, open_="", close="\n"))


def write_report(path: Optional[str], certificates: Sequence[Certificate],
                 tol: Tolerance) -> dict:
    doc = {
        "format_version": "1",
        "artifact_version": __version__,
        "tolerances": asdict(tol),
        "certificates": [c.to_dict() for c in certificates],
    }
    if path:
        rewrite_code_file(path, doc)
    return doc


# angle-set grammar ------------------------------------------------------


def parse_angle_set(spec: str, tol: float) -> AngleSet:
    """Parse 'interval:lo,hi' and 'point:x' terms joined by '+'."""
    intervals, points = [], []
    for term in spec.split("+"):
        term = term.strip()
        kind, _, body = term.partition(":")
        values = [_parsed(float, x, f"angle-set term {term!r}") for x in body.split(",")]
        if kind == "interval" and len(values) == 2:
            intervals.append(tuple(values))
        elif kind == "point" and len(values) == 1:
            points.append(values[0])
        else:
            raise InvalidParams(f"cannot parse angle-set term {term!r}")
    return AngleSet(intervals=tuple(intervals), points=tuple(points), tol=tol)


def angle_set_spec(aset: AngleSet) -> str:
    """The ``--L`` text of an angle set, points first: ``parse_angle_set`` of it
    gives back the same set bit for bit, since every token is ``_float_token``.

    Elements lie in [-1, 1), so no token has an exponent with a '+' sign.
    """
    terms = [f"point:{_float_token(p)}" for p in aset.points]
    terms += [f"interval:{_float_token(lo)},{_float_token(hi)}" for lo, hi in aset.intervals]
    return "+".join(terms)


def tolerance_from_env() -> Tolerance:
    """DEFAULT_TOL with EQUICODE_TOL applied: one float (sets angle_tol) or 'k=v' pairs."""
    raw = os.environ.get("EQUICODE_TOL")
    if not raw:
        return DEFAULT_TOL
    fields = asdict(DEFAULT_TOL)
    if "=" in raw:
        for piece in raw.split(","):
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in fields:
                raise InvalidParams(f"unknown tolerance field {key!r}")
            fields[key] = _parsed(float, value, f"EQUICODE_TOL {key} value {value!r}")
    else:
        fields["angle_tol"] = _parsed(float, raw, f"EQUICODE_TOL value {raw!r}")
    return Tolerance(**fields)


def _parsed(parse, text: str, term: str):
    """``parse(text)``; InvalidParams naming ``term`` if that raises ValueError."""
    try:
        return parse(text)
    except ValueError:
        raise InvalidParams(f"cannot parse {term}") from None


# subcommands ------------------------------------------------------------


def _write_code(path: str, code: Code, construction: str, parameters: dict,
                seed=None, angles: Optional[AngleSet] = None, **extra) -> str:
    """Write a produced code's vectors file; returns its angles as text.

    The metadata is construction, parameters, seed, the ``extra`` keys, size
    and angles.  A declared angle set is written in the ``--L`` grammar; else
    the detected points are (none for a single vector).
    """
    if angles is not None:
        written = text = angle_set_spec(angles)
    else:
        written = np.array(code.angles.points) if len(code) > 1 else np.empty(0)
        text = _format_floats(written, ", ", "", "")[0] or "n/a"
    metadata = {"construction": construction, "parameters": parameters, "seed": seed,
                **extra, "size": len(code), "angles": written}
    write_code_file(path, code.dim, vectors=code.vectors, metadata=metadata)
    return text


def _with_rank(code: Code) -> tuple:
    return code, {"gram_rank": code.rank}


def _build_concat(args, tol) -> tuple:
    params = ConcatParams(args.n, args.k, args.r, args.alpha1,
                          args.seed if args.seed is not None else 0)
    code, achieved_beta, report = concatenated_code(params, tol=tol)
    return code, {"seed": params.seed, "achieved_beta": achieved_beta,
                  "beta_target": params.beta_target, "attempts": report.attempts,
                  "attempt_seed": report.attempt_seed,
                  "copy_seeds": [list(s) for s in report.copy_seeds],
                  "angles": params.angle_set(achieved_beta, tol.angle_tol)}


# name -> (required parameters, builder (args, tol) returning (code, extra
# metadata)); a construction that declares its angle set returns it as
# extra "angles", the others have theirs detected
CONSTRUCTIONS = {
    "lemmens-seidel": (("n",), lambda a, tol: _with_rank(lemmens_seidel_code(a.n))),
    "odd-reciprocal": (("n", "r"), lambda a, tol: _with_rank(odd_reciprocal_code(a.n, a.r))),
    "lines28": ((), lambda a, tol: _with_rank(seven_dim_28_lines())),
    "simplex": (("r",), lambda a, tol: _with_rank(regular_simplex(a.r))),
    "binary-kcode": (("n", "k"), lambda a, tol: (binary_kcode(a.n, a.k), {})),
    "concat": (("n", "k", "r", "alpha1"), _build_concat),
}


def _refuse_same_file(flag: str, path: Optional[str], other: str, other_path: str) -> None:
    """InvalidParams if ``path``, given by ``flag``, resolves to ``other_path``,
    the file ``other`` names: writing ``path`` would destroy that file.  Each
    command calls it before it writes anything."""
    if path and os.path.realpath(path) == os.path.realpath(other_path):
        raise InvalidParams(f"{flag} and {other} name the same file {other_path!r}")


def cmd_construct(args, tol: Tolerance) -> int:
    _refuse_same_file("--gram-csv", args.gram_csv, "--out", args.out)
    name = args.name
    fields, build = CONSTRUCTIONS[name]
    for field in fields:
        if getattr(args, field) is None:
            raise InvalidParams(f"construction requires --{field}")
    code, extra = build(args, tol)
    code = Code(code.vectors, tol, gram=code._gram)  # checked at the run's tolerance
    if args.gram_csv:
        write_gram_csv(args.gram_csv, code)
    angles = _write_code(args.out, code, name,  # concat's extra holds the seed it ran at
                         {field: getattr(args, field) for field in fields}, **extra)
    print(f"{name}: {len(code)} vectors in R^{code.dim} -> {args.out}")
    print("angles: " + angles)
    return EXIT_OK


def cmd_verify(args, tol: Tolerance) -> int:
    _refuse_same_file("--report", args.report, "the input", args.file)
    code = load_code(args.file, tol)[0]
    aset = parse_angle_set(args.L, tol.angle_tol)
    if aset.covers_all():
        raise InvalidParams(f"the angle set widened by angle_tol {tol.angle_tol:g} "
                            "covers [-1, 1], so every code would pass")
    report = validate_code(code, aset)
    for label, count in sorted(report.histogram.items()):
        print(f"matched {label}: {count} pairs")
    for i, j, value, dist in report.violations[:20]:
        print(f"violation ({i},{j}): value {_float_token(value)} "
              f"distance {_float_token(dist)}")
    extra = len(report.violations) - 20
    if extra > 0:
        print(f"... and {extra} more violations")
    cert = Certificate(
        name="validate", statement="every pair lies in the angle set",
        passed=report.passed, lhs=len(report.violations), rhs=0, tol=0.0,
        witness={"histogram": dict(sorted(report.histogram.items()))})
    write_report(args.report, [cert], tol)
    print("PASS" if report.passed else f"FAIL ({len(report.violations)} violations)")
    return EXIT_OK if report.passed else EXIT_FAIL


def _parse_parts(raw: str) -> list:
    return [_parsed(_part, p.strip(), f"part {p.strip()!r}") for p in raw.split(";")]


def _part(piece: str) -> Sequence[int]:
    """Indices of one part: 'lo-hi' as a range, or comma-separated."""
    if "-" in piece:
        lo, hi = piece.split("-")
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in piece.split(",") if x]


def _concat_parts(p: dict, size: int) -> Optional[list]:
    """The copies that a concat file's parameters ``p`` give, as at most size + 1
    ranges of C(n, k) indices; None if ``p`` gives none.  Since C(n, k) >= n for
    0 < k < n, an n above ``size`` gives copies of size + 1 indices instead:
    more could not fit the code either."""
    try:
        n, k = int(p["n"]), int(p["k"])
        block = size + 1 if n > size and 0 < k < n else math.comb(n, k)
        copies = min(int(p["r"]) + 1, size + 1)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return [range(c * block, (c + 1) * block) for c in range(copies)]


def _attempt(name: str, certify, *args) -> Certificate:
    """The certificate, or a skip naming the error that made it inapplicable."""
    try:
        return certify(*args)
    except EquicodeError as exc:
        return Certificate.skip(name, f"{type(exc).__name__}: {exc}")


def _certify_negclique(code, doc, args) -> Certificate:
    alpha = args.alpha
    if alpha is None:
        alpha = -float(_pairs(code)[1].max()) if len(code) > 1 else 1.0
        if alpha <= 0:
            return Certificate.skip("negative-clique", "code has an inner product >= 0")
    return _attempt("negative-clique", negative_clique_certificate, code, alpha)


def _certify_multipartite(code, doc, args) -> Certificate:
    meta = doc.get("metadata", {})
    concat = meta.get("parameters", {}) if meta.get("construction") == "concat" else {}
    parts = _parse_parts(args.parts) if args.parts else _concat_parts(concat, len(code))
    alpha = concat.get("alpha1") if args.alpha is None else args.alpha
    beta = meta.get("achieved_beta") if args.beta is None else args.beta
    if parts is None:
        return Certificate.skip("multipartite", "no --parts given and none derivable")
    # a JSON true would pass as the number 1
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (alpha, beta)):
        return Certificate.skip("multipartite", "needs --alpha and a positive --beta")
    return _attempt("multipartite", multipartite_certificate, code, parts, alpha, beta)


def _certify_dgs(code, doc, args) -> Certificate:
    if args.L:
        aset = parse_angle_set(args.L, code.tol.angle_tol)
    elif len(code) > 1:
        aset = code.angles
    else:
        return Certificate.skip("dgs", "no angle set available")
    return _attempt("dgs", dgs_bound_check, code, aset)


# suite -> runner (code, parsed file, arguments) -> one certificate;
# `certify --suite all` runs them in this order
SUITES = {
    "gerzon": lambda code, doc, args: _attempt("gerzon", gerzon_certificate, code),
    "negclique": _certify_negclique,
    "schnirelman": lambda code, doc, args: _attempt(
        "schnirelman-applied", schnirelman_applied_certificate, code),
    "matching": lambda code, doc, args: _attempt(
        "matching-full-rank", matching_full_rank_certificate, code),
    "multipartite": _certify_multipartite,
    "dgs": _certify_dgs,
    "lambda": lambda code, doc, args: _attempt(
        "lambda-inequality", lambda_inequality_check, code),
}


def cmd_certify(args, tol: Tolerance) -> int:
    _refuse_same_file("--report", args.report, "the input", args.file)
    code, doc = load_code(args.file, tol)
    wanted = list(SUITES) if args.suite == "all" else [args.suite]
    certificates = [SUITES[suite](code, doc, args) for suite in wanted]
    write_report(args.report, certificates, tol)
    failed = 0
    for cert in certificates:
        if cert.skipped:
            print(f"SKIP {cert.name}: {cert.reason}")
        elif cert.passed:
            print(f"PASS {cert.name}: {cert.statement}")
        else:
            failed += 1
            print(f"FAIL {cert.name}: {cert.statement} "
                  f"(lhs={cert.lhs}, rhs={cert.rhs})")
    return EXIT_OK if failed == 0 else EXIT_FAIL


def cmd_project(args, tol: Tolerance) -> int:
    code = load_code(args.file, tol)[0]
    clique = _parsed(lambda s: [int(x) for x in s.split(",") if x], args.clique,
                     f"clique {args.clique!r}")
    if not clique:
        raise InvalidParams(f"the clique {args.clique!r} is empty: name at least one index")
    members = set()
    for i in clique:
        if i in members:
            raise InvalidParams(f"the clique repeats index {i}")
        members.add(i)
    rest = [i for i in range(len(code)) if i not in members]
    if not rest:
        raise InvalidParams("the clique covers the whole code")
    projected = project_off_clique(code, rest, clique)
    _write_code(args.out, projected, "projection",
                {"clique": clique, "source": os.path.basename(args.file)})
    print(f"projected {len(projected)} vectors -> {args.out}")
    return EXIT_OK


def cmd_reduce(args, tol: Tolerance) -> int:
    sidecar = args.sidecar or (args.out + ".reduction.json")
    _refuse_same_file("--sidecar", sidecar, "--out", args.out)
    _refuse_same_file("--sidecar", sidecar, "the input", args.file)
    code = load_code(args.file, tol)[0]
    outcome = reduction_pipeline(code, args.t)
    bucket_doc = {}
    for key, members in sorted(outcome.buckets.items(), key=lambda kv: str(kv[0])):
        bucket_doc[",".join(str(v) for v in key) or "(empty)"] = list(members)
    doc = {
        "alpha": outcome.alpha,
        "t": args.t,
        "clique": list(outcome.clique),
        "switched": list(outcome.switched),
        "accounting": dict(outcome.accounting),
        "accounting_identity": outcome.accounting["size"] ==
            outcome.accounting["s_y"] + outcome.accounting["others"] +
            outcome.accounting["clique"],
        "buckets": bucket_doc,
        "garbage_checks": [dict(g) for g in outcome.garbage_checks],
        "projected_size": len(outcome.projected) if outcome.projected else 0,
    }
    rewrite_code_file(sidecar, doc)
    if outcome.projected is not None:
        _write_code(args.out, outcome.projected, "reduction",
                    {"t": args.t, "source": os.path.basename(args.file)})
        print(f"reduced to {len(outcome.projected)} vectors -> {args.out}")
    else:
        print("reduction produced an empty projected bucket; sidecar only")
    print(f"accounting: {doc['accounting']} -> {sidecar}")
    return EXIT_OK


# entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicode",
        description="Construct and certify spherical codes and equiangular lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named code and write it to a file")
    p.add_argument("name", choices=list(CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--gram-csv", dest="gram_csv", default=None)

    p = sub.add_parser("verify", help="validate a code file against an angle set")
    p.add_argument("file")
    p.add_argument("--L", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("certify", help="run certificate suites on a code file")
    p.add_argument("file")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--parts", default=None)
    p.add_argument("--L", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("project", help="project the rest of a code off a clique")
    p.add_argument("file")
    p.add_argument("--clique", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reduce", help="clique/switch/project reduction pipeline")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", default=None)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"construct": cmd_construct, "verify": cmd_verify,
                "certify": cmd_certify, "project": cmd_project,
                "reduce": cmd_reduce}
    try:
        tol = tolerance_from_env()
        if getattr(args, "tol", None) is not None:
            tol = replace(tol, angle_tol=args.tol)
        return handlers[args.command](args, tol)
    except (InvalidIndex, InvalidMatrix, InvalidParams, TooLarge, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EquicodeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("TooLarge: the input needs more memory than is available", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"OSError: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
