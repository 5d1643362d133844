"""Command-line surface: construct, verify, certify, project, reduce.

Files are written in a canonical JSON form: fixed key order, floats at 17
significant digits, no whitespace.  Writing, reading, and re-writing a file
reproduces identical bytes, so every certificate is reproducible from the
file alone.  ``canonical_json`` is the one entry point for files; it hands
every 1-D and 2-D float array to ``_format_floats``, the one float-array
writer.  It formats each distinct value of a few-valued array once, through
a token memo, and the rest of an array whose values stop repeating with
``_exact_rows``, a numpy kernel that lays out a few thousand tokens at a
time; either way every token is ``format(x, ".17g")``.  The ``--gram-csv``
rows and the ``angles:`` line of ``construct`` use the same writer; a
scalar, such as a token of ``angle_set_spec``, is ``"%.17g" % x`` itself
(``_float_token``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction
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
from .errors import (
    EquicodeError,
    InternalError,
    InvalidIndex,
    InvalidMatrix,
    InvalidParams,
    TooLarge,
)
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
    if not math.isfinite(x):
        raise InvalidParams("cannot serialize non-finite numbers")
    return "%.17g" % x


def _format_floats(a: np.ndarray, sep: str = ",", open_: str = "[",
                   close: str = "]") -> list:
    """Each row of a finite 1-D or 2-D float array as text; 1-D is one row.

    Every token is ``"%.17g" % x``, i.e. ``format(x, ".17g")``.  Rows are
    first joined from a ``_TokenMemo`` keyed by value, so a few-valued array
    (a few-distance Gram, zero-heavy vectors) formats each distinct value
    once.  After the first row that leaves the memo holding more than half
    the tokens seen so far, or once the memo is full, the rows built are
    kept and the exact kernel ``_exact_rows`` formats the rest: an
    all-distinct array (``reduce`` and ``project`` outputs) pays for one
    memoised row.  A dict takes -0.0 for 0.0, so an array holding -0.0 goes
    to the kernel whole.
    """
    if not np.isfinite(a).all():
        raise InvalidParams("cannot serialize non-finite numbers")
    a = a.reshape(1, -1) if a.ndim == 1 else a
    rows = []
    if not np.signbit(a[a == 0]).any():
        memo = _TokenMemo("%.17g".__mod__)
        seen = 0
        try:
            for row in map(np.ndarray.tolist, a):
                rows.append(open_ + sep.join(map(memo.__getitem__, row)) + close)
                seen += len(row)
                if 2 * len(memo) > seen:
                    break
        except _TooManyTokens:
            pass
    rest = a[len(rows):]  # empty once the memo has taken every row
    return rows + _exact_rows(rest, sep, open_, close) if rest.size else rows


# The exact "%.17g" kernel -----------------------------------------------
#
# For x != 0 with decimal exponent X, 10**X <= |x| < 10**(X + 1), "%.17g"
# prints the 17-digit N = round(|x| * 10**(16 - X)), ties to even: in fixed
# notation when -4 <= X <= 16, else in scientific notation, with trailing
# zeros after the point dropped.  The kernel forms |x| * 10**(16 - X) as a
# double-double: Dekker's exact TwoProduct p + err of |x| and the double h
# nearest 10**(16 - X), split by Veltkamp, plus |x| * l, l the double
# nearest 10**(16 - X) - h.  h, l and the least double >= 10**X (which
# makes X exact where log10 rounds across a power of ten) come from Python
# integers, each correctly rounded.  With X exact the product lies in
# [1e16, 1e17], so p (above 2**53) is an integer, and the computed fraction
# err + |x| * l is within 2**-47 of the exact one: the roundings of |x| * l
# (below 12), of the sum (below 32) and of its fractional part, and the
# 2**-106 relative error of h + l.  So a fraction farther than _TIE_BAND
# = 2**-40 from 1/2 rounds N as the exact product would.  A value within
# the band of a tie, one whose N reaches 10**17, and one whose X lies
# outside the window where no step can overflow or underflow are formatted
# by "%.17g" itself: every token is format(x, ".17g") by construction.

_CHUNK = 4096  # values per pass; their 48-byte frames stay in cache
_EXP_WINDOW = 290
_TIE_BAND = 2.0 ** -40
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TOKEN_WIDTH = 24  # the longest "%.17g" token of a double: -2.2250738585072014e-308


def _words(texts) -> np.ndarray:
    """ASCII strings of at most 8 characters, NUL-padded, as uint64 words."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts),
                         dtype=np.uint64)


def _four_digit_tables() -> tuple:
    """For v in 0..9999: its four digits, each followed by a point, as one
    word, and the number of zeros those four digits end in."""
    four = np.arange(10_000)
    digits = np.full((10_000, 8), ord("."), dtype=np.uint8)
    for col, place in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * col] = four // place % 10 + ord("0")
    return digits.view(np.uint64).ravel(), sum(four % d == 0 for d in (10, 100, 1000, 10_000))


# A value's frame is six words.  Word 0 is "-0.000q.": the sign, the "0."
# and three zeros of 0.000ddd, N's leading digit q and a point; words 1-4
# are N's other 16 digits, each followed by a point; word 5 is the exponent
# field "e+005" and three bytes for the separator, or for the text that ends
# a row.  A table lookup gives the bytes a token keeps, one compaction of the
# frames the text.
_HEAD = _words([f"-0.000{q}." for q in range(10)])
_DIGITS, _TRAILING_ZEROS = _four_digit_tables()
_EXPONENTS = np.arange(-_EXP_WINDOW, _EXP_WINDOW + 1)
_EXP_TEXT = _words([f"e{X:+04d}" for X in _EXPONENTS])
# X's first row in _FRAME_KEEP: layouts 0-20 are fixed notation, X + 4; 21
# and 22 scientific notation with a two- and a three-digit exponent
_LAYOUT_ROW = np.where((_EXPONENTS >= -4) & (_EXPONENTS <= 16), _EXPONENTS + 4,
                       np.where(np.abs(_EXPONENTS) < 100, 21, 22)) * 17


def _frame_keep() -> np.ndarray:
    """Row (sign * 23 + layout) * 17 + last: 1 in each byte of the frame
    that the token keeps, 0 elsewhere; ``last`` indexes N's last nonzero
    digit, 0 for the leading one."""
    neg, layout, last, byte = np.ix_(range(2), range(23), range(17), range(48))
    X = layout - 4
    point = np.where(layout <= 20, np.clip(X, 0, 16), 0)  # digit the point follows
    digit = (byte - 6) // 2
    keep = np.zeros((2, 23, 17, 48), dtype=bool)
    keep |= (byte == 0) & (neg == 1)
    keep |= (X < 0) & ((byte == 1) | (byte == 2) | ((byte >= 3) & (byte < 2 - X)))
    keep |= (byte >= 6) & (byte < 40) & (byte % 2 == 0) & (digit <= np.maximum(point, last))
    keep |= (byte >= 7) & (byte < 40) & (byte % 2 == 1) & (digit == point) & (last > point) \
        & (X >= 0)
    keep |= (layout >= 21) & ((byte == 40) | (byte == 41) | (byte == 43) | (byte == 44)
                              | ((byte == 42) & (layout == 22)))
    return keep.astype(np.uint8).reshape(-1, 48).view(np.uint64)


_FRAME_KEEP = _frame_keep()


@functools.cache
def _scale(X: int) -> tuple:
    """(h, h1, h2, l, bound): h the double nearest 10**(16 - X), h1 + h2 its
    Veltkamp split, l the double nearest 10**(16 - X) - h, bound the least
    double not below 10**X."""
    exact = Fraction(10) ** (16 - X)
    h = float(exact)
    m, e = math.frexp(h)
    c = m * _SPLIT
    m1 = c - (c - m)
    power = Fraction(10) ** X
    bound = float(power)
    return (h, math.ldexp(m1, e), math.ldexp(m - m1, e), float(exact - Fraction(h)),
            bound if bound >= power else math.nextafter(bound, math.inf))


def _exact_rows(a: np.ndarray, sep: str, open_: str, close: str) -> list:
    """The rows of a finite 2-D float array with at least one column, as
    ``open_ + sep.join("%.17g" tokens) + close``.  ``sep`` and ``close +
    open_`` have at most three and two ASCII characters: they share a frame
    word with the exponent."""
    if len(sep) > 3 or len(close + open_) > 2:
        raise InternalError("separator or brackets too long for the float frame")
    return b"".join(_exact_chunks(a, sep, open_, close)).decode("ascii").split("\0")[:-1]


def _exact_chunks(a: np.ndarray, sep: str, open_: str, close: str):
    """The text of ``_exact_rows``, _CHUNK values at a time, rows ended by NUL."""
    cols = a.shape[1]
    flat = a.reshape(-1)
    magnitude = np.abs(flat)
    nonzero = magnitude > 0
    lo, hi = np.floor(np.log10([magnitude.min(where=nonzero, initial=1.0),
                                magnitude.max(where=nonzero, initial=1.0)])).astype(int).tolist()
    lo, hi = max(min(lo, 0) - 1, -_EXP_WINDOW), min(max(hi, 0) + 1, _EXP_WINDOW)
    h, h1, h2, l, bound = np.array([_scale(X) for X in range(lo, hi + 2)]).T.copy()
    tail = _EXP_TEXT | _words(["\0" * 5 + sep])
    tail_end = _EXP_TEXT | _words(["\0" * 5 + close + "\0" + open_])
    keep = _FRAME_KEEP.copy()
    keep[:, 5] |= _words(["\0" * 5 + "\1" * len(sep)])
    keep_end = _FRAME_KEEP.copy()
    keep_end[:, 5] |= _words(["\0" * 5 + "\1" * len(close + "\0" + open_)])
    frame = np.empty((min(_CHUNK, flat.size), 6), dtype=np.uint64)
    kept = np.empty(frame.shape, dtype=np.uint64)
    yield open_.encode("ascii")
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        f, k = frame[:x.size], kept[:x.size]
        ax = np.abs(x)
        zero = ax == 0
        ax[zero] = 1.0
        X = np.floor(np.log10(ax))
        inside = (X > lo) & (X < hi)
        ax[~inside] = 1.0
        i = np.where(inside, X, 0.0).astype(np.intp) - lo  # the row of X in the table
        i += ax >= bound[i + 1]
        i -= ax < bound[i]
        p = ax * h[i]
        c = ax * _SPLIT
        x1 = c - (c - ax)
        x2 = ax - x1
        err = ((x1 * h1[i] - p) + x1 * h2[i] + x2 * h1[i]) + x2 * h2[i]
        frac = err + ax * l[i]
        below = np.floor(frac)
        frac -= below
        N = p.astype(np.int64) + below.astype(np.int64) + (frac > 0.5)
        fallback = np.flatnonzero(~inside | (np.abs(frac - 0.5) < _TIE_BAND)
                                  | (N < 10**16) | (N >= 10**17))
        N[zero] = 0
        N[fallback] = 0
        upper = N // 10**8  # N's first 9 and last 8 digits; % is slower than //
        lower = N - upper * 10**8
        upper4, lower4 = upper // 10**4, lower // 10**4
        q = upper4 // 10**4
        groups = (upper4 - q * 10**4, upper - upper4 * 10**4, lower4, lower - lower4 * 10**4)
        f[:, 0] = _HEAD[q]
        for word, g in enumerate(groups, 1):
            f[:, word] = _DIGITS[g]
        zeros = _TRAILING_ZEROS[groups[3]]
        for run, g in zip((4, 8, 12), groups[2::-1]):  # N ends in `run` zeros
            more = np.flatnonzero(zeros == run)
            zeros[more] += _TRAILING_ZEROS[g[more]]
        e = i + (lo + _EXP_WINDOW)  # the row of X in _EXPONENTS
        layout = _LAYOUT_ROW[e] + 16 - zeros + np.signbit(x) * (23 * 17)
        k[:] = keep[layout]
        f[:, 5] = tail[e]
        ends = np.arange(cols - 1 - start % cols, x.size, cols)
        f[ends, 5] = tail_end[e[ends]]
        k[ends] = keep_end[layout[ends]]
        if fallback.size:  # the token replaces the frame's 45 bytes before the separator
            tokens = ["%.17g" % v for v in x[fallback].tolist()]
            f.view(np.uint8)[fallback, :_TOKEN_WIDTH] = np.frombuffer(
                "".join(t.ljust(_TOKEN_WIDTH) for t in tokens).encode("ascii"),
                dtype=np.uint8).reshape(-1, _TOKEN_WIDTH)
            lengths = np.array([len(t) for t in tokens])
            k.view(bool)[fallback, :45] = np.arange(45) < lengths[:, None]
        yield np.compress(k.view(bool).ravel(), f.view(np.uint8).ravel()).tobytes()


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
