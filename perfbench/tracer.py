"""Span tracer that wraps the program's public functions from outside.

Modules bind each other's functions with ``from .x import y``, so a wrapper
is installed in every ``equicode`` module namespace that binds the function,
not only in the defining module.  Nothing in the program's source changes.

Each call records a span (label, start, end, parent, job) in memory; the
spans are written once, when the run ends.  Self time is a span's duration
minus the durations of the traced spans nested directly inside it.  A
function that re-enters itself (``canonical_json`` recurses) is traced only
at its outermost call; nested calls of other traced functions (``rank_of``
calling ``sym_eigen``) are ordinary child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "equicode"

# functions whose span label carries the matrix backend of the first argument
_BACKEND_TAGGED = {"matcore.is_psd", "matcore.rank_of"}

GRAM_BUILDERS = ("constructions.lemmens_seidel_gram", "constructions.odd_reciprocal_gram",
                 "constructions.simplex_gram", "constructions.lines28_gram")
CODE_BUILDERS = ("constructions.lemmens_seidel_code", "constructions.odd_reciprocal_code",
                 "constructions.regular_simplex", "constructions.seven_dim_28_lines",
                 "constructions.binary_kcode", "constructions.random_unit_vectors")
CERTIFICATES = ("bounds.negative_clique_certificate", "bounds.gerzon_certificate",
                "bounds.schnirelman_applied_certificate",
                "bounds.matching_full_rank_certificate", "bounds.multipartite_certificate",
                "bounds.dgs_bound_check", "bounds.beta_energy_check", "bounds.bound_table")
CLIQUE_SEARCH = ("graphlab.find_clique", "graphlab.ramsey_pair")

# per-layer metric -> the span labels whose self time it sums
SELF_TIME = {
    "matcore.exact_psd_s": ("matcore.is_psd[rational]",),
    "matcore.exact_rank_s": ("matcore.rank_of[rational]",),
    "matcore.eigh_s": ("matcore.sym_eigen",),
    "matcore.embed_self_s": ("matcore.embed_from_gram",),
    "constructions.gram_build_s": GRAM_BUILDERS,
    "constructions.construct_self_s": CODE_BUILDERS,
    "constructions.concat_s": ("constructions.concatenated_code",),
    "codes.gram_s": ("codes.gram_of",),
    "codes.angle_detect_s": ("codes.angle_set_of",),
    "codes.validate_s": ("codes.validate_code",),
    "codes.project_s": ("codes.project_onto_complement", "codes.clique_angle"),
    "bounds.cert_self_s": CERTIFICATES,
    "graphlab.clique_search_s": CLIQUE_SEARCH,
    "graphlab.build_graph_self_s": ("graphlab.build_graph",),
    "graphlab.reduction_self_s": ("graphlab.reduction_pipeline",),
    "graphlab.lambda_check_self_s": ("graphlab.lambda_inequality_check",),
    "cli.load_s": ("cli.load_code", "cli.read_code_file"),
    "cli.serialize_s": ("cli.canonical_json",),
}

# per-layer metric -> the span labels whose calls it counts
CALLS = {
    "matcore.exact_psd_calls": ("matcore.is_psd[rational]",),
    "matcore.exact_rank_calls": ("matcore.rank_of[rational]",),
    "matcore.eigh_calls": ("matcore.sym_eigen",),
    "matcore.embed_calls": ("matcore.embed_from_gram",),
    "constructions.gram_build_calls": GRAM_BUILDERS,
    "codes.gram_calls": ("codes.gram_of",),
    "codes.angle_detect_calls": ("codes.angle_set_of",),
    "codes.validate_calls": ("codes.validate_code",),
    "bounds.cert_calls": CERTIFICATES,
    "graphlab.clique_search_calls": CLIQUE_SEARCH,
    "cli.load_calls": ("cli.load_code",),
}

# counters read off arguments and results: label -> (counter, function)
_OBSERVED = {
    "codes.angle_set_of": ("codes.angle_points", lambda args, out: len(out.points)),
    "codes.validate_code": ("codes.validate_pairs",
                            lambda args, out: len(args[0]) * (len(args[0]) - 1) // 2),
    "cli.canonical_json": ("cli.serialize_bytes", lambda args, out: len(out.encode("utf-8"))),
    "constructions.concatenated_code": ("constructions.concat_attempts",
                                        lambda args, out: out[2].attempts),
}
EXACT_COUNTERS = tuple(_OBSERVED[k][0] for k in _OBSERVED)

UNITS = {**{name: "s" for name in SELF_TIME}, **{name: "count" for name in CALLS},
         "codes.angle_points": "count", "codes.validate_pairs": "count",
         "cli.serialize_bytes": "bytes", "constructions.concat_attempts": "count",
         "bounds.cert_applied_ratio": "ratio", "trace.overhead_ratio": "ratio"}


class Tracer:
    """In-memory spans and counters for calls into the program's modules."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans = []          # (label, start, end, parent index, job)
        self._stack = []         # [span index, child time] of open spans
        self.reset()

    def reset(self):
        """Start a new accumulation window; the span log is kept."""
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()

    # installation ---------------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of the program's modules, everywhere bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + ".") or obj.__name__ != name:
                    continue
                if obj not in wrappers:
                    label = obj.__module__[len(PACKAGE) + 1:] + "." + name
                    wrappers[obj] = self._wrap(obj, label)
                setattr(module, name, wrappers[obj])
        return len(wrappers)

    def _wrap(self, fn, label: str):
        tagged = label in _BACKEND_TAGGED
        observe = _OBSERVED.get(label)
        tracer = self
        depth = [0]  # open calls of this function

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] or not tracer.enabled:
                return fn(*args, **kwargs)
            name = f"{label}[{args[0].backend}]" if tagged else label
            depth[0] += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            tracer.spans.append(None)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[0] -= 1
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.job)
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
            if observe is not None:
                tracer.counters[observe[0]] += observe[1](args, out)
            return out

        return wrapper

    # results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the current window (see SELF_TIME and CALLS)."""
        out = {name: sum(self.self_time[label] for label in labels)
               for name, labels in SELF_TIME.items()}
        out.update({name: sum(self.calls[label] for label in labels)
                    for name, labels in CALLS.items()})
        out.update({name: self.counters[name] for name in EXACT_COUNTERS})
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["label", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
