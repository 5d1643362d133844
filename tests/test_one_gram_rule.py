"""Source rule: one Gram per code.

Only ``Code.gram`` calls the builder ``gram_of``, so every consumer shares
the Gram that the code keeps, and only ``codes._pairs`` extracts the pairs
i < j of a Gram.  An upper triangle with its diagonal, ``np.triu_indices(m)``
as in the exact elimination kernel, is not a pair extraction.  Every
eigendecomposition goes through ``matcore.sym_eigen``, so a trace counts
them all; nothing takes bare eigenvalues with ``eigvalsh``.  A code keeps
the tolerance it was checked with, so no function whose first parameter is
a ``Code`` takes a second one.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "equicode"


def _calls(name):
    """(file, enclosing qualified name, call node) of every call of ``name``."""
    found = []

    def walk(node, filename, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if called == name:
                    found.append((filename, ".".join(inner), child))
            walk(child, filename, inner)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    return found


def test_only_code_gram_builds_a_gram():
    assert [(f, s) for f, s, _ in _calls("gram_of")] == [("codes.py", "Code.gram")]


def test_only_the_pair_helper_extracts_pairs():
    calls = _calls("triu_indices")
    assert ("codes.py", "_pairs") in {(f, s) for f, s, _ in calls}
    offenders = [(f, s, ast.unparse(call)) for f, s, call in calls
                 if (f, s) != ("codes.py", "_pairs")
                 and (len(call.args) != 1 or call.keywords)]
    assert offenders == []


def test_only_sym_eigen_decomposes():
    assert [(f, s) for f, s, _ in _calls("eigh")] == [("matcore.py", "sym_eigen")]
    assert _calls("eigvalsh") == []


def _functions_of_a_code():
    """(file, name, parameter names) of every function whose first parameter
    is annotated ``Code``."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                if args and args[0].annotation is not None and \
                        ast.unparse(args[0].annotation) == "Code":
                    names = [a.arg for a in args + node.args.kwonlyargs]
                    found.append((path.name, node.name, names))
    return found


def test_a_code_carries_the_only_tolerance():
    functions = _functions_of_a_code()
    checked = {(f, name) for f, name, _ in functions}
    assert {("bounds.py", "gerzon_certificate"), ("codes.py", "angle_set_of"),
            ("codes.py", "project_onto_complement"),
            ("graphlab.py", "reduction_pipeline")} <= checked
    assert [(f, name) for f, name, params in functions if "tol" in params] == []
