"""Source rule: one Gram per code.

Only ``Code.gram`` calls the builder ``gram_of``, so every consumer shares
the Gram that the code keeps, and only ``codes._pairs`` extracts the pairs
i < j of a Gram.  An upper triangle with its diagonal, ``np.triu_indices(m)``
as in the exact elimination kernel, is not a pair extraction.  Every
eigendecomposition goes through ``matcore.sym_eigen``, so a trace counts
them all: it alone calls ``eigh``, and ``eigvalsh`` for values-only
spectra.  A code keeps
the tolerance it was checked with, so no function whose first parameter is
a ``Code`` takes a second one.

One angle set per code: only ``Code.angles`` calls the detector
``angle_set_of``, so every consumer shares the set the code keeps.  An
L(alpha, t)-code is matched once, by ``codes._l_code_negatives``, and only
codes.py writes the negative edges a code keeps; neither bounds nor
graphlab imports the other.

One clique path per code: ``graphlab.reduction_pipeline`` reads its
positive graph off the sign of the kept Gram and searches it with
``find_clique`` alone, so no function calls ``build_graph`` (which stays
public for the graph lemmas) or ``ramsey_pair``.  A yes/no angle-set check
asks the classifier; only ``cli.cmd_verify`` builds the verify report with
``validate_code``.
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


def test_only_code_angles_detects_an_angle_set():
    assert [(f, s) for f, s, _ in _calls("angle_set_of")] == [("codes.py", "Code.angles")]


def _relative_imports(filename):
    tree = ast.parse((SOURCE / filename).read_text(encoding="utf-8"))
    return [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_graphlab_imports_nothing_from_bounds():
    modules = _relative_imports("graphlab.py")
    assert "codes" in modules and "bounds" not in modules


def test_bounds_imports_nothing_from_graphlab():
    modules = _relative_imports("bounds.py")
    assert "codes" in modules and "graphlab" not in modules


def test_no_function_builds_a_graph():
    assert _calls("build_graph") == []


def test_only_codes_keeps_the_negative_edges():
    writers = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            writers += [path.name for target in targets for sub in ast.walk(target)
                        if isinstance(sub, ast.Attribute) and sub.attr == "_negatives"]
    assert writers and set(writers) == {"codes.py"}


def test_only_verify_builds_the_verify_report():
    assert [(f, s) for f, s, _ in _calls("validate_code")] == [("cli.py", "cmd_verify")]


def test_no_function_takes_the_ramsey_route():
    assert _calls("ramsey_pair") == []


def test_only_sym_eigen_decomposes():
    for name in ("eigh", "eigvalsh"):
        assert [(f, s) for f, s, _ in _calls(name)] == [("matcore.py", "sym_eigen")], name


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
