"""No CPU-dependent numpy call in ``llnlab`` outside a short list.

numpy chooses its ``power``, ``exp``, ``log`` and trigonometric kernels by
CPU, and on some CPUs they round differently from libm in the last bit, so a
value that reaches a pinned output must not pass through one.  BLAS and LAPACK
(OpenBLAS in numpy's wheels) pick their kernels by CPU too, so the same holds
for a matrix product, a least-squares solve or any ``numpy.linalg`` routine.  The scan
parses each module of the package and records every call of such a function
through ``np.`` or ``numpy.`` (or imported from numpy by name), and every ``@``
operator, keyed by the module, the innermost enclosing function and the call.
``ALLOWED`` and ``BLAS_ALLOWED`` list the keys that are allowed for now, each
with its reason.  The ratchet tests fail once one of them is gone, so the
lists can only shrink.
"""

import ast
from pathlib import Path

import llnlab

SRC = Path(llnlab.__file__).parent

TRIG = {f"{arc}{fn}{hyp}" for arc in ("", "arc") for fn in ("sin", "cos", "tan")
        for hyp in ("", "h")}
UFUNCS = frozenset({"power", "float_power", "exp", "exp2", "expm1", "log", "log2",
                    "log10", "log1p", "logaddexp", "logaddexp2", "arctan2", *TRIG})

BLAS = frozenset({"polyfit", "lstsq", "dot", "matmul", "inner", "einsum", "tensordot"})

ALLOWED = {
    "model.quantile_of.pareto_q np.power":
        "the Pareto quantile's power: its draws reach the simulate goldens (open: "
        "a correctly rounded path, ROADMAP item 4)",
}

BLAS_ALLOWED: dict = {}


def is_blas(name: str) -> bool:
    return name in BLAS or name.startswith("linalg.")


def calls_in(module: str, tree: ast.Module) -> set:
    """``module.function np.name`` of each numpy call in ``tree`` and
    ``module.function @`` of each ``@`` operator."""
    names = {}  # local name -> numpy name, for names imported from numpy
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            prefix = "" if node.module == "numpy" else "linalg."
            names.update((alias.asname or alias.name, prefix + alias.name)
                         for alias in node.names)
    found = set()

    def numpy_name(fn):
        if isinstance(fn, ast.Name):
            return names.get(fn.id)
        if not isinstance(fn, ast.Attribute):
            return None
        base = fn.value
        if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
            return fn.attr
        if (isinstance(base, ast.Name) and names.get(base.id) == "linalg"
                or isinstance(base, ast.Attribute) and base.attr == "linalg"
                and isinstance(base.value, ast.Name) and base.value.id in ("np", "numpy")):
            return f"linalg.{fn.attr}"
        return None

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        where = ".".join((module, *scope))
        if isinstance(node, ast.Call):
            name = numpy_name(node.func)
            if name is not None:
                found.add(f"{where} np.{name}")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(f"{where} @")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def ufunc_calls(keys: set) -> set:
    return {key for key in keys if key.partition(" np.")[2] in UFUNCS}


def blas_calls(keys: set) -> set:
    return {key for key in keys if key.endswith(" @") or is_blas(key.partition(" np.")[2])}


NUMPY_CALLS = set().union(*(calls_in(path.stem, ast.parse(path.read_text(), filename=str(path)))
                            for path in sorted(SRC.glob("*.py"))))
CALLS = ufunc_calls(NUMPY_CALLS)
BLAS_CALLS = blas_calls(NUMPY_CALLS)


def test_no_transcendental_ufunc_outside_the_allow_list():
    extra = sorted(CALLS - ALLOWED.keys())
    assert not extra, f"CPU-dispatched transcendental ufuncs in src/llnlab: {extra}"


def test_allow_list_only_shrinks():
    gone = sorted(ALLOWED.keys() - CALLS)
    assert not gone, f"entries no call needs, to drop from ALLOWED: {gone}"


def test_the_scan_sees_each_kind_of_call():
    code = ("import numpy as np\nimport numpy\nfrom numpy import exp as e\n"
            "def f(x):\n    return np.sin(x) + e(x) + np.sqrt(x) + x ** 2\n"
            "class C:\n    def g(self, x):\n        return numpy.arctan2(x, 1.0)\n")
    assert ufunc_calls(calls_in("m", ast.parse(code))) == {"m.f np.sin", "m.f np.exp",
                                                           "m.C.g np.arctan2"}


def test_no_blas_or_lapack_call_outside_the_allow_list():
    extra = sorted(BLAS_CALLS - BLAS_ALLOWED.keys())
    assert not extra, f"BLAS/LAPACK calls in src/llnlab: {extra}"


def test_blas_allow_list_only_shrinks():
    gone = sorted(BLAS_ALLOWED.keys() - BLAS_CALLS)
    assert not gone, f"entries no call needs, to drop from BLAS_ALLOWED: {gone}"


def test_the_blas_scan_sees_each_kind_of_call():
    code = ("import numpy as np\nimport numpy\nfrom numpy import dot as d\n"
            "from numpy import linalg\nfrom numpy.linalg import solve\n"
            "def f(a, b):\n    return np.polyfit(a, b, 1) + d(a, b) + a @ b + np.sum(a)\n"
            "class C:\n    def g(self, a, b):\n        a @= b\n"
            "        return numpy.linalg.norm(a) + linalg.det(a) + solve(a, b)\n")
    assert blas_calls(calls_in("m", ast.parse(code))) == {
        "m.f np.polyfit", "m.f np.dot", "m.f @", "m.C.g @", "m.C.g np.linalg.norm",
        "m.C.g np.linalg.det", "m.C.g np.linalg.solve"}
