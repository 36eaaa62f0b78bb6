"""No CPU-dispatched transcendental numpy ufunc in ``llnlab`` outside a short list.

numpy chooses its ``power``, ``exp``, ``log`` and trigonometric kernels by
CPU, and on some CPUs they round differently from libm in the last bit, so a
value that reaches a pinned output must not pass through one.  The scan
parses each module of the package and records every call of such a ufunc
through ``np.`` or ``numpy.`` (or imported from numpy by name), keyed by the
module, the innermost enclosing function and the ufunc.  ``ALLOWED`` lists
the keys that are allowed for now, each with its reason.  The ratchet test
fails once one of them is gone, so the list can only shrink.
"""

import ast
from pathlib import Path

import llnlab

SRC = Path(llnlab.__file__).parent

TRIG = {f"{arc}{fn}{hyp}" for arc in ("", "arc") for fn in ("sin", "cos", "tan")
        for hyp in ("", "h")}
UFUNCS = frozenset({"power", "float_power", "exp", "exp2", "expm1", "log", "log2",
                    "log10", "log1p", "logaddexp", "logaddexp2", "arctan2", *TRIG})

ALLOWED = {
    "model.quantile_of.pareto_q np.power":
        "the Pareto quantile's power: its draws reach the simulate goldens (open: "
        "a correctly rounded path, ROADMAP item 4)",
}


def calls_in(module: str, tree: ast.Module) -> set:
    """``module.function np.ufunc`` of each transcendental ufunc call in ``tree``."""
    names = {  # local name -> ufunc, for ufuncs imported from numpy by name
        alias.asname or alias.name: alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names if alias.name in UFUNCS
    }
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            fn, name = node.func, None
            if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy")):
                name = fn.attr
            elif isinstance(fn, ast.Name):
                name = names.get(fn.id)
            if name in UFUNCS:
                found.add(f"{'.'.join((module, *scope))} np.{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


CALLS = set().union(*(calls_in(path.stem, ast.parse(path.read_text(), filename=str(path)))
                      for path in sorted(SRC.glob("*.py"))))


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
    assert calls_in("m", ast.parse(code)) == {"m.f np.sin", "m.f np.exp",
                                              "m.C.g np.arctan2"}
