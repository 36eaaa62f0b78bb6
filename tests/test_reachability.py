"""Every public top-level function or class of ``llnlab`` has a caller in ``llnlab``.

The scan parses each module of the package. A public name (no leading
underscore) defined at a module's top level is reached when a ``Name`` or an
``Attribute`` node carrying it appears somewhere in the package outside the
name's own definition. ``UNREACHED`` lists the names that are not reached
yet, each with its reason. The ratchet test fails once one of them is reached
or deleted, so the list can only shrink.
"""

import ast
from pathlib import Path

import llnlab

SRC = Path(llnlab.__file__).parent

UNREACHED = {
    "domination.cesaro_tail_sup": "perfbench/spans.py wraps it",
    "domination.weighted_tail_sup": "perfbench/spans.py wraps it",
    "domination.truncated_moment_bounds": "acceptance criterion 06",
    "domination.equivalence_transfer": "paper construction waiting for a check runner",
    "moments.dlvp_witness": "paper construction waiting for a check runner",
    "moments.transformed_array": "paper construction waiting for a check runner",
    "simulate.condition_h_probe": "paper construction waiting for a check runner",
    "moments.tail_along_norming": "acceptance criterion 07",
    "svf.conjugate_residual": "acceptance criterion 07",
    "model.identical_array": "test builder",
    "model.sample_row": "test builder",
}


def _scan():
    """(public top-level names as ``module.name``, the reached ones among them)."""
    public = set()
    used = set()  # (referenced name, "module.name" of the top-level statement holding it)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    public.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, owner))
    reached = {
        qual for qual in public
        if any(name == qual.split(".")[1] and owner != qual for name, owner in used)
    }
    return public, reached


PUBLIC, REACHED = _scan()


def test_every_public_name_is_reached_or_listed():
    orphans = sorted(PUBLIC - REACHED - UNREACHED.keys())
    assert not orphans, f"public names with no caller in src/llnlab: {orphans}"


def test_unreached_list_only_shrinks():
    gone = sorted(UNREACHED.keys() - PUBLIC)
    assert not gone, f"deleted names still listed in UNREACHED: {gone}"
    reached = sorted(UNREACHED.keys() & REACHED)
    assert not reached, f"names now reached, to drop from UNREACHED: {reached}"
