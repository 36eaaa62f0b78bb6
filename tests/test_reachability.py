"""Every public top-level function or class of ``llnlab`` has a caller in
``llnlab``, and every option of the package is set somewhere in it.

The scan parses each module of the package. A public name (no leading
underscore) defined at a module's top level is reached when a ``Name`` or an
``Attribute`` node carrying it appears somewhere in the package outside the
name's own definition. ``UNREACHED`` lists the names that are not reached
yet, each with its reason. The ratchet test fails once one of them is reached
or deleted, so the list can only shrink.

An option is a field with a default of a dataclass, or a keyword-only
parameter with a default of a public function or method.  It is set when a
call somewhere in the package passes its name by keyword.  A name scan cannot
see an option that nothing sets, since its reads keep it reached.
``UNSET`` lists the options that are not set yet, with the same ratchet.
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

UNSET = {
    "model.CustomDist.quantile": "test builder: the sampler's generic-law path",
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _kw_only_defaults(qual, fn):
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield f"{qual}.{arg.arg}", arg.arg


def _options(module, stmt):
    """(``module.owner.name``, name) of each option a top-level statement defines."""
    if isinstance(stmt, ast.ClassDef):
        if _is_dataclass(stmt):
            for field in stmt.body:
                if (isinstance(field, ast.AnnAssign) and field.value is not None
                        and isinstance(field.target, ast.Name)):
                    yield f"{module}.{stmt.name}.{field.target.id}", field.target.id
        for method in stmt.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                yield from _kw_only_defaults(f"{module}.{stmt.name}.{method.name}", method)
    elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
        yield from _kw_only_defaults(f"{module}.{stmt.name}", stmt)


def _scan_options():
    """(every option as ``module.owner.name``, the ones some call sets by keyword)."""
    options, passed = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            options.update(_options(path.stem, stmt))
        passed.update(node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword))
    return set(options), {qual for qual, name in options.items() if name in passed}


OPTIONS, SET = _scan_options()


def test_every_public_name_is_reached_or_listed():
    orphans = sorted(PUBLIC - REACHED - UNREACHED.keys())
    assert not orphans, f"public names with no caller in src/llnlab: {orphans}"


def test_unreached_list_only_shrinks():
    gone = sorted(UNREACHED.keys() - PUBLIC)
    assert not gone, f"deleted names still listed in UNREACHED: {gone}"
    reached = sorted(UNREACHED.keys() & REACHED)
    assert not reached, f"names now reached, to drop from UNREACHED: {reached}"


def test_every_option_is_set_or_listed():
    unset = sorted(OPTIONS - SET - UNSET.keys())
    assert not unset, f"options no call in src/llnlab sets: {unset}"


def test_unset_list_only_shrinks():
    gone = sorted(UNSET.keys() - OPTIONS)
    assert not gone, f"deleted options still listed in UNSET: {gone}"
    now_set = sorted(UNSET.keys() & SET)
    assert not now_set, f"options now set, to drop from UNSET: {now_set}"
