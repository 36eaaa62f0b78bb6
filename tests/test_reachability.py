"""Every public name, method and option of ``llnlab`` has a caller in ``llnlab``.

The scan parses each module of the package and resolves what it finds per
owner, not per name alone.

- A public top-level function or class (no leading underscore) is reached
  when a ``Name`` or an ``Attribute`` node carrying its name appears in the
  package outside its own definition.
- A public method or property of a class is reached only through an
  ``ast.Attribute`` read of its name outside its own body.
- An option is a parameter with a default, keyword-only or positional, of a
  public function, of a public method or of a class's ``__init__`` or
  ``__new__``; or a field with a default of a dataclass.  It is set only when
  a call to its own function (a call whose callee carries that function's,
  method's or class's name) passes it, by keyword or by position, outside
  that function's own body.  A dataclass field is also set when a
  ``dataclasses.replace`` call names it.  A call that splats ``*args`` or
  ``**kwargs`` counts as passing every parameter it could reach.

So a keyword of the same name on an unrelated call (``numpy``'s ``out=``, a
dataclass field of the same name) sets nothing, and a method that only tests
read is not reached.  ``UNREACHED`` lists the names and methods that are not
reached yet, and ``UNSET`` the options that are not set yet, each with its
reason; the options of a name in ``UNREACHED`` are exempt.  Each list has a
ratchet test that fails once an entry is reached, set or deleted, so the
lists can only shrink.  A reason that cites ``perfbench/spans.py`` is checked
against that file's text: the functions it names as wrapped must appear there.
"""

import ast
import math
import re
from pathlib import Path

import llnlab

SRC = Path(llnlab.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

UNREACHED = {
    "domination.cesaro_tail_sup": "perfbench/spans.py wraps it",
    "domination.weighted_tail_sup": "perfbench/spans.py wraps it",
    "domination.truncated_moment_bounds": "acceptance criterion 06",
    "simulate.condition_h_probe": "paper construction (the maximal-inequality constant)",
    "simulate.max_partial_sums": "perfbench/spans.py wraps it",
    "svf.conjugate_residual": "acceptance criterion 07",
    "model.sample_row": "test builder, and the only caller of model.rng_for and "
                        "model.sample_row_with, which perfbench/spans.py wraps",
    "conditions.ConditionVerdict.holds": "read by tests/test_acceptance.py",
    "conditions.ConditionVerdict.fails": "read by tests/test_acceptance.py",
    "model.ArraySpec.cell": "read by tests/test_acceptance.py",
}

UNSET = {
    "moments.expectation_via_tail.A": "set by tests/test_acceptance.py (A-invariance)",
    "moments.expectation_via_tail.max_blocks": "set by tests/test_acceptance.py",
    "model.RowSampler.draw.bufs": "test reference: tests/sim_reference.py",
    "model.sequence_array.cell": "test builder: every package array is a formula "
                                 "(cell_steps), a grouped array or law columns",
}


def _parse():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


MODULES = _parse()


def _decorators(fn) -> set:
    return {getattr(d, "id", getattr(d, "attr", None)) for d in fn.decorator_list}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _walk(node, owner, visit):
    """Call ``visit(node, owner)`` on every node below ``node``; ``owner`` is the
    qualified name of the innermost top-level definition or method holding it."""
    for child in ast.iter_child_nodes(node):
        visit(child, owner)
        _walk(child, owner, visit)


def _scan_uses():
    """(names, attribute reads, calls, names of fields ``replace`` passes)."""
    names, attrs, calls, replaced = set(), set(), [], set()

    def visit(node, owner):
        top = owner and ".".join(owner.split(".")[:2])  # a method's class
        if isinstance(node, ast.Name):
            names.add((node.id, top))
        elif isinstance(node, ast.Attribute):
            names.add((node.attr, top))
            if isinstance(node.ctx, ast.Load):
                attrs.add((node.attr, owner))
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.append((callee, owner, math.inf if splat else len(node.args),
                          None if None in keywords else keywords))
            if callee == "replace":
                replaced.update(keywords)

    for module, tree in MODULES.items():
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{module}.{stmt.name}"
            if isinstance(stmt, ast.ClassDef):
                for node in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
                    visit(node, owner)
                    _walk(node, owner, visit)
                for item in stmt.body:
                    inner = owner
                    if isinstance(item, ast.FunctionDef):
                        inner = f"{owner}.{item.name}"
                    visit(item, inner)
                    _walk(item, inner, visit)
            else:
                visit(stmt, owner)
                _walk(stmt, owner, visit)
    return names, attrs, calls, replaced


NAMES, ATTRS, CALLS, REPLACED = _scan_uses()


def _defaults(fn, skip: int):
    """(name, position or None) of each parameter of ``fn`` with a default;
    ``skip`` leading parameters (self, cls) do not count as positions."""
    positional = fn.args.posonlyargs + fn.args.args
    for j, arg in enumerate(positional[len(positional) - len(fn.args.defaults):],
                            start=len(positional) - len(fn.args.defaults)):
        yield arg.arg, j - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _definitions():
    """(public names, public methods, options).

    Names and methods are ``module.name`` and ``module.Class.method``.  Each
    option maps ``module.owner.name`` to (callee, own body, name, position, field):
    the name a call to its function carries, the qualified name of the body
    whose calls do not count, its parameter name, its position (None for a
    keyword-only one) and whether it is a dataclass field.
    """
    public, methods, options = set(), set(), {}
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                qual = f"{module}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    public.add(qual)
                    for name, pos in _defaults(stmt, 0):
                        options[f"{qual}.{name}"] = (stmt.name, qual, name, pos, False)
            if not isinstance(stmt, ast.ClassDef):
                continue
            qual = f"{module}.{stmt.name}"
            if not stmt.name.startswith("_"):
                public.add(qual)
            if _is_dataclass(stmt):
                fields = [f for f in stmt.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                for pos, field in enumerate(fields):
                    if field.value is not None:
                        options[f"{qual}.{field.target.id}"] = (
                            stmt.name, None, field.target.id, pos, True)
            for method in stmt.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                mqual = f"{qual}.{method.name}"
                skip = 0 if "staticmethod" in _decorators(method) else 1
                if method.name in ("__init__", "__new__"):
                    for name, pos in _defaults(method, skip):
                        options[f"{qual}.{name}"] = (stmt.name, None, name, pos, False)
                elif not method.name.startswith("_"):
                    methods.add(mqual)
                    for name, pos in _defaults(method, skip):
                        options[f"{mqual}.{name}"] = (method.name, mqual, name, pos, False)
    return public, methods, options


PUBLIC, METHODS, OPTIONS = _definitions()


def _reached():
    top = {qual for qual in PUBLIC
           if any(name == qual.rsplit(".", 1)[1] and owner != qual for name, owner in NAMES)}
    methods = {qual for qual in METHODS
               if any(attr == qual.rsplit(".", 1)[1] and owner != qual for attr, owner in ATTRS)}
    return top | methods


REACHED = _reached()


def _passes(call, name: str, pos) -> bool:
    _, _, positional, keywords = call
    return keywords is None or name in keywords or (pos is not None and positional > pos)


def _set_options():
    done = set()
    for qual, (callee, body, name, pos, field) in OPTIONS.items():
        if field and name in REPLACED:
            done.add(qual)
        elif any(call[0] == callee and call[1] != body and _passes(call, name, pos)
                 for call in CALLS):
            done.add(qual)
    return done


SET = _set_options()


def _exempt(qual: str) -> bool:
    """Whether an option belongs to a name (function, class or method) listed in
    ``UNREACHED``."""
    parts = qual.split(".")
    return any(".".join(parts[:j]) in UNREACHED for j in range(2, len(parts)))


def test_every_public_name_is_reached_or_listed():
    orphans = sorted((PUBLIC | METHODS) - REACHED - UNREACHED.keys())
    assert not orphans, f"public names and methods with no caller in src/llnlab: {orphans}"


def test_unreached_list_only_shrinks():
    gone = sorted(UNREACHED.keys() - PUBLIC - METHODS)
    assert not gone, f"deleted names still listed in UNREACHED: {gone}"
    reached = sorted(UNREACHED.keys() & REACHED)
    assert not reached, f"names now reached, to drop from UNREACHED: {reached}"


def test_every_option_is_set_or_listed():
    unset = sorted(q for q in OPTIONS.keys() - SET - UNSET.keys() if not _exempt(q))
    assert not unset, f"options no call in src/llnlab sets: {unset}"


def test_unset_list_only_shrinks():
    gone = sorted(UNSET.keys() - OPTIONS.keys())
    assert not gone, f"deleted options still listed in UNSET: {gone}"
    now_set = sorted(UNSET.keys() & SET)
    assert not now_set, f"options now set, to drop from UNSET: {now_set}"
    exempt = sorted(q for q in UNSET if _exempt(q))
    assert not exempt, f"options of UNREACHED names need no UNSET entry: {exempt}"


def test_every_entry_carries_a_reason():
    blank = sorted(q for q, why in {**UNREACHED, **UNSET}.items() if not why.strip())
    assert not blank, f"entries without a reason: {blank}"


def test_every_spans_reason_names_a_wrapped_function():
    # "perfbench/spans.py wraps it" names the entry itself; "the only caller of
    # A and B, which perfbench/spans.py wraps" names A and B.  Once spans.py
    # drops a wrapper, the function it named has to go.
    spans = SPANS.read_text()
    named = set()
    for qual, why in UNREACHED.items():
        if "perfbench/spans.py" not in why:
            continue
        if why.endswith("perfbench/spans.py wraps it"):
            named.add(qual)
        else:
            assert why.endswith(", which perfbench/spans.py wraps"), (qual, why)
            listed = why.rsplit("caller of ", 1)[1].rsplit(", which", 1)[0]
            named.update(re.findall(r"\w+\.\w+", listed))
    unwrapped = sorted(fn for fn in named if f'"{fn}"' not in spans)
    assert not unwrapped, f"named as wrapped but not in perfbench/spans.py: {unwrapped}"
