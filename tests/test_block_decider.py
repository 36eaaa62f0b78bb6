"""The one dyadic-block decider and its three producers.

``numerics.judge_blocks`` holds the block rules (quiet run, fitted slope) and
``numerics.walk_blocks`` the dyadic walk that ``chandra_ghosal_integral`` and
``integrate_tail_blocks`` share; ``exceedance_series`` judges its increments
once.  The scan parses each module of the package and records every name,
attribute or import of a block-rule name, keyed by the module and the
innermost enclosing function.  Outside the decider (``judge_blocks`` and the
slope it fits, ``fitted_block_slope``) only the definitions may name them.
"""

import ast
from pathlib import Path

import pytest

from llnlab import conditions, model, numerics
from llnlab.domination import cesaro_sup_fn

SRC = Path(numerics.__file__).parent

RULE_NAMES = frozenset({"BLOCK_TOL", "FLAT_SLOPE_TOL", "FLAT_RUN", "fitted_block_slope"})
DECIDER = {"numerics.judge_blocks", "numerics.fitted_block_slope"}


def uses_in(module: str, tree: ast.Module, names=RULE_NAMES) -> set:
    """``module.function name`` of each read or import of one of ``names``;
    a module-level assignment to it is its definition and is not recorded."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        where = ".".join((module, *scope))
        if isinstance(node, ast.Name) and node.id in names:
            if scope or not isinstance(node.ctx, ast.Store):
                found.add(f"{where} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(f"{where} {node.attr}")
        elif isinstance(node, ast.alias) and node.name in names:
            found.add(f"{where} {node.name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}
USES = set().union(*(uses_in(module, tree) for module, tree in TREES.items()))


def test_block_rule_names_live_only_in_the_decider():
    outside = sorted(use for use in USES if use.split()[0] not in DECIDER)
    assert not outside, f"block-rule names read outside the decider: {outside}"


def test_the_decider_reads_every_block_rule_name():
    assert {use.split()[1] for use in USES} == RULE_NAMES


def test_conditions_names_no_block_rule_or_budget():
    assert not uses_in("conditions", TREES["conditions"], RULE_NAMES | {"MAX_BLOCKS"})


def test_the_scan_sees_each_kind_of_use():
    code = ("from .numerics import BLOCK_TOL as tol, FLAT_RUN\nFLAT_RUN = 10\n"
            "def f(b):\n    return numerics.fitted_block_slope(b) >= -FLAT_SLOPE_TOL\n"
            "class C:\n    def g(self):\n        FLAT_RUN = 3\n        return FLAT_RUN\n")
    assert uses_in("m", ast.parse(code)) == {
        "m BLOCK_TOL", "m FLAT_RUN", "m.f fitted_block_slope", "m.f FLAT_SLOPE_TOL",
        "m.C.g FLAT_RUN"}


# ---------------------------------------------------------------------------
# The producers
# ---------------------------------------------------------------------------

# X_n = +-2^12 surely: P(|X_n| > n) is 1 for n < 2^12 and 0 from there on
SURE = model.sequence_array(lambda i: model.SymmetricTwoPoint(2.0**12))


def test_the_series_is_judged_once_on_every_increment():
    # the full blocks 1, 1, 2, 4, ... fit a slope of 1 from block 10 on; only
    # a judgement of all increments to N sees the three zeros that end them
    v = conditions.exceedance_series(SURE, 1.0, 2**15)
    assert (v.verdict, v.rule) == ("holds", "last 3 block increments below 1e-12")
    assert v.evidence["increments"][-4:] == [2047.0, 0.0, 0.0, 0.0]
    assert v.value == 4095.0


def test_two_quiet_series_increments_certify_nothing():
    v = conditions.exceedance_series(SURE, 1.0, 2**14)
    assert v.evidence["increments"][-3:] == [2047.0, 0.0, 0.0]
    assert v.verdict != "holds"


def test_small_series_increments_above_the_tolerance_certify_nothing():
    # P(|X_n| > n) = n^-2: the last increments are about 2^-13 .. 2^-15
    v = conditions.exceedance_series(
        model.sequence_array(lambda i: model.ParetoTail(alpha=2.0)), 1.0, 2**15)
    assert 1e-5 < min(v.evidence["increments"][-3:])
    assert (v.verdict, v.rule) == ("inconclusive", "no certificate within N")


@pytest.mark.xfail(
    strict=True,
    reason="FOUND (CHANGES.md): the slope rule reads the flat head 1, 2, 4, ... below "
           "the magnitude 2^12 as divergence, as in the scaling relation (ROADMAP item 3)")
def test_the_chandra_ghosal_integral_of_a_bounded_sequence_holds():
    v = conditions.chandra_ghosal_integral(cesaro_sup_fn(SURE, n_sup=64), 1.0)
    assert v.verdict == "holds"


def test_the_integral_walk_stops_at_its_first_quiet_block():
    # G = 1 on [0, 4): head 1, blocks 1 and 2, then the zero block ends the walk
    v = conditions.chandra_ghosal_integral(model.tail_of(model.SymmetricTwoPoint(4.0)), 1.0)
    assert (v.verdict, v.rule) == ("holds", "block below 1e-12")
    assert v.evidence == {"head": 1.0, "blocks": [1.0, 2.0, 0.0], "partial": 4.0}


def test_the_moment_walk_stops_at_its_first_quiet_block():
    res = numerics.integrate_tail_blocks(lambda t: 1.0 if t < 4.0 else 0.0, 1.0,
                                         breakpoints_in=lambda lo, hi: (4.0,) * (lo < 4.0 < hi))
    assert res == numerics.BlockIntegral(3.0, 3.0, True, (2.0, 0.0))
