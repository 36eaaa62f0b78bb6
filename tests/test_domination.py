import dataclasses
import math

import numpy as np
import pytest

from llnlab import domination, model, moments
from llnlab.errors import DominationPrecheckError
from llnlab.fixtures import load
from llnlab.moments import MomentFunction
from builders import identical_array


# ---------------------------------------------------------------------------
# tail-sup functionals
# ---------------------------------------------------------------------------


def test_cesaro_sup_two_block_value():
    fx = load("example-2.1")
    # attained at row 3: (3 - 1)/3
    assert domination.cesaro_tail_sup(fx.arr, 1.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_cesaro_sup_never_below_half_beyond_one():
    fx = load("example-2.1")
    for x in [2.0**j for j in range(0, 24)]:
        assert domination.cesaro_tail_sup(fx.arr, x) >= 0.5


def test_cesaro_sup_negative_argument():
    fx = load("example-2.1")
    assert domination.cesaro_tail_sup(fx.arr, -3.0) == 1.0
    arr = identical_array(model.ParetoTail(alpha=2.0))
    assert domination.cesaro_tail_sup(arr, -0.5) == 1.0


def test_weighted_sup_two_block_value():
    fx = load("example-2.1")
    assert domination.weighted_tail_sup(fx.arr, fx.weights, 1.5) == pytest.approx(
        0.25, abs=1e-15
    )


def _scanned(arr, w=None):
    """The array (and weights) with their closed-form sups stripped."""
    arr = dataclasses.replace(arr, closed_cesaro_sup=None)
    if w is None:
        return arr
    return arr, dataclasses.replace(w, closed_weighted_sup=None)


def test_closed_forms_match_scans():
    fx = load("example-2.1")
    arr, w = _scanned(fx.arr, fx.weights)
    for x in (-1.0, 0.3, 1.0, 1.5, 2.5, 7.0, 40.0):
        assert domination.cesaro_tail_sup(fx.arr, x) == pytest.approx(
            domination.cesaro_tail_sup(arr, x, n_sup=200), abs=1e-12
        )
        assert domination.weighted_tail_sup(fx.arr, fx.weights, x) == pytest.approx(
            domination.weighted_tail_sup(arr, w, x, n_sup=200), abs=1e-12
        )


def test_uniform_weights_reduce_to_cesaro():
    arr = _scanned(
        identical_array(model.ParetoTail(alpha=2.0), row_length=lambda n: 2 * n))
    w = model.uniform_weights(arr.row_length)
    for x in (0.5, 1.0, 3.0, 10.0):
        assert (domination.weighted_tail_sup(arr, w, x, n_sup=40)
                == domination.cesaro_tail_sup(arr, x, n_sup=40))


def test_counterexample_weighted_sup_is_one_everywhere():
    fx = load("wlln-counterexample")
    for x in (-5.0, 0.0, 1.0, 100.0, 1e18):
        assert domination.weighted_tail_sup(fx.arr, fx.weights, x) == 1.0


# ---------------------------------------------------------------------------
# dominating-cdf construction
# ---------------------------------------------------------------------------


def test_two_block_cesaro_invalid_weighted_valid():
    fx = load("example-2.1")
    rep_c = domination.dominating_cdf(fx.arr, model.uniform_weights())
    assert not rep_c.valid
    assert rep_c.cdf is None
    assert rep_c.values[-1] >= 0.5
    rep_w = domination.dominating_cdf(fx.arr, fx.weights)
    assert rep_w.valid
    assert rep_w.c0 == pytest.approx(1.25, abs=1e-12)
    # F(x) >= 1 - 1/(C0 x) for x >= 1
    for x in (1.0, 4.0, 64.0):
        F = 1.0 - rep_w.cdf.fn(x)
        assert F >= 1.0 - 1.0 / (rep_w.c0 * x) - 1e-12


def test_constructed_cdf_basic_shape():
    fx = load("example-2.1")
    rep = domination.dominating_cdf(fx.arr, fx.weights)
    F = lambda x: 1.0 - rep.cdf.fn(x)
    assert F(-1.0) == 0.0
    vals = [F(x) for x in rep.grid]
    assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] >= 1.0 - 1e-3


def test_single_distribution_cdf_right_continuous():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    rep = domination.dominating_cdf(arr, model.uniform_weights())
    assert rep.valid
    F = lambda x: 1.0 - rep.cdf.fn(x)
    assert F(1.0 - 1e-9) == 0.0
    assert F(1.0) == 1.0
    assert F(1.0 + 1e-9) == 1.0


def test_transfer_evaluates_the_sup_once(monkeypatch):
    # one row table and one C0 scan serve the grid values and the constructed X
    model.row_table.cache_clear()  # the memos outlive a test
    model.command_c0.cache_clear()
    builds, c0_calls = [], []
    init, c0 = model.RowTable.__init__, model.WeightScheme.c0
    monkeypatch.setattr(model.RowTable, "__init__",
                        lambda self, *a: builds.append(a) or init(self, *a))
    monkeypatch.setattr(model.WeightScheme, "c0",
                        lambda self, *a: c0_calls.append(a) or c0(self, *a))
    fx = load("example-2.1")
    arr, w = _scanned(fx.arr, fx.weights)
    rep = domination.dominating_cdf(arr, w, n_sup=200)
    assert rep.valid and not rep.closed_form
    assert rep.cdf.fn(4.0) == min(1.0, rep.values[rep.grid.index(4.0)] / rep.c0)
    assert len(builds) == len(c0_calls) == 1


def test_report_serialization_roundtrip():
    import json

    fx = load("example-2.1")
    rep = domination.dominating_cdf(fx.arr, fx.weights)
    obj = rep.to_json_obj()
    text = json.dumps(obj)
    back = json.loads(text)
    assert back["valid"] is True
    assert back["c0"] == pytest.approx(1.25)
    assert len(back["grid"]) == len(back["values"])
    assert back["scan_n"] == 10_000


# ---------------------------------------------------------------------------
# truncated moment bounds
# ---------------------------------------------------------------------------


def test_truncated_bounds_equality_for_single_distribution():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    y = model.tail_of(model.SymmetricTwoPoint(1.0))
    tb = domination.truncated_moment_bounds(arr, y, 2.0, 2.0, n_sup=50)
    assert tb.below == (1.0, 1.0)
    assert tb.above == (0.0, 0.0)


def test_truncated_bounds_pareto_values():
    arr = identical_array(model.ParetoTail(alpha=3.0))
    y = model.tail_of(model.ParetoTail(alpha=3.0))
    tb = domination.truncated_moment_bounds(arr, y, 1.0, 10.0, n_sup=50)
    assert tb.below[0] == pytest.approx(1.485, abs=1e-9)
    assert tb.below[1] == pytest.approx(1.495, abs=1e-9)
    assert tb.below[0] <= tb.below[1]
    assert tb.above[0] <= tb.above[1] + 1e-12


def test_truncated_bounds_refuses_undominated_array():
    fx = load("example-2.1")
    y = model.tail_of(model.ParetoTail(alpha=1.0))
    with pytest.raises(DominationPrecheckError):
        domination.truncated_moment_bounds(fx.arr, y, 1.0, 4.0, n_sup=100)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_truncated_bounds_refuse_a_negative_level(r):
    # E(|X|^r 1(|X| <= x)) at x < 0 is no truncation: at r = 0.5 the Pareto
    # integrand went complex, at r = 2 it read below = -4.0 and above = 7.0
    arr = identical_array(model.ParetoTail(alpha=3.0))
    y = model.tail_of(model.ParetoTail(alpha=3.0))
    with pytest.raises(ValueError, match="x must be >= 0, got -2.0"):
        domination.truncated_moment_bounds(arr, y, r, -2.0, n_sup=50)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_truncated_bounds_sweep_no_violations(r):
    cases = [
        (identical_array(model.SymmetricTwoPoint(1.0)), model.tail_of(model.SymmetricTwoPoint(1.0))),
        (
            identical_array(model.ParetoTail(alpha=3.0)),
            model.tail_of(model.ParetoTail(alpha=3.0)),
        ),
    ]
    x2m = load("x2m-example")
    cases.append((x2m.arr, x2m.cesaro_tail()))
    for arr, y in cases:
        for x in [2.0**j for j in range(0, 16, 3)]:
            tb = domination.truncated_moment_bounds(arr, y, r, x, n_sup=150)
            assert tb.below[0] <= tb.below[1] + 1e-9 * max(1.0, abs(tb.below[1]))
            assert tb.above[0] <= tb.above[1] + 1e-9 * max(1.0, abs(tb.above[1]))
