import math

import numpy as np
import pytest

from llnlab import conditions, model, moments
from llnlab.fixtures import load
from llnlab.moments import MomentFunction
from builders import identical_array


def uniform01_tail() -> model.TailFunction:
    return model.TailFunction(fn=lambda x: 1.0 if x < 0 else max(0.0, 1.0 - x))


# ---------------------------------------------------------------------------
# tail-integral expectation engine
# ---------------------------------------------------------------------------


def test_uniform_square_moment():
    val = moments.expectation_via_tail(uniform01_tail(), MomentFunction(power=2.0))
    assert float(val) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_a_invariance_continuous():
    h = MomentFunction(power=2.0)
    for tail in (uniform01_tail(), model.tail_of(model.ParetoTail(alpha=4.0))):
        v0 = float(moments.expectation_via_tail(tail, h, A=0.0))
        v1 = float(moments.expectation_via_tail(tail, h, A=1.0))
        assert abs(v0 - v1) < 1e-9


def test_point_mass_any_power():
    tail = model.tail_of(model.SymmetricTwoPoint(1.0))
    for p in (0.5, 1.0, 2.0, 3.7):
        assert float(moments.expectation_via_tail(tail, MomentFunction(power=p))) == 1.0


@pytest.mark.parametrize("A", [0.0, 2.0, 3.0, 10.0])
def test_discrete_matches_atom_sum_exactly(A):
    dist = model.SymmetricTwoPoint(3.0, 0.5)
    tail = model.tail_of(dist)
    h = MomentFunction(power=1.3, log_factor_nu=1)
    direct = h.eval(3.0) * 0.5  # the only nonzero atom
    got = float(moments.expectation_via_tail(tail, h, A=A))
    assert abs(got - direct) < 1e-12


def test_spike_cell_log_moment_closed_form():
    # cell of magnitude 8/3 with full mass: E(|X| log|X|) = (8/3)(3 - log2 3)
    cell = model.SymmetricTwoPoint(8.0 / 3.0, 1.0)
    g = MomentFunction(power=1.0, log_factor_nu=1)
    expected = (8.0 / 3.0) * (3.0 - math.log2(3.0))
    assert moments.cell_moment(cell, g) == pytest.approx(expected, abs=1e-12)
    assert float(moments.expectation_via_tail(model.tail_of(cell), g)) == pytest.approx(
        expected, abs=1e-12
    )


def test_moment_g_pareto_square():
    tail = model.tail_of(model.ParetoTail(alpha=3.0))
    # oracle: 1 + int_1^inf 2x * x^-3 dx = 3
    assert float(moments.expectation_via_tail(tail, MomentFunction(power=2.0))) == pytest.approx(
        3.0, abs=1e-9
    )


def test_moment_g_divergence_marker():
    tail = model.tail_of(model.ParetoTail(alpha=1.0))
    val = moments.expectation_via_tail(tail, MomentFunction(power=1.0))
    assert math.isinf(val)
    assert not val.converged
    assert 0.0 < val.partial < math.inf


def test_moment_g_log_factors_collapse_at_one():
    tail = model.tail_of(model.SymmetricTwoPoint(1.0))
    g = MomentFunction(power=1.5, log_factor_nu=3)
    assert float(moments.expectation_via_tail(tail, g)) == 1.0


def test_monte_carlo_cross_check_continuous():
    dist = model.ParetoTail(alpha=2.5, cutoff=1.0)
    h = MomentFunction(power=0.5)
    quadrature = float(moments.expectation_via_tail(model.tail_of(dist), h))
    n = 1_000_000
    draws = np.abs(model.quantile_of(dist)(model.rng_for(77, 0).random(n)))
    vals = np.sqrt(draws)
    se = float(np.std(vals)) / math.sqrt(n)
    assert abs(float(np.mean(vals)) - quadrature) <= 4 * se


# ---------------------------------------------------------------------------
# truncated moments
# ---------------------------------------------------------------------------


def test_truncated_moments_pareto_closed_forms():
    tail = model.tail_of(model.ParetoTail(alpha=3.0))
    below = float(moments.truncated_abs_moment(tail, 1.0, 10.0, "below"))
    # oracle: int_0^10 T(t) dt - 10 T(10) = 1 + (1 - 10^-2)/2 - 10 * 1e-3
    assert below == pytest.approx(1.485, abs=1e-9)
    above = float(moments.truncated_abs_moment(tail, 1.0, 10.0, "above"))
    # oracle: 10 * 1e-3 + int_10^inf t^-3 dt = 0.01 + 0.005
    assert above == pytest.approx(0.015, abs=1e-9)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_truncated_moments_reject_nonpositive_power(r):
    # r = 0 would give P(|X| <= x) - 1 below x, r < 0 a meaningless integral
    tail = model.tail_of(model.ParetoTail(alpha=3.0))
    for side in ("below", "above"):
        with pytest.raises(ValueError, match="r must be positive"):
            moments.truncated_abs_moment(tail, r, 10.0, side)


def test_truncated_moments_discrete_exact():
    tail = model.tail_of(model.SymmetricTwoPoint(4.0, 0.25))
    assert float(moments.truncated_abs_moment(tail, 2.0, 4.0, "below")) == 4.0
    assert float(moments.truncated_abs_moment(tail, 2.0, 3.9, "above")) == 4.0
    assert float(moments.truncated_abs_moment(tail, 2.0, 4.0, "above")) == 0.0


# ---------------------------------------------------------------------------
# weighted scans
# ---------------------------------------------------------------------------


def test_bounded_moment_two_block_paper_bound():
    fx = load("wlln-counterexample")
    g = MomentFunction(power=fx.p, log_factor_nu=1)
    sup = moments.bounded_moment_condition(
        fx.arr, model.uniform_weights(), g, n_sup=4000
    )
    assert not sup.growing
    assert float(sup) <= 1.0 + 1.0 / fx.p + 1e-9


def test_bounded_moment_power_spikes_bound():
    fx = load("x2m-example")
    g = MomentFunction(power=fx.p, log_factor_nu=1)
    sup = moments.bounded_moment_condition(fx.arr, fx.weights, g, n_sup=4000)
    # row averages climb toward the limit, so no plateau assertion here:
    # the bound is what matters
    assert float(sup) <= 1.0 + 2.0 / fx.p + 1e-9


def test_bounded_moment_rare_spikes_finite():
    fx = load("example-4.1")
    g = MomentFunction(power=fx.p, log_factor_nu=fx.nu)
    sup = moments.bounded_moment_condition(fx.arr, fx.weights, g, n_sup=4000)
    assert not sup.growing
    assert math.isfinite(float(sup))


def test_ui_check_bounded_cells_truncation_empties():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    vals = moments.ui_check(
        arr, model.uniform_weights(), MomentFunction(power=1.0), [2.0, 4.0], n_sup=50
    )
    assert vals == [0.0, 0.0]


def test_ui_check_weighted_counterexample_does_not_decay():
    fx = load("wlln-counterexample")
    vals = moments.ui_check(
        fx.arr, fx.weights, MomentFunction(power=fx.p), [1.0, 8.0, 64.0], n_sup=2000
    )
    # the dominant cell keeps weight 1: sup stays at the scan edge n/log2(n)
    expected = 2000.0 / math.log2(2000.0)
    assert all(v == pytest.approx(expected, rel=1e-9) for v in vals)


def test_ui_closed_forms_match_scan_at_small_levels():
    fx = load("wlln-counterexample")
    t = MomentFunction(power=fx.p)
    closed = fx.closed["ui_cesaro_pow_p"]
    scan = moments.ui_check(
        fx.arr, model.uniform_weights(), t, [1.0, 3.0, 9.0, 40.0], n_sup=4000
    )
    for a, s in zip([1.0, 3.0, 9.0, 40.0], scan):
        assert closed(a) == pytest.approx(s, rel=1e-9)

    x2m = load("x2m-example")
    closed2 = x2m.closed["ui_cesaro_pow_p"]
    scan2 = moments.ui_check(
        x2m.arr, x2m.weights, MomentFunction(power=x2m.p), [1.0, 2.5, 16.0], n_sup=4096
    )
    for a, s in zip([1.0, 2.5, 16.0], scan2):
        assert closed2(a) == pytest.approx(s, rel=1e-9)


# ---------------------------------------------------------------------------
# rescaled tail decay
# ---------------------------------------------------------------------------


def _rescaled_tail(tail, p, grid):
    """x * P(|X| > b_x) over the grid, b = n^(1/p): the kG kernel's values."""
    return conditions.count_tail_vanishes(tail, model.power_norming(p), grid).evidence["values"]


def test_tail_along_norming_pareto_inverse_law():
    tail = model.tail_of(model.ParetoTail(alpha=1.0))  # with p=1/2: alpha = 2p
    vals = _rescaled_tail(tail, 0.5, [4.0, 16.0, 64.0])
    assert vals == pytest.approx([1.0 / 4.0, 1.0 / 16.0, 1.0 / 64.0], rel=1e-12)


def test_tail_along_norming_boundary_constant():
    p = 0.5
    tail = model.TailFunction(fn=lambda x: 1.0 if x <= 1 else x ** (-p))
    vals = _rescaled_tail(tail, p, [2.0, 8.0, 32.0, 128.0])
    assert vals == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)
