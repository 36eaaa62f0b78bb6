"""Exact kernels in place of quadrature where a law has a closed form.

* The closed Cesaro sups of example-2.1 and x2m-example are step sources:
  their knot lists name every step in any range, and under a constant L the
  chandra-ghosal integral sums them piece by piece.  The reference is the
  quadrature path they still take under a slowly varying L, with its
  breakpoints: in example-2.1 only in blocks of at most 130 knots.
* A Pareto law's power moments E(|X|^s L(|X|) 1(|X| > x)), L = 1 or the
  clamped log2, are one antiderivative (``moments.pareto_power_mass``); the
  reference is the quadrature of h against the law's density.
"""

import dataclasses
import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llnlab import conditions, model, moments, numerics
from llnlab.fixtures import load
from llnlab.moments import MomentFunction, pareto_power_mass
from llnlab.numerics import QUAD_ABS_TOL, integrate_tail_blocks
from llnlab.svf import LOG_CHAIN_KINKS, log_power

PS = (0.5, 1.0, 1.5)
FIXTURES = {(name, p): load(name, p=p) for name in ("example-2.1", "x2m-example") for p in PS}
STEP_SOURCES = {key: fx.cesaro_tail() for key, fx in FIXTURES.items()}
IDS = [f"{name}-p{p}" for name, p in STEP_SOURCES]

# ---------------------------------------------------------------------------
# closed step sources
# ---------------------------------------------------------------------------


def _constant_between_knots(tail, lo, hi, gap, u, v):
    pts = (lo, *tail.knots_in(lo, hi), hi)
    assert list(pts) == sorted(set(pts)), pts  # ascending, each knot once
    a, b = pts[gap % (len(pts) - 1)], pts[gap % (len(pts) - 1) + 1]
    x, y = a + (b - a) * u, a + (b - a) * v
    assume(a < x < b and a < y < b)
    assert tail.fn(x) == tail.fn(y), (a, b, x, y)


FRACTION = st.floats(1e-6, 1.0 - 1e-6)


@pytest.mark.parametrize("p", PS)
@settings(max_examples=150, deadline=None)
@given(lo=st.one_of(st.just(0.0), st.floats(0.0, 2.0**40)), width=st.floats(1e-3, 4096.0),
       gap=st.integers(0, 2**16), u=FRACTION, v=FRACTION)
def test_example_21_sup_is_constant_between_its_knots(p, lo, width, gap, u, v):
    # up to 2048 knots a range: the list cut at 130 returned none past that
    _constant_between_knots(STEP_SOURCES["example-2.1", p], lo, lo + width, gap, u, v)


@pytest.mark.parametrize("p", PS)
@settings(max_examples=150, deadline=None)
@given(lo_exp=st.floats(-4.0, 1000.0), span=st.floats(1e-3, 1100.0),
       gap=st.integers(0, 2**16), u=FRACTION, v=FRACTION)
def test_x2m_sup_is_constant_between_its_knots(p, lo_exp, span, gap, u, v):
    # ranges up to float overflow, and across the step at 1
    lo = 0.0 if lo_exp < -3.0 else 2.0**lo_exp
    hi = 2.0 ** min(lo_exp + span, 1023.9)
    assume(lo < hi)
    _constant_between_knots(STEP_SOURCES["x2m-example", p], lo, hi, gap, u, v)


def test_x2m_knots_reach_past_where_two_to_the_m_overflows():
    # at p = 1.5 the spikes (2^m / m)^(2/3) of m = 1031..1060 lie in (2^680, 2^700);
    # 2^m / m leaves float range at m = 1035, and the sup reads 0.0 from m = 1060 on
    tail = STEP_SOURCES["x2m-example", 1.5]
    knots = tail.knots_in(2.0**680, 2.0**700)
    assert len(knots) == 30
    values = [tail.fn(0.5 * (a + b)) for a, b in zip(knots, knots[1:])]
    assert all(a > b for a, b in zip(values, values[1:])) and values[-1] == 0.0


@pytest.mark.parametrize("key", list(STEP_SOURCES), ids=IDS)
def test_exact_blocks_keep_the_quadrature_verdicts(key, monkeypatch):
    tail, p = STEP_SOURCES[key], key[1]
    quadrature = FIXTURES[key].cesaro_tail(step=False)
    assert not quadrature.step and tail.step
    before = conditions.chandra_ghosal_integral(quadrature, p)
    monkeypatch.setattr(numerics, "quad", None)  # the step sums integrate nothing
    after = conditions.chandra_ghosal_integral(tail, p)
    assert (after.verdict, after.rule) == (before.verdict, before.rule) == ("fails", after.rule)
    assert len(after.evidence["blocks"]) == len(before.evidence["blocks"])
    assert after.evidence["head"] == pytest.approx(before.evidence["head"], rel=1e-7)
    assert after.evidence["blocks"] == pytest.approx(before.evidence["blocks"], rel=1e-7)


def test_closed_sup_under_a_slowly_varying_l_is_integrated_by_quadrature():
    # summed as steps, L = (log x)^-20 would cost one quadrature per piece, and
    # example-2.1's sup has 2^(j-1) of them in block j; at p = 1/2 the verdict
    # comes at block 28, in about a second
    spec = dataclasses.replace(FIXTURES["example-2.1", 0.5], sv=log_power(-20.0))
    start = time.perf_counter()
    got = conditions.run_condition("chandra-ghosal", spec, 64, 1000)
    assert time.perf_counter() - start < 10.0
    assert got["outcome"] == "fails" and len(got["detail"]["blocks"]) == 28
    assert got["detail"]["rule"].startswith("fitted block slope")


# ---------------------------------------------------------------------------
# the Pareto power kernel
# ---------------------------------------------------------------------------

LAWS = [model.ParetoTail(alpha=a, cutoff=c) for a in (1.5, 2.5, 3.5) for c in (1.0, 1.5, 3.0)]
HS = [MomentFunction(power=s, log_factor_nu=nu) for s in (0.5, 1.0, 2.0) for nu in (None, 1)]
LEVELS = (0.0, 0.5, 1.2, 2.0, 2.5, 7.0, 1e3)  # about the cutoffs and the log kink at 2


def quadrature_mass(law, h, x):
    """int h(u) alpha c^alpha u^(-alpha-1) du over (max(c, x), inf), split at the log kinks."""
    alpha, c = law.alpha, law.cutoff
    res = integrate_tail_blocks(lambda u: h(u) * alpha * c**alpha * u ** (-alpha - 1.0),
                                max(c, x), breakpoints_in=lambda lo, hi: tuple(
                                    k for k in LOG_CHAIN_KINKS if lo < k < hi))
    return res.value, res.partial


@pytest.mark.parametrize("law", LAWS, ids=lambda d: f"a{d.alpha}-c{d.cutoff}")
def test_pareto_kernel_matches_quadrature(law):
    compared = 0
    for h, x in itertools.product(HS, LEVELS):
        got = pareto_power_mass(law, h, x)
        want, partial = quadrature_mass(law, h, x)
        if law.alpha <= h.power:
            assert got == math.inf, (h, x)
        elif math.isfinite(want):
            assert got == pytest.approx(want, rel=0, abs=QUAD_ABS_TOL), (h, x)
            compared += 1
        else:  # the blocks decay too slowly to certify: their sum is a lower bound
            assert partial <= got < math.inf, (h, x)
    assert compared >= 14


def test_cell_helpers_take_the_pareto_kernel():
    law = model.ParetoTail(alpha=3.0, cutoff=1.5)
    for h in HS:
        assert moments.cell_moment(law, h) == pareto_power_mass(law, h, 0.0)
        for a in (0.5, 4.0, 30.0):
            if h.log_factor_nu is not None:  # a ui transform is a power
                with pytest.raises(ValueError):
                    moments.cell_transformed_tail_mass(law, h, a)
                continue
            assert moments.cell_transformed_tail_mass(law, h, a) == \
                pareto_power_mass(law, h, a ** (1.0 / h.power))


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 3.0])
def test_ui_mass_of_a_pareto_cell_is_the_kernel_at_the_level_root(alpha):
    # the level a of x^s is the level a^(1/s) of |X|, bit for bit; a <= 0 is level 0
    law = model.ParetoTail(alpha=alpha)
    for s in (0.5, 1.0, 2.0):
        t = MomentFunction(power=s)
        for a in (0.0, 0.25, 1.0, 1.7, 2.0**20, 1e100, math.inf):
            got = moments.cell_transformed_tail_mass(law, t, a)
            assert got.hex() == pareto_power_mass(law, t, a ** (1.0 / s)).hex(), (s, a)
            assert math.isinf(got) == (alpha <= s), (s, a)
        assert moments.cell_transformed_tail_mass(law, t, -3.0) == pareto_power_mass(law, t, 0.0)
    # a^(1/s) past float range, for a float and an int level: no mass above it
    for a in (1e300, 2**4200):
        assert moments.cell_transformed_tail_mass(law, MomentFunction(power=0.5), a) == 0.0


def test_other_moment_functions_keep_the_quadrature():
    # nu = 2 integrates h against the density; the reference is scipy's quad
    # of the same density, split at the log chain's kinks
    from scipy.integrate import quad

    law = model.ParetoTail(alpha=3.0)
    h = MomentFunction(power=1.0, log_factor_nu=2)
    edges = (1.0, *LOG_CHAIN_KINKS, math.inf)
    want = math.fsum(quad(lambda u: h(u) * 3.0 * u**-4.0, lo, hi, epsabs=1e-14)[0]
                     for lo, hi in zip(edges, edges[1:]))
    got = moments.cell_moment(law, h)
    assert isinstance(got, moments.ExpectationValue) and got.converged
    assert got == pytest.approx(want, rel=0, abs=QUAD_ABS_TOL)
