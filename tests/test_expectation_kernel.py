"""The one tail-expectation kernel of ``llnlab.moments`` against the code it replaced.

Before the kernel, ``expectation_via_tail``, ``truncated_abs_moment`` and
``cell_transformed_tail_mass`` each wrote out the tail-integral identity
E h(|X|) = int h'(t) P(|X| > t) dt themselves, atoms went through a
telescoped walk (``_discrete_expectation``).  The ``ref_*`` functions below
are those bodies.  On every tail without atoms the kernel must give the same
bits, ``partial`` and ``converged``; on step laws it gives the correctly
rounded atom sum, which the telescoped walk missed in the last bit.
A Pareto cell's mass above a level of a power t = x^s has its exact
antiderivative instead, at a^(1/s), which meets the quadrature to
``QUAD_ABS_TOL`` where that converges.
"""

import itertools
import math

import pytest

from llnlab import model, moments, numerics
from llnlab.fixtures import load
from llnlab.moments import ExpectationValue, MomentFunction
from llnlab.numerics import MAX_BLOCKS, QUAD_ABS_TOL, finite_integral, integrate_tail_blocks

# ---------------------------------------------------------------------------
# references: the bodies the kernel replaced
# ---------------------------------------------------------------------------


def ref_discrete_expectation(atoms, h, A):
    """Exact decomposition for purely discrete |X|: atom sums + telescoped tail."""
    srt = sorted(atoms)
    below = math.fsum(h(m) * p for m, p in srt if m <= A and m > 0.0)
    above = [(m, p) for m, p in srt if m > A]
    tail_at_a = math.fsum(p for _, p in above)
    integral = 0.0
    cur, t_cur = A, tail_at_a
    for m, p in above:
        integral += t_cur * (h(m) - h(cur))
        t_cur -= p
        cur = m
    return below + h(A) * tail_at_a + integral


def ref_expectation_via_tail(tail, h, A=0.0, *, max_blocks=MAX_BLOCKS):
    h_eval = h.eval if hasattr(h, "eval") else h
    if tail.atoms is not None:
        return ExpectationValue(ref_discrete_expectation(tail.atoms, h_eval, A))

    h_deriv = h.derivative

    def integrand(t):
        return h_deriv(t) * tail.fn(t)

    below = 0.0
    if A > 0.0:
        below = finite_integral(integrand, 0.0, A, breakpoints=tail.knots_in(0.0, A))

    res = integrate_tail_blocks(integrand, A, breakpoints_in=tail.knots_in,
                                max_blocks=max_blocks)
    if not res.converged:
        return ExpectationValue(math.inf, partial=below + res.partial, converged=False)
    return ExpectationValue(below + res.value)


def ref_truncated_abs_moment(tail, r, x, side):
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    if tail.atoms is not None:
        if side == "below":
            val = math.fsum(m**r * p for m, p in tail.atoms if 0.0 < m <= x)
        else:
            val = math.fsum(m**r * p for m, p in tail.atoms if m > x)
        return ExpectationValue(val)

    def integrand(t):
        return r * t ** (r - 1.0) * tail.fn(t)

    if side == "below":
        val = finite_integral(integrand, 0.0, x, breakpoints=tail.knots_in(0.0, x))
        return ExpectationValue(val - x**r * tail.fn(x))
    res = integrate_tail_blocks(
        integrand, x, breakpoints_in=lambda lo, hi: tail.knots_in(lo, hi))
    head = x**r * tail.fn(x)
    if not res.converged:
        return ExpectationValue(math.inf, partial=head + res.partial, converged=False)
    return ExpectationValue(head + res.value)


def ref_cell_transformed_tail_mass(dist, t, a):
    t_eval = t.eval if hasattr(t, "eval") else t
    if isinstance(dist, model.SymmetricTwoPoint):
        v = t_eval(dist.magnitude)
        return v * dist.prob if v > a else 0.0
    tail = model.tail_of(dist)
    x_a = max(a, 0.0) ** (1.0 / t.power)

    def integrand(x):
        return t.derivative(x) * tail.fn(x)

    res = integrate_tail_blocks(
        integrand, x_a, breakpoints_in=lambda lo, hi: tail.knots_in(lo, hi))
    head = t_eval(x_a) * tail.fn(x_a)
    return head + (res.value if res.converged else math.inf)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

XS = (0.0, 0.5, 1.0, 2.0, 10.0, 2.0**20)  # split points A, truncation points x, levels a
RS = (0.5, 1.0, 2.0, 3.5)

U01 = model.TailFunction(fn=lambda x: 1.0 if x < 0 else max(0.0, 1.0 - x))


def _tails():
    """Laws without atoms: uniform(0,1), Paretos, and the knotted Cesaro tails."""
    return {
        "uniform": U01,
        **{f"pareto-{a}": model.tail_of(model.ParetoTail(alpha=a)) for a in (1.0, 2.5, 3.0)},
        "x2m": load("x2m-example").cesaro_tail(),
        "wlln": load("wlln-counterexample").cesaro_tail(),
    }


TAILS = _tails()


def _cases(name):
    """(r, x) pairs.  The wlln tail's upper integrals diverge and each walks all
    MAX_BLOCKS blocks of a slow closed form, so they run only at the last x."""
    if name == "wlln":
        return [(r, XS[-1]) for r in (0.5, 2.0)]
    return list(itertools.product(RS, XS))


def same(got, want):
    """Equal bits, and for expectations equal ``partial`` and ``converged``."""
    assert type(got) is type(want)
    assert float(got).hex() == float(want).hex()
    if isinstance(want, ExpectationValue):
        assert float(got.partial).hex() == float(want.partial).hex()
        assert got.converged == want.converged


# ---------------------------------------------------------------------------
# bitwise agreement on laws without atoms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(TAILS))
def test_expectation_via_tail_matches_reference(name):
    tail = TAILS[name]
    for r, A in _cases(name):
        h = MomentFunction(power=r)
        same(moments.expectation_via_tail(tail, h, A=A), ref_expectation_via_tail(tail, h, A=A))


@pytest.mark.parametrize("name", list(TAILS))
def test_truncated_abs_moment_matches_reference(name):
    tail = TAILS[name]
    for r, x in _cases(name):
        same(moments.truncated_abs_moment(tail, r, x, "above"),
             ref_truncated_abs_moment(tail, r, x, "above"))
    for r, x in itertools.product(RS, XS):  # the lower side is cheap on every tail
        same(moments.truncated_abs_moment(tail, r, x, "below"),
             ref_truncated_abs_moment(tail, r, x, "below"))


def test_divergent_upper_mass_keeps_its_partial():
    tail = TAILS["pareto-1.0"]
    got = moments.truncated_abs_moment(tail, 1.0, 2.0, "above")
    assert math.isinf(got) and not got.converged and 0.0 < got.partial < math.inf
    same(got, ref_truncated_abs_moment(tail, 1.0, 2.0, "above"))


@pytest.mark.parametrize("step", [(2.0, 0.5), (4.0, 0.25), (10.0, 1.0), (1.0, 1.0)])
def test_truncated_abs_moment_on_steps_matches_reference(step):
    # x runs through the atom itself: m = x is below, not above
    tail = model.tail_of(model.SymmetricTwoPoint(*step))
    for r, x in itertools.product(RS, XS + step[:1]):
        for side in ("below", "above"):
            same(moments.truncated_abs_moment(tail, r, x, side),
                 ref_truncated_abs_moment(tail, r, x, side))


@pytest.mark.parametrize("dist", [
    model.ParetoTail(alpha=1.0),
    model.ParetoTail(alpha=2.5),
    model.SymmetricTwoPoint(3.0, 0.5),
], ids=["pareto-1", "pareto-2.5", "step"])
def test_cell_transformed_tail_mass_matches_reference(dist):
    transforms = (MomentFunction(power=0.5), MomentFunction(power=2.0))
    for t, a in itertools.product(transforms, XS):
        got = moments.cell_transformed_tail_mass(dist, t, a)
        want = ref_cell_transformed_tail_mass(dist, t, a)
        if isinstance(dist, model.ParetoTail):  # the closed form, not the quadrature
            assert math.isinf(got) == (dist.alpha <= t.power), (t, a)
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=0, abs=QUAD_ABS_TOL), (t, a)
            continue
        same(got, want)


def test_every_quadrature_goes_through_numerics_quad(monkeypatch):
    # numerics.quad is the one patch point: the block quadrature fails once it is gone
    monkeypatch.setattr(numerics, "quad", None)
    with pytest.raises(TypeError):
        moments.expectation_via_tail(U01, MomentFunction(power=2.0))


# ---------------------------------------------------------------------------
# step laws: the correctly rounded atom sum
# ---------------------------------------------------------------------------

HS = (
    MomentFunction(power=0.5),
    MomentFunction(power=1.0, log_factor_nu=1),
    MomentFunction(power=1.3, log_factor_nu=1),
    MomentFunction(power=2.0),
    MomentFunction(power=3.7),
)
STEPS = list(itertools.product((2.5, 3.0, 8.0 / 3.0, 7.0, 10.5, 100.0 / 3.0),
                               (1.0, 0.5, 0.1, 1.0 / 3.0, 0.7)))


def test_step_expectation_is_the_exact_atom_sum():
    # the telescoped walk h(A) T(A) + sum T (h(m) - h(prev)) rounds differently
    # for A below the atom; the atom sum is h(m) q correctly rounded
    for h, (m, q), A in itertools.product(HS, STEPS, (0.0, 0.5, 2.0, 3.0, 10.0)):
        tail = model.tail_of(model.SymmetricTwoPoint(m, q))
        want = math.fsum(h.eval(mm) * p for mm, p in tail.atoms if mm > 0.0)
        got = moments.expectation_via_tail(tail, h, A=A)
        assert float(got).hex() == want.hex(), (h, m, q, A)
        # the same sum as the telescoped walk, up to its rounding
        assert got == pytest.approx(ref_discrete_expectation(tail.atoms, h.eval, A),
                                    rel=1e-14)
