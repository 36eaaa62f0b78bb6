"""Expectation machinery built on the tail-integral identity.

For a nonnegative variable xi with tail T(x) = P(xi > x) and a function h with
h(0) = 0, differentiable off a finite set of breakpoints,

    E h(xi) = int_0^inf h'(t) T(t) dt,
    E(h(xi) 1(xi <= x)) = int_0^x h'(t) T(t) dt - h(x) T(x),
    E(h(xi) 1(xi > x)) = h(x) T(x) + int_x^inf h'(t) T(t) dt.

Every expectation of a tail goes through one kernel: a cell's law (a step
law or a Pareto law) or a tail that is no cell's law, such as an array's
Cesaro sup.  A tail with atoms sums h(m) p over its atoms m in the range,
correctly rounded (``math.fsum``); any other tail integrates the caller's
integrand, h'(t) T(t) or h times a density, by adaptive quadrature split at
the tail's knots, with the dyadic block rule of :mod:`llnlab.numerics`
standing in for an infinite upper limit.  Divergent integrals return an inf
marker that still carries the partial value at the cutoff.  A Pareto cell's
power moments, x^s and x^s log x, have one closed form
(:func:`pareto_power_mass`), also above the level a^(1/s) of a ``ui`` mass;
its other log-chain moments integrate g against the law's density, so no
log chain is ever differentiated.

Every h and g passed in is called directly: a :class:`MomentFunction` or
any other callable, which also needs a ``derivative`` where a tail without
atoms is integrated.  A ``ui`` transform t is a power x^s.

The module also houses the weighted moment scans used by the domination and
condition checks: bounded weighted moments and weighted uniform
integrability.  The scans take a :class:`MomentFunction`, evaluated at every
step magnitude of a row table in one array pass (:meth:`MomentFunction.at`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import svf as _svf
from .model import (
    ArraySpec,
    DistSpec,
    ParetoTail,
    SymmetricTwoPoint,
    TailFunction,
    WeightScheme,
    DEFAULT_N_SUP,
    less_than,
    row_table,
    tail_of,
)
from .numerics import MAX_BLOCKS, finite_integral, integrate_tail_blocks


class ExpectationValue(float):
    """A float expectation; inf when the tail blocks never certified convergence.

    ``partial`` holds the accumulated value at the integration cutoff and
    ``converged`` says whether the block rule certified the integral.
    """

    partial: float
    converged: bool

    def __new__(cls, value, partial=None, converged=True):
        obj = super().__new__(cls, value)
        obj.partial = float(value if partial is None else partial)
        obj.converged = bool(converged)
        return obj


class SupValue(float):
    """sup over a scanned row range, with the attaining row and a growth flag;
    not ``settled`` when some law's tail blocks never certified its moment."""

    attained_at: int
    growing: bool
    settled: bool

    def __new__(cls, value, attained_at=0, growing=False, settled=True):
        obj = super().__new__(cls, value)
        obj.attained_at = int(attained_at)
        obj.growing = bool(growing)
        obj.settled = bool(settled)
        return obj


# ---------------------------------------------------------------------------
# Moment functions g(x) = x^p * [iterated-log factor]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentFunction:
    """Composite x^power * log-product factor.

    ``log_factor_nu``, if not None, multiplies by log_nu(x).
    """

    power: float
    log_factor_nu: Optional[int] = None

    def __post_init__(self):
        if not (self.power > 0):
            raise ValueError("power must be positive")

    def eval(self, x: float) -> float:
        x = float(x)
        if x <= 0.0:
            return 0.0
        out = x**self.power
        if self.log_factor_nu is not None:
            out *= _svf.log_nu(x, self.log_factor_nu)
        return out

    __call__ = eval

    def at(self, xs: np.ndarray) -> np.ndarray:
        """``eval`` of each element of ``xs``, bitwise: the scalar ``**`` of each
        element above 0, times ``svf.log_nu_at``; 0.0 elsewhere."""
        xs = np.asarray(xs, dtype=float)
        pos = np.flatnonzero(xs > 0.0)
        x = xs[pos]
        out = np.zeros_like(xs)
        out[pos] = np.fromiter(map(pow, x.tolist(), itertools.repeat(self.power)),
                               dtype=float, count=len(pos))
        if self.log_factor_nu is not None:
            out[pos] *= _svf.log_nu_at(x, self.log_factor_nu)
        return out

    def derivative(self, x: float) -> float:
        """s x^(s-1): the power rule; a log factor is never differentiated."""
        if self.log_factor_nu is not None:
            raise ValueError("a log-factor moment function has no derivative here")
        x = float(x)
        if x <= 0.0:
            return 0.0
        return self.power * x ** (self.power - 1.0)


# ---------------------------------------------------------------------------
# Core expectation via the tail decomposition
# ---------------------------------------------------------------------------


def _atom_sum(atoms, h, lo: float = 0.0, hi: float = math.inf) -> float:
    """Sum of h(m) p over the atoms (m, p) with lo < m <= hi, correctly rounded."""
    return math.fsum(h(m) * p for m, p in atoms if lo < m <= hi)


def _tail_integral(
    tail: TailFunction, f, lo: float, hi=math.inf, *, head=0.0, extra=(), max_blocks=MAX_BLOCKS
) -> ExpectationValue:
    """head + int_lo^hi f for the caller's integrand f(t) = h'(t) P(|X| > t).

    Pieces split at the tail's knots and at ``extra``.  A finite ``hi`` is one
    adaptive quadrature; hi = inf walks dyadic blocks and gives the inf marker
    when they never certify convergence.
    """

    def breaks(a: float, b: float) -> tuple[float, ...]:
        return tuple(p for p in extra if a < p < b) + tail.knots_in(a, b)

    if not math.isinf(hi):
        return ExpectationValue(head + finite_integral(f, lo, hi, breakpoints=breaks(lo, hi)))
    res = integrate_tail_blocks(f, lo, breakpoints_in=breaks, max_blocks=max_blocks)
    if not res.converged:
        return ExpectationValue(math.inf, partial=head + res.partial, converged=False)
    return ExpectationValue(head + res.value)


def expectation_via_tail(
    tail: TailFunction, h, A: float = 0.0, *, max_blocks: int = MAX_BLOCKS
) -> ExpectationValue:
    """E h(|X|) by the tail-integral decomposition split at A.

    ``h`` is a :class:`MomentFunction` or any callable; a tail without atoms
    also needs ``h.derivative``.  The result is A-invariant for h
    differentiable on [0, inf).  ``max_blocks`` extends the dyadic budget for
    tails that converge too slowly for the default ``MAX_BLOCKS``.
    """
    if tail.atoms is not None:
        return ExpectationValue(_atom_sum(tail.atoms, h))

    h_deriv = h.derivative

    def integrand(t: float) -> float:
        return h_deriv(t) * tail.fn(t)

    below = float(_tail_integral(tail, integrand, 0.0, A)) if A > 0.0 else 0.0
    return _tail_integral(tail, integrand, A, head=below, max_blocks=max_blocks)


def truncated_abs_moment(
    tail: TailFunction, r: float, x: float, side: str
) -> ExpectationValue:
    """E(|X|^r 1(|X| <= x)) for side='below', E(|X|^r 1(|X| > x)) for 'above'; r > 0, x >= 0."""
    if not (r > 0):
        raise ValueError("r must be positive")
    if x < 0:
        raise ValueError(f"truncation level x must be >= 0, got {x}")
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    lo, hi = (0.0, x) if side == "below" else (x, math.inf)
    if tail.atoms is not None:
        return ExpectationValue(_atom_sum(tail.atoms, lambda m: m**r, lo, hi))

    def integrand(t: float) -> float:
        return r * t ** (r - 1.0) * tail.fn(t)

    head = x**r * tail.fn(x)  # below: int_0^x integrand - head; above: head + int_x^inf
    return _tail_integral(tail, integrand, lo, hi, head=-head if side == "below" else head)


# ---------------------------------------------------------------------------
# Per-cell helpers (exact for discrete specs)
# ---------------------------------------------------------------------------


def pareto_power_mass(law: ParetoTail, h: MomentFunction, x: float) -> float:
    """E(|X|^s L(|X|) 1(|X| > x)) for a Pareto law, exactly; inf when alpha <= s.

    h is x^s L(x) with L = 1, or L = log x (``log_factor_nu`` 1, the clamped
    base-2 log).  |X| has density alpha c^alpha u^(-alpha-1) on (c, inf), so
    with t = max(c, x) and sigma = s - alpha < 0,

        int_t^inf u^s alpha c^alpha u^(-alpha-1) du = alpha c^s (t/c)^sigma / (-sigma).

    The log factor is 1 up to K = max(t, 2), which leaves the same form on
    (t, K), and above K the antiderivative
    int_K^inf u^(sigma-1) ln u du = K^sigma (1/sigma^2 - ln K / sigma),
    divided by ln 2.
    """
    alpha, c, s = law.alpha, law.cutoff, h.power
    sigma = s - alpha
    if not sigma < 0.0:
        return math.inf
    t = max(c, x)
    scale = alpha * c**s  # alpha c^alpha u^sigma = scale (u/c)^sigma
    if h.log_factor_nu is None:
        return scale * (t / c) ** sigma / -sigma
    k = max(t, 2.0)
    flat = scale * ((t / c) ** sigma - (k / c) ** sigma) / -sigma
    logged = scale * (k / c) ** sigma * (1.0 / (sigma * sigma * math.log(2.0))
                                         - math.log2(k) / sigma)
    return flat + logged


def cell_moment(dist: DistSpec, g) -> float:
    """E g(|X|) for a single cell: an atom sum for a step law.  A Pareto law
    takes x^s and x^s log x from :func:`pareto_power_mass` (inf when alpha <=
    s); any other log chain integrates g against its density, an
    :class:`ExpectationValue` split at the chain's kinks."""
    if not isinstance(dist, ParetoTail):
        return float(expectation_via_tail(tail_of(dist), g))
    if g.log_factor_nu in (None, 1) or dist.alpha <= g.power:
        return pareto_power_mass(dist, g, 0.0)
    alpha, c = dist.alpha, dist.cutoff

    def integrand(u: float) -> float:
        return g(u) * (alpha / c) * (u / c) ** (-alpha - 1.0)

    return _tail_integral(tail_of(dist), integrand, c, extra=_svf.LOG_CHAIN_KINKS)


def cell_transformed_tail_mass(dist: DistSpec, t, a: float) -> float:
    """E(t(|X|) 1(t(|X|) > a)) for one cell under a power t = x^s.

    A step law gives t(m) q when t(m) > a.  A Pareto law's mass lies above
    x_a = a^(1/s), where :func:`pareto_power_mass` gives it in closed form.
    A :class:`MomentFunction` with a log factor is refused: no ``ui`` run
    transforms by one.
    """
    if getattr(t, "log_factor_nu", None) is not None:
        raise ValueError("the transform must be a power x^s, without a log factor")
    if isinstance(dist, SymmetricTwoPoint):
        v = t(dist.magnitude)
        return v * dist.prob if v > a else 0.0
    try:
        x_a = max(a, 0.0) ** (1.0 / t.power)
    except OverflowError:  # a^(1/s) past float range: the mass above inf
        x_a = math.inf
    return pareto_power_mass(dist, t, x_a)


def clamped_square_mean(dist: DistSpec, a: float) -> float:
    """E (X clamped to [-a,a])^2 = E(|X|^2 1(|X|<=a)) + a^2 P(|X|>a)."""
    tail = tail_of(dist)
    below = truncated_abs_moment(tail, 2.0, a, "below")
    return float(below) + a * a * tail.fn(a)


# ---------------------------------------------------------------------------
# Weighted scans
# ---------------------------------------------------------------------------


def _sup_with_growth(values: np.ndarray, settled: bool = True) -> SupValue:
    if np.any(np.isinf(values)):
        n = int(np.argmax(np.isinf(values))) + 1
        return SupValue(math.inf, attained_at=n, growing=True, settled=settled)
    idx = int(np.argmax(values))
    half = len(values) // 2
    growing = False
    if half >= 1:
        growing = values[half:].max() > values[:half].max() * 1.01 + 1e-300
    return SupValue(float(values[idx]), attained_at=idx + 1, growing=growing, settled=settled)


def bounded_moment_condition(
    arr: ArraySpec, w: WeightScheme, g: MomentFunction, *, n_sup: int = DEFAULT_N_SUP
) -> SupValue:
    """sup_n sum_i a(n,i) E g(|X[n,i]|) over the scan range.

    The float result carries ``attained_at`` and a ``growing`` flag; growth
    across the scan is how divergence shows up (no exception).  A law whose
    moment is finite but whose tail blocks never certified it enters with its
    partial sum, and the result is not ``settled``.
    """
    table = row_table(arr, w, n_sup)
    steps = g.at(table.mag) * table.prob
    laws = []  # each other law's moment, an ExpectationValue where integrated

    def law_moment(d: DistSpec) -> float:
        laws.append(cell_moment(d, g))
        return getattr(laws[-1], "partial", laws[-1])

    values = table.split_row_values(steps, law_moment)
    return _sup_with_growth(values, all(getattr(m, "converged", True) for m in laws))


def ui_check(
    arr: ArraySpec,
    w: WeightScheme,
    transform: MomentFunction,
    a_grid: Sequence[float],
    *,
    n_sup: int = DEFAULT_N_SUP,
    closed_sup: Optional[Callable[[float], float]] = None,
) -> list[float]:
    """Weighted uniform-integrability sequence over truncation levels.

    Entry for level a: sup_n sum_i a(n,i) E(t(|X[n,i]|) 1(t(|X[n,i]|) > a)).
    ``closed_sup`` (when a fixture provides the exact sup over all n) replaces
    the finite row scan.  Otherwise one row table serves every level: t(m) is
    evaluated once per step law, in one array pass (``MomentFunction.at``),
    and a level's step values are
    ``where(t(m) > a, t(m) * q, 0.0)``, the values of
    :func:`cell_transformed_tail_mass`; only the Pareto laws go through that
    function, once per level.
    """
    if closed_sup is not None:
        return [float(closed_sup(a)) for a in a_grid]
    table = row_table(arr, w, n_sup)
    t_m = transform.at(table.mag)
    t_mass = t_m * table.prob
    return [
        float(np.max(table.split_row_values(
            np.where(less_than(a, t_m), t_mass, 0.0),
            lambda d: cell_transformed_tail_mass(d, transform, a),
        )))
        for a in a_grid
    ]

