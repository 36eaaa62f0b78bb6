"""Shared numeric machinery: improper-integral block sums and limit gates.

The symbol "infinity" is replaced everywhere by stated stopping rules, each
reading its thresholds from one named constant:

* Integrals over [A, inf) are summed over dyadic blocks [2^j, 2^(j+1)], each
  by adaptive quadrature to ``QUAD_ABS_TOL`` (1e-9), where no closed form
  serves: the chandra-ghosal blocks of a step source are exact sums over its
  pieces, and a Pareto law's power moments one antiderivative
  (``moments.pareto_power_mass``).  A block
  below ``BLOCK_TOL`` (1e-12) certifies convergence for nonincreasing integrands;
  ``MAX_BLOCKS`` (60) blocks without that certificate yield a divergence
  marker carrying the partial value.
* A fitted log2-slope of the last ``FLAT_RUN`` (10) positive blocks at or
  above -``conditions.FLAT_SLOPE_TOL`` (-0.15) certifies a divergent integral
  or series (:func:`fitted_block_slope`).
* "Decays to 0" for a sequence on a geometric grid means: last
  ``DECAY_WINDOW`` (5) values below ``DECAY_EPS`` (1e-3) and nonincreasing.
  A second certificate accepts sequences of at least ``SLOPE_MIN_POINTS`` (8)
  values that are positive, nonincreasing, and fit a power law in the grid
  index with slope <= ``SLOPE_MAX`` (-1/2) and residuals at most
  ``SLOPE_MAX_RESIDUAL`` (1) over the second half (this covers
  exact-closed-form sequences that reach 0 at a 1/log rate, far too slowly for
  any float-feasible grid to cross the eps threshold).
* "Grows" means weakly growing over the second half and ending above
  ``DECAY_EPS``.

:func:`quad` is the single quadrature entry of the package: every adaptive
integral goes through :func:`finite_integral`, its one caller, and it imports
``scipy.integrate`` on its first call, so a run that integrates nothing
never loads scipy: ``verify-fixtures`` and the checks of step and Pareto
cells at nu <= 1 do not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

DECAY_EPS = 1e-3
DECAY_WINDOW = 5
BLOCK_TOL = 1e-12
MAX_BLOCKS = 60
QUAD_ABS_TOL = 1e-9
FLAT_RUN = 10
SLOPE_MAX = -0.5
SLOPE_MAX_RESIDUAL = 1.0
SLOPE_MIN_POINTS = 8


def quad(f: Callable[[float], float], a: float, b: float, **options) -> tuple[float, float]:
    """``scipy.integrate.quad(f, a, b, **options)``, imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **options)


def geometric_grid(j0: int = 0, j1: int = 60) -> tuple[float, ...]:
    return tuple(2.0**j for j in range(j0, j1 + 1))


def _exact_product(k, t) -> float:
    """float(k * t), exact when t is a Fraction or k an int past 2^53 (where
    float(k) rounds); a float product otherwise."""
    if isinstance(t, Fraction) or (isinstance(k, int) and k > 2**53):
        return float(Fraction(k) * Fraction(t))
    return float(k) * float(t)


def finite_integral(
    f: Callable[[float], float], a: float, b: float, *, breakpoints: Sequence[float] = ()
) -> float:
    """Adaptive quadrature on [a, b] to ``QUAD_ABS_TOL``, split at interior breakpoints.

    scipy's ``IntegrationWarning`` is silenced.  It fires on integrands with
    jumps that are not among the breakpoints, and there the result can miss
    by far more than the tolerance: quad over the knotless scanned sup of
    example-4.1 missed a chandra-ghosal block by 5.5e-8, and over
    example-2.1's closed sup, whose knots it was not given past 130 a block,
    by 1.5e-8 relative.  A step source, those two among them (example-2.1's
    under a constant L only), is therefore summed exactly by
    ``conditions.chandra_ghosal_integral``, its G never read at quadrature
    nodes; any other step integrand passes the jumps it knows as breakpoints.
    """
    if b <= a:
        return 0.0
    pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    from scipy.integrate import IntegrationWarning

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(pts[:-1], pts[1:]):
            val, _ = quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)
            total += val
    return total


@dataclass(frozen=True)
class BlockIntegral:
    value: float  # inf when not converged
    partial: float
    converged: bool
    blocks: tuple[float, ...]


def integrate_tail_blocks(
    f: Callable[[float], float],
    start: float,
    *,
    breakpoints_in: Callable[[float, float], Sequence[float]] = lambda lo, hi: (),
    max_blocks: int = MAX_BLOCKS,
) -> BlockIntegral:
    """Sum integral(f) over dyadic blocks from ``start`` toward infinity.

    An integrand that vanishes past some point stops the walk at the first
    block of it: a zero block certifies convergence like any block below
    ``BLOCK_TOL``.
    """
    lo = max(start, 0.0)
    total = 0.0
    blocks: list[float] = []
    # first partial block up to the next power of two
    first_hi = 2.0 ** math.ceil(math.log2(lo)) if lo > 0 else 1.0
    if first_hi <= lo:
        first_hi = 2.0 * lo
    total += finite_integral(f, lo, first_hi, breakpoints=breakpoints_in(lo, first_hi))
    lo = first_hi
    for _ in range(max_blocks):
        hi = 2.0 * lo
        b = finite_integral(f, lo, hi, breakpoints=breakpoints_in(lo, hi))
        blocks.append(b)
        total += b
        lo = hi
        if abs(b) < BLOCK_TOL:
            return BlockIntegral(total, total, True, tuple(blocks))
    return BlockIntegral(math.inf, total, False, tuple(blocks))


# ---------------------------------------------------------------------------
# Limit gates for sequences on geometric grids
# ---------------------------------------------------------------------------


def nonincreasing(values: Sequence[float], tol: float = 1e-12) -> bool:
    v = list(values)
    return all(b <= a + tol for a, b in zip(v[:-1], v[1:]))


def decay_gate(values: Sequence[float]) -> bool:
    """Last ``DECAY_WINDOW`` values below ``DECAY_EPS`` and nonincreasing."""
    v = list(values)
    if len(v) < DECAY_WINDOW:
        return False
    tail = v[-DECAY_WINDOW:]
    return all(t < DECAY_EPS for t in tail) and nonincreasing(tail)


def slope_certified_decay(values: Sequence[float]) -> bool:
    """Power-law-in-index decay certificate for positive nonincreasing sequences.

    Fits log(v_j) against log(j) over the second half of the grid; a fitted
    slope <= ``SLOPE_MAX`` with residuals at most ``SLOPE_MAX_RESIDUAL``
    certifies v_j -> 0 even when the values never cross the eps threshold on
    a feasible grid.
    """
    v = np.asarray([float(x) for x in values])
    if len(v) < SLOPE_MIN_POINTS or np.any(v <= 0.0):
        return False
    if not nonincreasing(v, tol=1e-12 * max(1.0, float(v[0]))):
        return False
    half = len(v) // 2
    ys = np.array([math.log(x) for x in v[half:].tolist()])  # libm's log on every CPU
    xs = np.array([math.log(j) for j in range(half + 1, len(v) + 1)])
    if np.ptp(xs) <= 0:
        return False
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return slope <= SLOPE_MAX and float(np.max(np.abs(resid))) <= SLOPE_MAX_RESIDUAL


def growth_gate(values: Sequence[float]) -> bool:
    """Sequence is (weakly) growing over its second half and ends above ``DECAY_EPS``."""
    v = [float(x) for x in values]
    if len(v) < 4:
        return False
    half = len(v) // 2
    tail = v[half:]
    growing = all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(tail[:-1], tail[1:]))
    return growing and tail[-1] > DECAY_EPS and tail[-1] >= v[0] - 1e-12


def fitted_block_slope(blocks: Sequence[float]) -> float | None:
    """Least-squares slope of log2(block) over the last ``FLAT_RUN`` positive blocks.

    For integrands ~ x^s on dyadic blocks the slope equals s + 1, so a slope
    near 0 or above means the underlying integral/series diverges.
    """
    b = [x for x in blocks if x > 0.0]
    if len(b) < FLAT_RUN:
        return None
    window = np.array([math.log2(x) for x in b[-FLAT_RUN:]])  # libm's log2 on every CPU
    xs = np.arange(FLAT_RUN, dtype=float)
    slope, _ = np.polyfit(xs, window, 1)
    return float(slope)
