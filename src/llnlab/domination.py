"""Domination functionals and the dominating-distribution construction.

Three notions are checked for an array {X[n,i]} and weights {a(n,i)} with
C0 = sup_n sum_i a(n,i) finite and positive:

* plain domination:    sup_{n,i} P(|X[n,i]| > x) <= P(|X| > x)
* Cesaro domination:   sup_n (1/k_n) sum_i P(|X[n,i]| > x) <= P(|X| > x)
* weighted domination: sup_n sum_i a(n,i) P(|X[n,i]| > x) <= C0 P(|X| > x)

The weighted sup S(x) always defines F(x) = 1 - S(x)/C0, nondecreasing and
right continuous; F is a genuine distribution function exactly when S
vanishes at infinity, which the report decides with the stated grid gate.
When it does, the constructed X attains the weighted bound with equality,
which is also why an (S <= C * Y-tail) hypothesis for any Y transfers to the
canonical X.

Suprema over n are evaluated over a finite scan range (default 10^4 rows)
unless the array or weight scheme carries a closed-form sup, which is then
always used; reports state the range used.  A scan reads one
:class:`~llnlab.model.RowTable` per (array, weights, n_sup) from
:func:`~llnlab.model.row_table`, which keeps the two last built, and
evaluates it at each x, so callers that need S at many points read the table
once and close over it (:func:`cesaro_sup_fn`, :func:`weighted_sup_fn`, each
one ``TailFunction``, closed or scanned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DominationPrecheckError
from .model import (
    ArraySpec,
    TailFunction,
    WeightScheme,
    DEFAULT_N_SUP,
    less_than,
    row_table,
    tail_of,
    uniform_weights,
)
from .moments import MomentFunction, truncated_abs_moment
from .numerics import DECAY_EPS, decay_gate, geometric_grid


@dataclass(frozen=True)
class DominationReport:
    """Grid evidence for one domination decision."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    scan_n: int
    c0: float
    valid: bool
    cdf: Optional[TailFunction] = None  # tail of the constructed X, when valid
    closed_form: bool = False

    def to_json_obj(self) -> dict:
        return {
            "grid": list(self.grid),
            "values": list(self.values),
            "valid": self.valid,
            "c0": self.c0,
            "scan_n": self.scan_n,
            "closed_form": self.closed_form,
            "eps_lim": DECAY_EPS,  # the decay gate's threshold
        }


# ---------------------------------------------------------------------------
# The two tail-sup functionals
# ---------------------------------------------------------------------------


def _closed_sup(arr: ArraySpec, w: WeightScheme) -> Optional[Callable]:
    """The closed form that serves sup_n sum_i a(n,i) P(|X[n,i]| > x), if any:
    the scheme's own, else under uniform weights the array's Cesaro sup."""
    if w.closed_weighted_sup is not None:
        return w.closed_weighted_sup
    return arr.closed_cesaro_sup if w.kind == "uniform" else None


def cesaro_sup_fn(arr: ArraySpec, *, n_sup: int = DEFAULT_N_SUP) -> TailFunction:
    """x -> sup_n (1/k_n) sum_i P(|X[n,i]| > x): the closed form or one row table."""
    return weighted_sup_fn(arr, uniform_weights(arr.row_length), n_sup=n_sup)


def weighted_sup_fn(
    arr: ArraySpec, w: WeightScheme, *, n_sup: int = DEFAULT_N_SUP
) -> TailFunction:
    """x -> sup_n sum_i a(n,i) P(|X[n,i]| > x) as one ``TailFunction``.

    A closed form is wrapped bare: no knots, not ``step``.  A scan reads
    ``RowTable.sup`` with the table's step magnitudes as knots, and is
    ``step`` when every scanned law is a step law: the sup is constant
    between those knots, and ``chandra_ghosal_integral`` sums it piece by
    piece.  A table that also holds other laws only splits quadrature there.
    """
    closed = _closed_sup(arr, w)
    if closed is not None:
        return TailFunction(fn=closed)
    table = row_table(arr, w, n_sup)
    return TailFunction(fn=table.sup, knot_fn=table.knots_in, step=not table.others)


def cesaro_tail_sup(arr: ArraySpec, x: float, *, n_sup: int = DEFAULT_N_SUP) -> float:
    """sup_n (1/k_n) sum_i P(|X[n,i]| > x) over the scan range (or closed form)."""
    return cesaro_sup_fn(arr, n_sup=n_sup).fn(x)


def weighted_tail_sup(
    arr: ArraySpec, w: WeightScheme, x: float, *, n_sup: int = DEFAULT_N_SUP
) -> float:
    """sup_n sum_i a(n,i) P(|X[n,i]| > x) over the scan range (or closed form)."""
    return weighted_sup_fn(arr, w, n_sup=n_sup).fn(x)


# ---------------------------------------------------------------------------
# Dominating-distribution construction
# ---------------------------------------------------------------------------


def dominating_cdf(
    arr: ArraySpec, w: WeightScheme, *, n_sup: int = DEFAULT_N_SUP
) -> DominationReport:
    """Build F(x) = 1 - S(x)/C0 from the weighted sup S and gate its validity.

    S is evaluated on ``geometric_grid()``; valid means ``decay_gate``
    certifies S -> 0 there (last ``DECAY_WINDOW`` values below ``DECAY_EPS``
    and nonincreasing).  The report then carries the tail of the constructed
    X, P(X > x) = S(x)/C0, which attains the weighted domination bound with
    equality.  An invalid limit is an outcome, not an exception.
    """
    xs = geometric_grid()
    sup_fn = weighted_sup_fn(arr, w, n_sup=n_sup).fn
    values = tuple(sup_fn(x) for x in xs)
    c0, _ = w.c0(n_sup)
    valid = decay_gate(values)
    cdf = None
    if valid:

        def constructed_tail(x: float) -> float:
            if x < 0.0:
                return 1.0
            return min(1.0, sup_fn(x) / c0)

        cdf = TailFunction(fn=constructed_tail)
    return DominationReport(
        grid=xs,
        values=values,
        scan_n=n_sup,
        c0=c0,
        valid=valid,
        cdf=cdf,
        closed_form=_closed_sup(arr, w) is not None,
    )


# ---------------------------------------------------------------------------
# Truncated moment bounds under Cesaro domination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedMomentBounds:
    below: tuple[float, float]  # (lhs, rhs) for the truncated-below inequality
    above: tuple[float, float]  # (lhs, rhs) for the truncated-above inequality


def cesaro_precheck(
    arr: ArraySpec, y_tail: TailFunction, *, n_sup: int = DEFAULT_N_SUP
) -> None:
    """Raise unless the Cesaro tail sup sits below P(|Y| > x) on ``geometric_grid(0, 40)``."""
    sup_fn = cesaro_sup_fn(arr, n_sup=n_sup).fn
    for x in geometric_grid(0, 40):
        s = sup_fn(x)
        if s > y_tail.fn(x) + 1e-12:
            raise DominationPrecheckError(
                f"Cesaro sup {s} exceeds candidate tail {y_tail.fn(x)} at x={x}"
            )


def truncated_moment_bounds(
    arr: ArraySpec,
    y_tail: TailFunction,
    r: float,
    x: float,
    *,
    n_sup: int = DEFAULT_N_SUP,
) -> TruncatedMomentBounds:
    """Row-averaged truncated r-th moments against their dominating bounds.

    below: sup_n (1/k_n) sum_i E(|X[n,i]|^r 1(|X[n,i]| <= x))
           vs E(|Y|^r 1(|Y| <= x)) + x^r P(|Y| > x)
    above: the same with the truncation reversed vs E(|Y|^r 1(|Y| > x)).
    """
    cesaro_precheck(arr, y_tail, n_sup=n_sup)
    table = row_table(arr, uniform_weights(arr.row_length), n_sup)
    # a step law's truncated moment is m^r q on the side of x where m lies, 0 on the other
    mass = MomentFunction(power=r).at(table.mag) * table.prob
    above = less_than(x, table.mag)

    def lhs(side: str, steps: np.ndarray) -> float:
        return float(np.max(table.split_row_values(
            steps, lambda d: float(truncated_abs_moment(tail_of(d), r, x, side)))))

    lhs_below = lhs("below", np.where(above, 0.0, mass))
    lhs_above = lhs("above", np.where(above, mass, 0.0))
    rhs_below = float(truncated_abs_moment(y_tail, r, x, "below")) + x**r * y_tail.fn(x)
    rhs_above = float(truncated_abs_moment(y_tail, r, x, "above"))
    return TruncatedMomentBounds(
        below=(lhs_below, rhs_below), above=(lhs_above, rhs_above)
    )
