"""The problem record, and the named worked examples with exact closed forms.

A :class:`Problem` is the tuple every hypothesis is about: array, weights, p,
nu, norming b_n and slowly varying L.  A fixture is a problem that also
carries closed-form row sups, expected verdicts and limit grids, so every
other module can be checked against exact values.  The closed forms accept
Python ints and then stay exact (returning ``Fraction`` tails where needed),
which lets the limit gates run on grids far beyond float range when a
condition decays only at a 1/log rate.

The four names:

* ``example-2.1``         - two-block array (half +-1 cells, half +-n cells)
  whose row-averaged tails never fall below 1/2, yet whose two-block weights
  admit a dominating distribution.
* ``example-4.1``         - sequence with rare spikes of size (n+1)^(1/p) at
  rate 1/(n log_nu n): bounded weighted moments, divergent exceedance series.
* ``wlln-counterexample`` - rows of +-1 cells plus one deterministic-magnitude
  cell that carries all the weight; the weighted count-tail limit fails and
  the weighted maximal partial sum blows up like n / log(n)^(1/p).
* ``x2m-example``         - +-1 sequence with spikes at powers of two; no
  single dominating variable exists but the Cesaro construction works and the
  weak law holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import SpecError
from .model import (
    ArraySpec,
    CellGroup,
    NormalizingSequence,
    SymmetricTwoPoint,
    TailFunction,
    WeightScheme,
    explicit_weights,
    float_powers,
    power_norming,
    sequence_array,
    uniform_weights,
)
from .svf import SlowlyVaryingSpec, clog2, log_nu_at

FIXTURE_NAMES = (
    "example-2.1",
    "example-4.1",
    "wlln-counterexample",
    "x2m-example",
)


@dataclass(frozen=True)
class Problem:
    """One problem, from :func:`load` or a spec; ``label`` names it in reports."""

    label: str
    arr: ArraySpec
    weights: WeightScheme
    p: float
    nu: int
    b: NormalizingSequence
    sv: Optional[SlowlyVaryingSpec] = None
    c_fn: Optional[Callable[[int, int], float]] = None
    closed: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    ui_grid: tuple = tuple(2.0**j for j in range(0, 41, 2))
    kg_grid: tuple = tuple(2**j for j in range(0, 41))

    def cesaro_tail(self) -> TailFunction:
        """Tail of the canonical Cesaro dominating variable (closed form).

        Under a constant L, where ``closed["cesaro_steps"]`` lists every point
        at which it steps, in any range, it is a step envelope with those
        knots.  Otherwise its knots are ``closed["cesaro_knots"]``: quadrature
        breakpoints, which may leave out the steps of a wide range.  (Summed
        as steps under a slowly varying L, each piece would cost a quadrature.)
        """
        constant_l = self.sv is None or self.sv.family == "constant"
        steps = self.closed.get("cesaro_steps") if constant_l else None
        if steps is not None:
            return TailFunction(fn=self.arr.closed_cesaro_sup, knot_fn=steps, step=True)
        return TailFunction(fn=self.arr.closed_cesaro_sup,
                            knot_fn=self.closed.get("cesaro_knots"))


# ---------------------------------------------------------------------------
# example-2.1: two-block array
# ---------------------------------------------------------------------------


def _build_example_21(p: float, nu: int) -> Problem:
    pm1 = SymmetricTwoPoint(1.0)

    def groups(n: int) -> tuple[CellGroup, ...]:
        if n == 1:
            return (CellGroup(1, pm1),)
        m = n // 2
        return (
            CellGroup(m, pm1),
            CellGroup(n - m, SymmetricTwoPoint(float(n), 1.0)),
        )

    def cesaro_sup(x) -> float:
        x = float(x)
        if x < 1.0:
            return 1.0
        n0 = int(math.floor(x)) + 1
        nstar = n0 if n0 % 2 == 1 else n0 + 1
        return (nstar + 1) / (2.0 * nstar)

    def weighted_sup(x) -> float:
        x = float(x)
        if x < 1.0:
            return 1.25
        n0 = int(math.floor(x)) + 1
        return math.ceil(n0 / 2) / (n0 * n0)

    def range_sum(n: int, lo: int, hi: int) -> float:
        if n == 1:
            return 1.0 if lo <= 1 <= hi else 0.0
        m = n // 2
        c1 = max(0, min(hi, m) - lo + 1)
        c2 = max(0, hi - max(lo, m + 1) + 1)
        return c1 / m + c2 / (n * n)

    def c0(top: int) -> tuple[float, int]:
        # row 1 sums to 1.0, row 2 to 1 + 1/4, and row n >= 3 to 1 + ceil(n/2)/n^2 < 5/4
        return (1.0, 1) if top == 1 else (1.25, 2)

    def odd_knots(lo: float, hi: float) -> tuple[float, ...]:
        # every step of cesaro_sup in (lo, hi): at 1 and where nstar moves on
        start = int(math.floor(lo)) + 1  # the first integer above lo
        return tuple(map(float, range(start | 1, int(math.ceil(hi)), 2)))

    def integer_knots(lo: float, hi: float) -> tuple[float, ...]:
        # quadrature breakpoints of weighted_sup, which steps at every integer,
        # and of cesaro_sup; none past 130 of them
        start = int(math.floor(lo)) + 1
        if hi - lo > 130:
            return ()
        return tuple(float(k) for k in range(start, int(math.ceil(hi)) + 1) if lo < k < hi)

    def big_cell_row_value(n: int) -> float:
        # sup candidate f(n) = ceil(n/2) * n^(p-2) for the transformed ui sum
        return math.ceil(n / 2) * float(n) ** (p - 2.0)

    def ui_weighted(a: float) -> float:
        a = float(a)
        if a < 1.0:
            return 1.0 + big_cell_row_value(3)
        n0 = int(math.floor(a ** (1.0 / p))) + 1
        nstar = n0 if n0 % 2 == 1 else n0 + 1
        return max(big_cell_row_value(n0), big_cell_row_value(nstar))

    arr = ArraySpec(
        row_length=lambda n: n,
        groups_fn=groups,
        closed_cesaro_sup=cesaro_sup,
    )
    weights = explicit_weights(range_sum, lambda n: n, closed_weighted_sup=weighted_sup,
                               closed_c0=c0)
    return Problem(
        label="example-2.1",
        arr=arr,
        weights=weights,
        p=p,
        nu=nu,
        b=power_norming(p),
        closed={
            "cesaro_knots": integer_knots,
            "cesaro_steps": odd_knots,
            "weighted_knots": integer_knots,
            "ui_weighted_pow_p": ui_weighted,
        },
        expected={
            "cesaro-domination": "invalid",
            "weighted-domination": "valid",
            "c0": 1.25,
            "chandra-ghosal": "fails",
        },
        kg_grid=tuple(2**j for j in range(0, 41, 2)),
    )


# ---------------------------------------------------------------------------
# example-4.1: spikes of size (n+1)^(1/p) at rate 1/(n log_nu n)
# ---------------------------------------------------------------------------


def _build_example_41(p: float, nu: int) -> Problem:
    def cell_steps(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # X_i = +-(i+1)^(1/p) with probability 1/(i log_nu(i)).  Array * and /
        # round as the scalar operations do; the powers come from float_powers
        # and the log_nu products from svf.log_nu_at
        i = np.arange(lo, hi + 1, dtype=float)
        return float_powers(lo + 1, hi + 1, 1.0 / p), 1.0 / (i * log_nu_at(i, nu))

    arr = sequence_array(cell_steps=cell_steps)
    return Problem(
        label="example-4.1",
        arr=arr,
        weights=uniform_weights(arr.row_length),  # the runners' Cesaro weights
        p=p,
        nu=nu,
        b=power_norming(p),
        expected={
            "bounded-moment": "finite",
            "series": "fails",
            "b-regularity-wlln": "holds" if p < 1.0 else "fails",
        },
        kg_grid=tuple(2**j for j in range(0, 41, 2)),
    )


# ---------------------------------------------------------------------------
# wlln-counterexample: one dominant deterministic-magnitude cell per row
# ---------------------------------------------------------------------------


def _wlln_big_magnitude(n: int, p: float) -> float:
    return (n / clog2(n)) ** (1.0 / p)


_SMALL_ROW_RATIO_MAX = max(n / clog2(n) for n in range(1, 9))


def _log2_root(la: float) -> float:
    """s = log2(n) at the root of n = 2^la * log2(n): the fixed point of
    s -> la + log2(s), iterated from la + 1."""
    s = la + 1.0
    for _ in range(60):
        nxt = la + math.log2(s)
        if nxt == s:  # a fixed point: further passes change nothing
            break
        s = nxt
    return s


def _first_row_ratio_exceeding(a: float) -> float:
    """min{n >= 1 : n / log2(max(2,n)) > a}; exact up to a = 2^40, fixed point beyond.

    Rows 1..8 are walked (the ratio dips at n = 3).  From n = 8 on the ratio
    increases strictly in floating point while n stays below about 2^46, so
    for a <= 2^40 :func:`_first_above` steps on the same predicate, from a
    fixed-point guess, to the least n exactly.  Past 2^40 the return value is a float
    approximation of the (astronomically large) integer index; the downstream
    use is only through log2 of it.
    """
    if a < _SMALL_ROW_RATIO_MAX:
        for n in range(1, 9):
            if n / clog2(n) > a:
                return float(n)
    if a <= 2.0**40:  # a >= 8/3 here, so the compare is false on rows 1..8
        return float(_first_above(lambda n: n / clog2(n) > a,
                                  max(9, int(2.0 ** _log2_root(math.log2(a))))))
    return 2.0 ** _log2_root(math.log2(a))


def _build_wlln_counterexample(p: float, nu: int) -> Problem:
    pm1 = SymmetricTwoPoint(1.0)

    def groups(n: int) -> tuple[CellGroup, ...]:
        big = SymmetricTwoPoint(_wlln_big_magnitude(n, p), 1.0)
        if n == 1:
            return (CellGroup(1, big),)
        return (CellGroup(n - 1, pm1), CellGroup(1, big))

    def cesaro_sup(x) -> float:
        x = float(x)
        if x < 1.0:
            return 1.0
        n = _first_row_ratio_exceeding(x**p)
        return 1.0 / n

    def weighted_sup(x) -> float:
        return 1.0  # magnitudes are unbounded: some row's dominant cell exceeds x

    def range_sum(n: int, lo: int, hi: int) -> float:
        return 1.0 if lo <= n <= hi else 0.0

    def c_fn(n: int, i: int) -> float:
        return float(n) if i == n else 0.0

    def ui_cesaro(a: float) -> float:
        a = float(a)
        if a < 1.0:
            xi2 = 2.0 / clog2(2)
            return max(1.0, 0.5 + xi2 / 2.0, 2.0 / 3.0 + (3 / clog2(3)) / 3)
        n = _first_row_ratio_exceeding(a)
        return 1.0 / clog2(n)

    def mag_knots(lo: float, hi: float) -> tuple[float, ...]:
        start = _first_row_ratio_exceeding(max(lo, 1.0) ** p)
        if start > 1e6:  # steps too dense to enumerate: treat as smooth
            return ()
        out = []
        n = max(1, int(start) - 8)
        while True:
            m = _wlln_big_magnitude(n, p)
            if m >= hi and n > 8:  # magnitudes are monotone beyond the early dips
                break
            if lo < m < hi:
                out.append(m)
            n += 1
            if len(out) > 130 or n - start > 2000:
                return ()
        return tuple(sorted(set(out)))

    arr = ArraySpec(
        row_length=lambda n: n,
        groups_fn=groups,
        closed_cesaro_sup=cesaro_sup,
    )
    weights = explicit_weights(range_sum, lambda n: n, closed_weighted_sup=weighted_sup,
                               closed_c0=lambda top: (1.0, 1))  # every row sums to 1.0
    return Problem(
        label="wlln-counterexample",
        arr=arr,
        weights=weights,
        p=p,
        nu=nu,
        b=power_norming(p),
        c_fn=c_fn,
        closed={
            "cesaro_knots": mag_knots,
            "ui_cesaro_pow_p": ui_cesaro,
        },
        expected={
            "cesaro-domination": "valid",
            "weighted-domination": "invalid",
            "ui": "decays",
            "kG": "holds",
            "kG-hat": "fails",
        },
        ui_grid=tuple(2.0**j for j in range(0, 1014, 4)),
    )


# ---------------------------------------------------------------------------
# x2m-example: +-1 off powers of two, spikes (2^m / m)^(1/p) at n = 2^m
# ---------------------------------------------------------------------------


def _first_above(above: Callable[[int], bool], guess: int) -> int:
    """min{m >= 1 : above(m)} for a compare that holds on a ray of m.

    The guess is moved by unit steps on the compare itself, so the answer is
    the compare's, however rough the guess.
    """
    m = max(1, guess)
    if above(m):
        while m > 1 and above(m - 1):
            m -= 1
    else:
        m += 1
        while not above(m):
            m += 1
    return m


def _spike_guess(e: int) -> int:
    """m ~ e + log2(m): a guess at where 2^m / m passes a level of binary exponent e."""
    return e + e.bit_length() - 1


def _first_spike_index_exceeding(a) -> int:
    """min{m >= 1 : 2^m / m > a}, exact for int a of any size.

    2^m / m is 2 at m = 1 and m = 2 and increases after, so the m where the
    compare holds form a ray; it is searched from the binary exponent of a
    (in integers for int a, in floats below 2^1000).  Larger floats use a
    fixed point.
    """
    if isinstance(a, int):
        return _first_above(lambda m: not (1 << m) <= a * m,
                            _spike_guess(a.bit_length() if a > 0 else 0))
    if a < 2.0**1000:
        return _first_above(lambda m: not 2.0**m <= a * m,
                            _spike_guess(math.frexp(a)[1] if a >= 1.0 else 0))
    return int(math.ceil(_log2_root(math.log2(a))))


# ui_cesaro's grid: row i is the cap m_a + i, column d the spike d rows below it
_UI_CAP = np.arange(81)[:, None]
_UI_D = np.arange(61)
_UI_TERM = _UI_D <= _UI_CAP  # the spike lies at or above m_a
_UI_SCALE = np.ldexp(1.0, -_UI_D)


def _build_x2m(p: float, nu: int) -> Problem:
    half = p == 0.5

    def cell_steps(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # X_i = +-(2^m / m)^(1/p) at i = 2^m (m >= 1), +-1 elsewhere
        mags = np.ones(hi - lo + 1)
        i = 1 << (max(lo, 2) - 1).bit_length()  # the first 2^m >= max(lo, 2)
        while i <= hi:
            mags[i - lo] = (i / (i.bit_length() - 1)) ** (1.0 / p)
            i <<= 1
        return mags, np.ones(len(mags))

    def cesaro_sup(x):
        if isinstance(x, int):
            if x < 1:
                return 1
            if half:
                # 2^n / n > sqrt(x)  <=>  4^n > x * n^2, exactly in integers
                n = _first_above(lambda n: not (1 << 2 * n) <= x * n * n,
                                 _spike_guess((x.bit_length() + 1) // 2))
                return Fraction(1, 2**n)
        elif x < 1.0:
            return 1.0
        xp_log = p * math.log2(x)  # safe for ints of any size
        if xp_log <= 40.0:
            n = _first_spike_index_exceeding(2.0**xp_log)
        else:  # 2^n / n > x^p in logs
            n = _first_above(lambda n: n - math.log2(n) > xp_log, _spike_guess(int(xp_log)))
        return 2.0 ** (-n) if n < 1060 else 0.0

    def spike_knots(lo: float, hi: float) -> tuple[float, ...]:
        # every step of cesaro_sup in (lo, hi): at 1 and at each spike
        # (2^m / m)^(1/p), the one of m = 1 and 2 listed once
        out = [1.0] if lo < 1.0 < hi else []
        m = 1
        while True:
            try:  # 2^m / m rounded once while it is a float (to m = 1034), then in logs
                v = (math.ldexp(1.0 / m, m) ** (1.0 / p) if m < 1030
                     else 2.0 ** ((m - math.log2(m)) / p))
            except OverflowError:  # this spike and every later one lie past float range
                break
            if v >= hi:
                break
            if v > lo and (not out or v > out[-1]):
                out.append(v)
            m += 1
        return tuple(out)

    def ui_cesaro(a) -> float:
        """sup_n (1/n) sum of spike masses above level a, exact for int a."""
        if not isinstance(a, int):
            a = float(a)
        if (a < 1) if isinstance(a, int) else (a < 1.0):
            m_a = 1
            base = 1.0  # the +-1 cells contribute fully below level 1
        else:
            m_a = _first_spike_index_exceeding(a)
            base = 0.0
        # term 2^-d / (cap - d) for the caps m_a..m_a+80 and d <= min(cap - m_a, 60),
        # added in d order along each row
        div = np.where(_UI_TERM, m_a + _UI_CAP - _UI_D, 1)
        terms = np.where(_UI_TERM, _UI_SCALE / div, 0.0)
        best = float(np.cumsum(terms, axis=1)[:, -1].max())
        return base + best

    arr = sequence_array(closed_cesaro_sup=cesaro_sup, cell_steps=cell_steps)
    return Problem(
        label="x2m-example",
        arr=arr,
        weights=uniform_weights(arr.row_length),  # the runners' Cesaro weights
        p=p,
        nu=nu,
        b=power_norming(p),
        closed={
            "cesaro_knots": spike_knots,
            "cesaro_steps": spike_knots,
            "ui_cesaro_pow_p": ui_cesaro,
        },
        expected={
            "cesaro-domination": "valid",
            "series": "holds",
            "chandra-ghosal": "fails",
            "kG": "holds",
            "ui": "decays",
        },
        ui_grid=tuple(2**j for j in range(0, 4201, 25)),
        kg_grid=tuple(2**j for j in range(0, 1301, 10)),
    )


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

_DEFAULT_P, _DEFAULT_NU = 0.5, 1

_BUILDERS = {
    "example-2.1": _build_example_21,
    "example-4.1": _build_example_41,
    "wlln-counterexample": _build_wlln_counterexample,
    "x2m-example": _build_x2m,
}


def load(name: str, *, p: Optional[float] = None, nu: Optional[int] = None) -> Problem:
    """Build a named fixture; p and nu may override the defaults (p=1/2, nu=1)."""
    if not isinstance(name, str) or name not in _BUILDERS:
        raise SpecError(
            f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}"
        )
    pp = _DEFAULT_P if p is None else float(p)
    if not (0.0 < pp < 2.0 and math.isfinite(1.0 / pp)):  # b_n = n^(1/p)
        raise SpecError(f"fixture p must lie in (0, 2) with 1/p finite, got {pp}")
    return _BUILDERS[name](pp, _DEFAULT_NU if nu is None else iterated_log_order(nu))


def iterated_log_order(nu) -> int:
    """``nu`` as an int: an integral, finite, non-bool number >= 1, else SpecError."""
    ok = not isinstance(nu, bool) and (
        isinstance(nu, int) or isinstance(nu, float) and nu.is_integer())
    if not (ok and nu >= 1):  # is_integer() is false for nan and inf
        raise SpecError(f"nu must be an integer >= 1, got {nu!r}")
    return int(nu)
