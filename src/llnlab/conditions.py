"""Hypothesis checkers for the limit theorems: integrals, series, ratios, limits.

Finiteness of an improper integral or series is only semi-decidable at desk
scale, so every checker returns a three-way verdict with the numeric evidence
and the exact rule that fired:

* ``holds``  - the stated convergence rule certified the value;
* ``fails``  - the stated divergence/growth rule fired;
* ``inconclusive`` - neither rule fired within the scan budget.

The rules are deterministic: same inputs, same verdict.

``CONDITIONS`` is the one table of the ten named hypotheses that ``check``
and ``verify-fixtures`` run on a ``fixtures.Problem``: each name maps to a
runner returning its outcome and JSON detail, and :func:`run_condition` adds
the problem's expectation.  A runner reads the problem's closed forms and
grids the same way whether it came from a fixture or a spec.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domination import cesaro_sup_fn, dominating_cdf, weighted_sup_fn
from .errors import NotApplicableError, RowRangeError, SpecError
from .model import (
    ArraySpec,
    NormalizingSequence,
    TailFunction,
    float_powers,
    step_columns,
    tail_of,
    uniform_weights,
)
from .moments import MomentFunction, bounded_moment_condition, ui_check
from .numerics import (
    DECAY_EPS,
    DECAY_WINDOW,
    _exact_product,
    decay_gate,
    finite_integral,
    growth_gate,
    judge_blocks,
    slope_certified_decay,
    walk_blocks,
)
from .svf import SlowlyVaryingSpec

SERIES_CHUNK = 2**13  # n per pass of the series and ratio scans; the bytes do not depend on it
MAX_N = 1 << 26  # largest series/ratio budget N: both scans take time linear in N, memory O(chunk)
SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    verdict: str  # holds | fails | inconclusive
    rule: str
    evidence: dict = field(default_factory=dict)
    value: Optional[float] = None
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def fails(self) -> bool:
        return self.verdict == "fails"

    def to_json_obj(self) -> dict:
        out = {
            "name": self.name,
            "verdict": self.verdict,
            "rule": self.rule,
            "value": self.value,
            "notes": list(self.notes),
        }
        for k, v in self.evidence.items():
            if isinstance(v, np.ndarray):
                v = v.tolist()
            out[k] = v
        return out


# ---------------------------------------------------------------------------
# Integral condition
# ---------------------------------------------------------------------------


def chandra_ghosal_integral(
    source: TailFunction, p: float, sv: Optional[SlowlyVaryingSpec] = None
) -> ConditionVerdict:
    """Convergence verdict for the moment integral of x^(p-1) L^p(x) G(x).

    ``source`` is the ``TailFunction`` of the nonincreasing map G, integrated
    as a head on [0, 1] and dyadic blocks from 1 on.

    A ``step`` source -- an atom tail, or a step envelope such as a scanned
    ``weighted_sup_fn`` or a fixture's closed Cesaro sup -- is summed piece
    by piece with no quadrature of G: the head and each block are cut at G's
    knots, G is read once per piece at its midpoint, and the piece weights
    int_a^b x^(p-1) L^p(x) dx are (b^p - a^p)/p, or with a non-constant L a
    quadrature of that smooth factor alone (in u = x^p).  A block is the
    ``math.fsum`` of G times the weights, exact up to rounding.  Any other
    source is integrated by adaptive quadrature to ``QUAD_ABS_TOL``, the
    blocks split at its knots.  ``numerics.walk_blocks`` judges the blocks,
    the slope rule on.
    """
    g, knots_in = source.fn, source.knots_in
    notes = []
    if not (1.0 <= p < 2.0):
        notes.append(f"p={p} outside [1,2); checked anyway")
    inv = 1.0 / p

    if source.step:
        if sv is None or sv.family == "constant":

            def weight(a: float, b: float) -> float:
                return (b**p - a**p) / p

        else:

            def weight(a: float, b: float) -> float:
                return finite_integral(lambda u: sv.eval(u**inv) ** p / p, a**p, b**p)

        def block(lo: float, hi: float) -> float:
            pts = (lo, *knots_in(lo, hi), hi)
            terms = []
            for a, b in zip(pts[:-1], pts[1:]):
                level = float(g(0.5 * (a + b)))
                if level != 0.0:
                    terms.append(level * weight(a, b))
            return math.fsum(terms)

        head = block(0.0, 1.0)
    else:

        def rest(t: float) -> float:
            out = g(t)
            if sv is not None:
                out *= sv.eval(t) ** p
            return float(out)

        # head on [0,1] with the substitution t = u^(1/p) removing the x^(p-1) factor
        head = finite_integral(lambda u: rest(u**inv) / p, 0.0, 1.0)

        def integrand(t: float) -> float:
            return t ** (p - 1.0) * rest(t)

        def block(lo: float, hi: float) -> float:
            return finite_integral(integrand, lo, hi, breakpoints=knots_in(lo, hi))

    verdict, rule, blocks, total = walk_blocks(block, 1.0, head, slope=True)
    return ConditionVerdict(
        name="moment-integral",
        verdict=verdict,
        rule=rule,
        value=total if verdict == "holds" else None,
        evidence={"head": head, "blocks": blocks, "partial": total},
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Series condition
# ---------------------------------------------------------------------------


def _chunks(N: int, edge: Callable[[int], int]):
    """Runs [lo, hi) covering n = 1..N, at most ``SERIES_CHUNK`` long, each
    ending at or before ``edge(lo)``."""
    lo = 1
    while lo <= N:
        hi = min(lo + SERIES_CHUNK, edge(lo), N + 1)
        yield lo, hi
        lo = hi


def _carried_cumsum(terms: np.ndarray, total: float) -> float:
    """Partial sums of ``terms`` in place, continuing from ``total``; returns the
    last.  Each adds the terms in n order, bit for bit as a scalar loop does."""
    terms[0] += total
    np.cumsum(terms, out=terms)
    return float(terms[-1])


def exceedance_series(arr: ArraySpec, p: float, N: int = 100_000) -> ConditionVerdict:
    """Partial sums of P(|X_n|^p > n) for a sequence-shaped array.

    The cells are read a dyadic block n in [2^j, 2^(j+1)) at a time (in
    chunks of at most ``SERIES_CHUNK`` cells) through one ``step_columns``
    law table per chunk.  With x_n = n^(1/p) from ``float_powers`` (bitwise
    Python's scalar ``**``), the term of a step cell is
    ``where(x_n < m_n, q_n, 0.0)`` on the table's (magnitude, prob) columns;
    only the other cells go through a scalar tail, looked up once per law
    and called with x_n as a Python float.
    The running total is a ``np.cumsum`` over each chunk seeded with the
    total carried so far, so every partial sum adds the terms in n order,
    bit for bit as a scalar loop does.

    ``numerics.judge_blocks`` judges the dyadic block increments once, when
    all of them to N are in: the last 3, a trailing partial block included,
    for the quiet rule, and the full blocks alone for the slope.
    """
    if not arr.is_sequence:
        raise NotApplicableError("series condition needs a sequence-shaped array")
    if arr.n_max is not None:
        N = min(N, arr.n_max)
    if N < 1:
        raise ValueError(f"series condition needs N >= 1, got {N}")
    inv = 1.0 / p
    checkpoints: list[int] = []
    partials: list[float] = []
    increments: list[float] = []
    total = 0.0
    last_cp_total = 0.0
    for lo, hi in _chunks(N, lambda lo: 1 << lo.bit_length()):  # inside lo's block
        law, others, mag, prob, _ = step_columns(arr, lo, hi - 1)
        x = float_powers(lo, hi - 1, inv)
        # a non-step law has m = inf > x_n and q = 0 here, then its tail at x_n
        n_steps, pad = len(mag), np.zeros(len(others))
        terms = np.where(x < np.concatenate((mag, pad + math.inf))[law],
                         np.concatenate((prob, pad))[law], 0.0)
        tails = [tail_of(d).fn for d in others]
        for j in np.flatnonzero(law >= n_steps).tolist():
            terms[j] = tails[law[j] - n_steps](float(x[j]))
        total = _carried_cumsum(terms, total)
        if (lo & (lo - 1)) == 0:  # n = lo is a checkpoint
            cp_total = float(terms[0])
            checkpoints.append(lo)
            partials.append(cp_total)
            increments.append(cp_total - last_cp_total)
            last_cp_total = cp_total
    full_blocks = list(increments)
    if checkpoints[-1] != N:
        checkpoints.append(N)
        partials.append(total)
        increments.append(total - last_cp_total)  # trailing partial block

    verdict, rule = judge_blocks(increments, 3, full_blocks, (
        "last {quiet} block increments below {tol}",
        "fitted increment slope {slope:.3f} >= -{flat}",
    )) or ("inconclusive", "no certificate within N")
    return ConditionVerdict(
        name="exceedance-series",
        verdict=verdict,
        rule=rule,
        value=total if verdict == "holds" else None,
        evidence={
            "N": N,
            "checkpoints": checkpoints,
            "partials": partials,
            "increments": increments,
            "partial_sum": total,
        },
    )


# ---------------------------------------------------------------------------
# Normalizing-sequence regularity (big-O ratio checks)
# ---------------------------------------------------------------------------


def _ratio_scan(name: str, b: NormalizingSequence, N: int, *, squared: bool) -> ConditionVerdict:
    """The verdict on r_n = (sum_{i<=n} t_i/i^2) / (t_n/n), t = b or b^2, n = 1..N.

    One pass over ``_chunks`` split at n = N//2 + 1, so each chunk lies in the
    first or the last half.  The running sum is a carried ``np.cumsum`` and the
    maxima are taken chunk by chunk, NaN-propagating as ``np.max`` and
    ``np.argmax`` over all of r would be: the bytes are those of the
    whole-array computation, in O(``SERIES_CHUNK``) memory.  A b_n that is not
    positive, or below b_(n-1), raises ``ValueError`` once every b_n has been
    read, so an error of ``b.floats`` anywhere takes precedence.  Then, with
    ``squared``, a finite b_n whose square leaves float range raises
    ``OverflowError`` naming the first such n; nothing is squared past it.
    """
    if N < 2:  # the verdict compares the first and the last half
        raise ValueError(f"norming-ratio check needs N >= 2, got {N}")
    half = N // 2
    sub = np.unique(np.geomspace(1, N, num=min(64, N)).astype(int))
    at_sub: list[float] = []
    total, last_b = 0.0, -math.inf
    nonpositive = decreasing = False
    overflow = 0  # the first n whose finite b_n^2 is inf, with ``squared``
    half_max = [-math.inf, -math.inf]  # over n <= half, over n > half; every r_n > -inf
    best, arg, prev = -math.inf, 0, None  # running max, its first n; last ratio of the last half
    monotone_growth = True
    for lo, hi in _chunks(N, lambda lo: half + 1 if lo <= half else N + 1):
        bv = b.floats(lo, hi - 1)
        nonpositive |= bool(np.any(bv <= 0.0))
        decreasing |= bool(np.any(np.diff(bv, prepend=last_b) < 0.0))
        last_b = bv[-1]
        if squared and not overflow:
            big = np.flatnonzero((bv > SQUARE_MAX) & (bv < math.inf))
            overflow = lo + int(big[0]) if big.size else 0
        if nonpositive or decreasing or overflow:
            continue
        idx = np.arange(lo, hi, dtype=float)
        top = bv**2 if squared else bv
        ratio = top / idx**2
        total = _carried_cumsum(ratio, total)
        ratio /= top / idx
        m = ratio.max()
        side = int(lo > half)
        half_max[side] = np.maximum(half_max[side], m)
        if not (np.isnan(best) or m <= best):  # a NaN wins and stays
            best, arg = m, lo + int(np.argmax(ratio))
        if side and monotone_growth:
            tail = ratio if prev is None else np.concatenate(([prev], ratio))
            monotone_growth = bool(np.all(
                np.diff(tail) >= -1e-12 * np.maximum(1.0, np.abs(tail[:-1]))))
            prev = ratio[-1]
        i, j = np.searchsorted(sub, (lo, hi))
        at_sub += ratio[sub[i:j] - lo].tolist()
    if nonpositive:
        raise ValueError("normalizing sequence must be positive")
    if decreasing:
        raise ValueError("normalizing sequence must be nondecreasing")
    if overflow:
        raise OverflowError(f"b_n^2 is past the largest float from n = {overflow}")
    first_max, last_max = float(half_max[0]), float(half_max[1])
    plateaued = last_max <= first_max * 1.01
    if plateaued:
        verdict, rule = "holds", "last-half ratio max within 1% of first-half max"
    elif monotone_growth and last_max > first_max * 1.01:
        verdict, rule = "fails", "ratio grows monotonically over the last half"
    else:
        verdict, rule = "inconclusive", "ratio neither plateaued nor monotone growing"
    return ConditionVerdict(
        name=name,
        verdict=verdict,
        rule=rule,
        value=float(best),
        evidence={
            "N": N,
            "max_ratio": float(best),
            "argmax": arg,
            "first_half_max": first_max,
            "last_half_max": last_max,
            "checkpoints": sub.tolist(),
            "ratio_at_checkpoints": at_sub,
        },
    )


def norming_ratio_bound(b: NormalizingSequence, N: int = 100_000) -> ConditionVerdict:
    """Is sum_{i<=n} b_i/i^2 = O(b_n/n)?  Ratio plateau => holds."""
    return _ratio_scan("norming-ratio", b, N, squared=False)


def norming_ratio_bound_sq(b: NormalizingSequence, N: int = 100_000) -> ConditionVerdict:
    """Is sum_{i<=n} b_i^2/i^2 = O(b_n^2/n)?  Same machinery with b squared."""
    return _ratio_scan("norming-ratio-sq", b, N, squared=True)


# ---------------------------------------------------------------------------
# k * G(b_k) -> 0
# ---------------------------------------------------------------------------


def limit_verdict(values: Sequence[float]) -> tuple[str, str]:
    """(verdict, rule) of "the grid sequence tends to 0": the one limit gate.

    ``holds`` fires on the eps decay gate, or on the power-law decay
    certificate for positive nonincreasing sequences whose true rate (e.g.
    1/log k) cannot cross eps on any float-feasible grid; ``fails`` fires on
    an infinite last value (a ``ui`` mass of a law without that moment) or on
    the growth gate.
    """
    if values and values[-1] == math.inf:
        return "fails", "the last grid value is infinite"
    if decay_gate(values):
        return "holds", f"last {DECAY_WINDOW} grid values below {DECAY_EPS} and nonincreasing"
    if slope_certified_decay(values):
        return "holds", "power-law decay certificate (slope <= -1/2 in grid index)"
    if growth_gate(values):
        return "fails", "sequence grows over the last half and ends above eps"
    return "inconclusive", "no decay or growth certificate fired"


def count_tail_vanishes(source: TailFunction, b: NormalizingSequence,
                        k_grid: Sequence) -> ConditionVerdict:
    """Verdict for lim_k k * G(b_k) = 0 along the given k grid, G = ``source.fn``.

    Exact integer grids are honoured: when ``b`` maps ints to ints and G
    returns a Fraction, the products stay exact far beyond float range.  The
    grid stops at the first k where b_k, G(b_k) or their product overflows a
    float, or b_k lies past an explicit table's end (``grid_stop`` in the
    evidence); :func:`limit_verdict` reads the points before it.
    """
    g = source.fn
    values = []
    stop = {}
    for k in k_grid:
        try:
            v = _exact_product(k, g(b(k)))
        except (OverflowError, RowRangeError):
            stop = {"grid_stop": int(k) if isinstance(k, int) else float(k)}
            break
        values.append(v)
    verdict, rule = limit_verdict(values)
    return ConditionVerdict(
        name="count-tail-limit",
        verdict=verdict,
        rule=rule,
        value=values[-1] if values else None,
        evidence={"k_grid": [int(k) if isinstance(k, int) else float(k)
                             for k in k_grid[:len(values)]],
                  "values": values, **stop},
    )


# ---------------------------------------------------------------------------
# The condition table shared by ``check`` and ``verify-fixtures``
# ---------------------------------------------------------------------------


def _cesaro_source(spec, n_sup: int) -> TailFunction:
    """The closed Cesaro sup with its knots where the array has one
    (``Problem.cesaro_tail``, which picks steps or knots from the problem's L),
    else a scan's sup."""
    if spec.arr.closed_cesaro_sup is not None:
        return spec.cesaro_tail()
    return cesaro_sup_fn(spec.arr, n_sup=n_sup)


def _verdict(v: ConditionVerdict) -> tuple[str, dict]:
    return v.verdict, v.to_json_obj()


def _domination(spec, weights, n_sup: int) -> tuple[str, dict]:
    rep = dominating_cdf(spec.arr, weights, n_sup=n_sup)
    return ("valid" if rep.valid else "invalid"), rep.to_json_obj()


def _count_tail(spec, source) -> tuple[str, dict]:
    """The verdict, its rule and last value, and ``grid_stop`` when the grid
    left float range."""
    v = count_tail_vanishes(source, spec.b, spec.kg_grid)
    detail = {"rule": v.rule, "last_value": v.value}
    if "grid_stop" in v.evidence:
        detail["grid_stop"] = v.evidence["grid_stop"]
    return v.verdict, detail


def _ui(spec, n_sup: int, n: int) -> tuple[str, dict]:
    values = ui_check(
        spec.arr,
        uniform_weights(spec.arr.row_length),
        MomentFunction(power=spec.p),
        spec.ui_grid,
        n_sup=n_sup,
        closed_sup=spec.closed.get("ui_cesaro_pow_p"),
    )
    verdict, _ = limit_verdict(values)
    outcome = {"holds": "decays", "fails": "diverges"}.get(verdict, verdict)
    return outcome, {"values_head": values[:5], "values_tail": values[-5:]}


def _bounded_moment(spec, n_sup: int, n: int) -> tuple[str, dict]:
    g = MomentFunction(power=spec.p, log_factor_nu=spec.nu)
    sup = bounded_moment_condition(
        spec.arr, uniform_weights(spec.arr.row_length), g, n_sup=n_sup
    )
    detail = {"sup": float(sup), "attained_at": sup.attained_at}
    if sup.growing or sup.settled:
        return ("growing" if sup.growing else "finite"), detail
    rule = "a finite moment's tail blocks did not settle: sup is a lower bound"
    return "inconclusive", {"rule": rule, **detail}


# name -> runner(spec, n_sup, n) -> (outcome, detail); runners look library
# functions up as module globals when called, so wrappers installed there apply
CONDITIONS: dict[str, Callable] = {
    "cesaro-domination": lambda spec, n_sup, n: _domination(
        spec, uniform_weights(spec.arr.row_length), n_sup),
    "weighted-domination": lambda spec, n_sup, n: _domination(spec, spec.weights, n_sup),
    "chandra-ghosal": lambda spec, n_sup, n: _verdict(
        chandra_ghosal_integral(_cesaro_source(spec, n_sup), spec.p, spec.sv)),
    "series": lambda spec, n_sup, n: _verdict(exceedance_series(spec.arr, spec.p, N=n)),
    "b-regularity-wlln": lambda spec, n_sup, n: _verdict(norming_ratio_bound(spec.b, N=n)),
    "b-regularity-l2": lambda spec, n_sup, n: _verdict(norming_ratio_bound_sq(spec.b, N=n)),
    "kG": lambda spec, n_sup, n: _count_tail(spec, _cesaro_source(spec, n_sup)),
    "kG-hat": lambda spec, n_sup, n: _count_tail(
        spec, weighted_sup_fn(spec.arr, spec.weights, n_sup=n_sup)),
    "ui": _ui,
    "bounded-moment": _bounded_moment,
}


def run_condition(name: str, spec, n_sup: int, n: int) -> dict:
    """One named condition on a problem, with the problem's expectation.

    ``n_sup`` bounds the row scans, ``n`` is the series and ratio budget.  A
    condition that does not apply to the array has outcome ``n/a``, with the
    reason in its detail; it matches only when the problem expects nothing.
    """
    if name not in CONDITIONS:
        raise SpecError(f"unknown condition {name!r}")
    try:
        outcome, detail = CONDITIONS[name](spec, n_sup, n)
    except NotApplicableError as exc:
        outcome, detail = "n/a", {"reason": str(exc)}
    expected = spec.expected.get(name)
    return {
        "condition": name,
        "outcome": outcome,
        "expected": expected,
        "match": (expected is None) or (outcome == expected),
        "detail": detail,
    }
