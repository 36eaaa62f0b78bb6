"""Slowly varying function toolkit.

Conventions used throughout the package:

* ``log x`` means the base-2 logarithm of ``max(2, x)``.  The clamp makes every
  log factor >= 1 and defined for all real inputs, so iterated-log products
  never need domain guards.
* ``log_nu(x)`` is the product of the first ``nu`` iterated clamped logs,
  ``(log x)(log log x)...``; ``log_nu_sq`` squares the last factor.
* A slowly varying function L satisfies L(lam*x)/L(x) -> 1 for every lam > 0.
  Its conjugate Lt is the (asymptotically unique) slowly varying function with
  L(x) * Lt(x * L(x)) -> 1.  For the built-in log-power families the reciprocal
  is a valid conjugate and is used as the default; custom families must declare
  one explicitly.
* ``regularize`` splices a linear segment below an anchor ``a`` so that the
  returned function is continuous on [0, inf), equals L beyond ``a``, and
  x^alpha * L(x) is strictly increasing everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .errors import AnchorNotFoundError, ConjugateUndeclaredError

_LN2 = math.log(2.0)

# x-values where successive clamped-log factors switch on: log x leaves its
# clamp at 2, log log x at 4, log log log x at 16, then 2^16.
LOG_CHAIN_KINKS = (2.0, 4.0, 16.0, 65536.0)
# ``regularize`` scans for its anchor below 2^ANCHOR_MAX_EXPONENT
ANCHOR_MAX_EXPONENT = 60


def clog2(x: float) -> float:
    """Base-2 log of max(2, x)."""
    return math.log2(x) if x > 2.0 else 1.0


def _log_chain(x: float, nu: int) -> tuple[list[float], list[float]]:
    """Iterated clamped-log factors and their derivatives w.r.t. x, up to the
    first clamped factor (1.0, derivative 0.0): all later ones are the same."""
    factors: list[float] = []
    derivs: list[float] = []
    f = float(x)
    df = 1.0
    for _ in range(nu):
        if not f > 2.0:
            factors.append(1.0)
            derivs.append(0.0)
            break
        f, df = math.log2(f), df / (f * _LN2)
        factors.append(f)
        derivs.append(df)
    return factors, derivs


def log_nu(x: float, nu: int) -> float:
    """Product of the first ``nu`` iterated clamped base-2 logs of x."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    out = 1.0
    f = float(x)
    for _ in range(nu):
        f = clog2(f)
        out *= f
        if f == 1.0:  # clamped: every later factor is clog2(1.0) = 1.0
            break
    return out


def log_nu_sq(x: float, nu: int) -> float:
    """Same product as :func:`log_nu` but with the last factor squared."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    out = 1.0
    f = float(x)
    for i in range(nu):
        f = clog2(f)
        if i == nu - 1 or f == 1.0:  # the nu-th factor is f, or 1.0 once clamped
            return out * (f * f)
        out *= f


def log_nu_derivative(x: float, nu: int, *, last_squared: bool = False) -> float:
    """d/dx of the log_nu (or log_nu_sq) product; zero inside clamp plateaus.

    The chain stops at its first clamped factor; the nu-th factor, squared
    for ``last_squared``, is then that factor's (1.0, 0.0)."""
    factors, derivs = _log_chain(x, nu)
    if last_squared:
        factors = factors + [factors[-1]]
        derivs = derivs + [derivs[-1]]
    total = 0.0
    for j in range(len(factors)):
        prod = 1.0
        for i, f in enumerate(factors):
            if i != j:
                prod *= f
        total += prod * derivs[j]
    return total


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """A slowly varying function with derivative and conjugate access.

    ``family`` is one of ``constant``, ``log-power``, ``loglog-power``,
    ``product``, ``custom``.  ``anchor`` > 0 marks a regularized spec: below
    the anchor the function grows linearly from 0 to its anchor value.
    ``smooth_from`` is the largest clamp kink, i.e. the function is
    differentiable beyond it.
    """

    family: str
    gamma: float = 0.0
    factors: tuple["SlowlyVaryingSpec", ...] = ()
    fn: Optional[Callable[[float], float]] = None
    dfn: Optional[Callable[[float], float]] = None
    declared_conjugate: Optional["SlowlyVaryingSpec"] = None
    anchor: float = 0.0
    smooth_from: float = 0.0

    def _base_eval(self, x: float) -> float:
        if self.family == "constant":
            return 1.0
        if self.family == "log-power":
            return clog2(x) ** self.gamma
        if self.family == "loglog-power":
            return clog2(clog2(x)) ** self.gamma
        if self.family == "product":
            out = 1.0
            for f in self.factors:
                out *= f.eval(x)
            return out
        if self.family == "custom":
            return self.fn(x)  # type: ignore[misc]
        raise ValueError(f"unknown family {self.family!r}")

    def eval(self, x: float) -> float:
        if self.anchor > 0.0 and x < self.anchor:
            if x <= 0.0:
                return 0.0
            return self._base_eval(self.anchor) * x / self.anchor
        return self._base_eval(x)

    __call__ = eval

    def derivative(self, x: float) -> float:
        if self.anchor > 0.0 and x < self.anchor:
            return self._base_eval(self.anchor) / self.anchor
        if self.family == "constant":
            return 0.0
        if self.family == "log-power":
            if x <= 2.0:
                return 0.0
            return self.gamma * clog2(x) ** (self.gamma - 1.0) / (x * _LN2)
        if self.family == "loglog-power":
            if x <= 4.0:
                return 0.0
            inner = math.log2(x)
            return (
                self.gamma
                * clog2(inner) ** (self.gamma - 1.0)
                / (inner * _LN2)
                / (x * _LN2)
            )
        if self.family == "product":
            vals = [f.eval(x) for f in self.factors]
            total = 0.0
            for j, f in enumerate(self.factors):
                prod = f.derivative(x)
                for i, v in enumerate(vals):
                    if i != j:
                        prod *= v
                total += prod
            return total
        if self.family == "custom":
            if self.dfn is not None:
                return self.dfn(x)
            h = max(abs(x), 1.0) * 1e-6
            return (self.fn(x + h) - self.fn(x - h)) / (2.0 * h)  # type: ignore[misc]
        raise ValueError(f"unknown family {self.family!r}")

    def conjugate(self) -> "SlowlyVaryingSpec":
        """De Bruijn conjugate: declared one, or the family default (1/L)."""
        if self.declared_conjugate is not None:
            return self.declared_conjugate
        if self.family == "constant":
            return self
        if self.family in ("log-power", "loglog-power"):
            return replace(self, gamma=-self.gamma, anchor=0.0)
        raise ConjugateUndeclaredError(
            f"no conjugate declared for {self.family!r} spec"
        )

    def kinks(self) -> tuple[float, ...]:
        """Points where the spec is continuous but not differentiable."""
        pts = set()
        if self.anchor > 0.0:
            pts.add(self.anchor)
        if self.smooth_from > 0.0:
            pts.add(self.smooth_from)
        for f in self.factors:
            pts.update(f.kinks())
        return tuple(sorted(pts))


def constant_one() -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec(family="constant", smooth_from=0.0)


def log_power(gamma: float) -> SlowlyVaryingSpec:
    """(log x)^gamma with the clamped base-2 log."""
    return SlowlyVaryingSpec(family="log-power", gamma=gamma, smooth_from=2.0)


def loglog_power(gamma: float) -> SlowlyVaryingSpec:
    """(log log x)^gamma with the clamped base-2 log."""
    return SlowlyVaryingSpec(family="loglog-power", gamma=gamma, smooth_from=4.0)


def product(*specs: SlowlyVaryingSpec) -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec(
        family="product",
        factors=tuple(specs),
        smooth_from=max((s.smooth_from for s in specs), default=0.0),
    )


def custom(
    fn: Callable[[float], float],
    derivative: Optional[Callable[[float], float]] = None,
    conjugate: Optional[SlowlyVaryingSpec] = None,
    smooth_from: float = 0.0,
) -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec(
        family="custom",
        fn=fn,
        dfn=derivative,
        declared_conjugate=conjugate,
        smooth_from=smooth_from,
    )


def derivative_ratio(spec: SlowlyVaryingSpec, x: float) -> float:
    """x * L'(x) / L(x); tends to 0 for genuinely slowly varying L."""
    val = spec.eval(x)
    if val <= 0.0:
        raise ValueError(f"L({x}) = {val} is not positive")
    return x * spec.derivative(x) / val


def conjugate_residual(
    spec: SlowlyVaryingSpec, x_grid: Sequence[float]
) -> list[float]:
    """|L(x) * Lt(x L(x)) - 1| per grid point; decays iff Lt conjugates L."""
    conj = spec.conjugate()
    out = []
    for x in x_grid:
        lx = spec.eval(x)
        out.append(abs(lx * conj.eval(x * lx) - 1.0))
    return out


def regularize(spec: SlowlyVaryingSpec, alpha: float) -> SlowlyVaryingSpec:
    """Splice a linear ramp below an anchor so x^alpha * L(x) increases strictly.

    The anchor is the smallest candidate in {0} U {2^k : k <= ANCHOR_MAX_EXPONENT}
    that is at least the spec's differentiability threshold and beyond which
    the log-derivative condition alpha + x L'(x)/L(x) > 0 holds on a geometric
    scan grid.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")

    def condition_holds_from(a: float) -> bool:
        lo = math.log2(a) if a > 1.0 else 0.0
        steps = int((ANCHOR_MAX_EXPONENT - lo) * 4) + 1
        for t in range(steps):
            x = 2.0 ** (lo + t / 4.0)
            if x < a:
                continue
            if alpha + derivative_ratio(spec, x) <= 0.0:
                return False
        return True

    candidates = [0.0] + [2.0**k for k in range(0, ANCHOR_MAX_EXPONENT + 1)]
    for a in candidates:
        if a < spec.smooth_from:
            continue
        probe = a if a > 0.0 else 1e-9
        if condition_holds_from(probe):
            return replace(spec, anchor=a)
    raise AnchorNotFoundError(
        f"x^{alpha} * L(x) not eventually increasing below 2^{ANCHOR_MAX_EXPONENT}"
    )
