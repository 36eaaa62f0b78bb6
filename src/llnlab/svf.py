"""Slowly varying function toolkit.

Conventions used throughout the package:

* ``log x`` means the base-2 logarithm of ``max(2, x)``.  The clamp makes every
  log factor >= 1 and defined for all real inputs, so iterated-log products
  never need domain guards.
* ``log_nu(x)`` is the product of the first ``nu`` iterated clamped logs,
  ``(log x)(log log x)...``; ``log_nu_at`` gives its bytes for an array of x.
* A slowly varying function L satisfies L(lam*x)/L(x) -> 1 for every lam > 0.
  Its conjugate Lt is the (asymptotically unique) slowly varying function with
  L(x) * Lt(x * L(x)) -> 1.  For each of the three families here (constant,
  log-power, loglog-power) the reciprocal 1/L is a conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# x-values where successive clamped-log factors switch on: log x leaves its
# clamp at 2, log log x at 4, log log log x at 16, then 2^16.
LOG_CHAIN_KINKS = (2.0, 4.0, 16.0, 65536.0)


def clog2(x: float) -> float:
    """Base-2 log of max(2, x)."""
    return math.log2(x) if x > 2.0 else 1.0


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


def log_nu_at(xs: np.ndarray, nu: int) -> np.ndarray:
    """``log_nu`` of each element of ``xs``, bitwise.

    One pass per factor: each factor is ``math.log2`` of the elements above
    the clamp at 2 (numpy's log2 differs from it in the last bit) and 1.0
    elsewhere, multiplied in ``log_nu``'s order.  A product times the clamped
    1.0 is unchanged, so the passes stop once no element is above the clamp.
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    f = np.asarray(xs, dtype=float)
    out = np.ones_like(f)
    for _ in range(nu):
        above = np.flatnonzero(f > 2.0)
        if not len(above):  # every factor from here is 1.0
            break
        logs = np.ones_like(f)
        logs[above] = np.fromiter(map(math.log2, f[above].tolist()), dtype=float,
                                  count=len(above))
        f = logs
        out *= f
    return out


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """A slowly varying function with its conjugate.

    ``family`` is one of ``constant``, ``log-power`` (``(log x)^gamma``) and
    ``loglog-power`` (``(log log x)^gamma``).
    """

    family: str
    gamma: float = 0.0

    def eval(self, x: float) -> float:
        if self.family == "constant":
            return 1.0
        if self.family == "log-power":
            return clog2(x) ** self.gamma
        if self.family == "loglog-power":
            return clog2(clog2(x)) ** self.gamma
        raise ValueError(f"unknown family {self.family!r}")

    __call__ = eval

    def conjugate(self) -> "SlowlyVaryingSpec":
        """De Bruijn conjugate: the reciprocal 1/L."""
        if self.family == "constant":
            return self
        return replace(self, gamma=-self.gamma)


def constant_one() -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec(family="constant")


def log_power(gamma: float) -> SlowlyVaryingSpec:
    """(log x)^gamma with the clamped base-2 log."""
    return SlowlyVaryingSpec(family="log-power", gamma=gamma)


def loglog_power(gamma: float) -> SlowlyVaryingSpec:
    """(log log x)^gamma with the clamped base-2 log."""
    return SlowlyVaryingSpec(family="loglog-power", gamma=gamma)


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
