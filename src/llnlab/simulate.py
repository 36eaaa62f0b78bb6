"""Monte Carlo engine for partial-sum laws of large numbers.

Replication randomness is addressed, not streamed: the stream of one
replication is the counter-based Philox stream keyed by (master seed, row n,
replication index), and results land in slots indexed by replication.  Each
row derives the keys of all its replications in one vectorised pass
(``model.stream_keys``).  Work is scheduled as (row, replication chunk)
tasks; each task re-keys one generator of its own per replication
(``model.rekeyed``) and draws its chunk through the row's
``model.RowSampler`` into buffers it owns.  Reports are therefore bitwise
identical across runs, thread counts, and scheduling orders.

Estimates are exceedance frequencies of max_j |sum_{i<=j} c_i X_i| / b_n over
epsilon levels, with binomial standard errors.  Almost-sure statements are
approximated by a labeled proxy: the per-path suffix supremum of the same
statistic over a sampled row grid.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SamplingError
from .model import (ArraySpec, NormalizingSequence, RowSampler, SymmetricTwoPoint,
                    power_norming, rekeyed, step_columns, stream_keys)
from .moments import clamped_mean, clamped_square_mean
from .svf import SlowlyVaryingSpec

EULER_GAMMA = 0.5772156649015328606
# cephes psi's asymptotic coefficients, highest power of 1/x^2 first
_PSI_ASYMPTOTIC = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
                   7.57575757575757575758e-3, -4.16666666666666666667e-3,
                   3.96825396825396825397e-3, -8.33333333333333333333e-3,
                   8.33333333333333333333e-2)


def harmonic(n: int) -> float:
    """H_n = sum_{i<=n} 1/i as psi(n + 1) + gamma, psi computed as cephes
    computes it at an integer x: the float sum of 1/i for i < x when
    x <= 10, otherwise log x - 1/(2x) - z P(z) with z = 1/x^2 and P the
    degree-6 polynomial ``_PSI_ASYMPTOTIC`` in Horner form (z P(z) is dropped
    once x >= 1e17).

    It equals ``float(scipy.special.digamma(n + 1)) + EULER_GAMMA`` bit for bit
    (``tests/test_simulate.py::test_harmonic_is_digamma_bitwise``).
    """
    x = float(n + 1)
    if x <= 10.0:
        psi = 0.0
        for i in range(1, int(x)):
            psi += 1.0 / i
        psi -= EULER_GAMMA
    else:
        y = 0.0
        if x < 1e17:
            z = 1.0 / (x * x)
            for c in _PSI_ASYMPTOTIC:
                y = y * z + c
            y *= z
        psi = math.log(x) - 0.5 / x - y
    return psi + EULER_GAMMA


def max_partial_sums(row: np.ndarray, weights: Optional[np.ndarray] = None, out=None):
    """max over prefixes of |weighted prefix sum|, along the last axis.

    A 1-D row gives a float, a matrix one value per row.  ``out`` (the
    input's shape, ``row`` itself allowed) receives the prefix sums.
    """
    r = np.asarray(row, dtype=float)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != r.shape[-1:]:
            raise ValueError(f"weights shape {w.shape} != row shape {r.shape}")
        r = np.multiply(w, r, out=out)
    sums = np.cumsum(r, axis=-1, out=out)
    best = np.max(np.abs(sums, out=sums), axis=-1)
    return float(best) if best.ndim == 0 else best


# ---------------------------------------------------------------------------
# Plans and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimPlan:
    """One simulation request; everything needed to reproduce it bitwise."""

    arr: ArraySpec
    b: NormalizingSequence
    rows: tuple[int, ...]
    reps: int = 2000
    eps: tuple[float, ...] = (0.1, 0.5, 1.0)
    seed: int = 0
    c: Optional[Callable[[int, int], float]] = None

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(0.0 < e < math.inf for e in self.eps):
            raise ValueError(f"epsilon levels must be positive and finite, got {self.eps}")
        if list(self.rows) != sorted(self.rows) or len(self.rows) == 0:
            raise ValueError("rows must be a nonempty ascending sequence")
        if self.rows[0] < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows[0]}")


@dataclass(frozen=True)
class RowEstimate:
    n: int
    epsilon: float
    p_hat: float
    se: float
    reps: int


@dataclass(frozen=True)
class SimReport:
    mode: str
    seed: int
    entries: tuple[RowEstimate, ...]
    ratio_means: tuple[tuple[int, float], ...]
    series: Optional[dict] = None

    def p_hat(self, n: int, epsilon: float) -> float:
        for e in self.entries:
            if e.n == n and e.epsilon == epsilon:
                return e.p_hat
        raise KeyError((n, epsilon))

    def to_csv_str(self) -> str:
        lines = ["n,epsilon,p_hat,se,R,seed"]
        for e in self.entries:
            lines.append(
                f"{e.n},{e.epsilon!r},{e.p_hat!r},{e.se!r},{e.reps},{self.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "entries": [
                {
                    "n": e.n,
                    "epsilon": e.epsilon,
                    "p_hat": e.p_hat,
                    "se": e.se,
                    "R": e.reps,
                }
                for e in self.entries
            ],
            "ratio_means": [{"n": n, "mean": m} for n, m in self.ratio_means],
        }
        if self.series is not None:
            out["series"] = self.series
        return out


# ---------------------------------------------------------------------------
# Row sampling and task scheduling
# ---------------------------------------------------------------------------

TASK_CELLS = 1 << 15  # cells drawn per (row, replication chunk) task


def _group_values(arr: ArraySpec, n: int, fn) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` of each cell group's law in row n (once per law), and the groups' sizes."""
    law, others, mag, prob, layout = step_columns(arr, n, n, by_row=True)
    laws = [*map(SymmetricTwoPoint, mag.tolist(), prob.tolist()), *others]
    return np.array([float(fn(d)) for d in laws])[law], layout[:, 2]


def _chunks(k: int, reps: int) -> list[tuple[int, int]]:
    """Replication ranges [lo, hi) of at most TASK_CELLS cells of k-cell rows."""
    step = max(1, TASK_CELLS // k)
    return [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def sequence_paths(arr: ArraySpec, length: int, reps: int, seed: int):
    """Yield (rep, path) realizations X_1..X_length of a sequence array."""
    if not arr.is_sequence:
        raise SamplingError("paths need a sequence-shaped array")
    sampler = RowSampler(arr, length)
    for rep, rng in enumerate(rekeyed(stream_keys(seed, (length,), np.arange(reps)))):
        yield rep, sampler.draw(rng)


# ---------------------------------------------------------------------------
# WLLN exceedance estimates
# ---------------------------------------------------------------------------


def _row_stats(plan: SimPlan, n: int):
    """stats(lo, hi): normalized max partial sums of replications lo..hi-1 of row n."""
    sampler = RowSampler(plan.arr, n)
    bn, k = float(plan.b(n)), sampler.k
    cvec = None if plan.c is None else np.fromiter(
        (plan.c(n, i) for i in range(1, k + 1)), dtype=float, count=k)
    keys = stream_keys(plan.seed, (n,), np.arange(plan.reps))

    def stats(lo: int, hi: int) -> np.ndarray:
        x = sampler.draw_rows(rekeyed(keys[lo:hi]), sampler.buffers(hi - lo))
        return max_partial_sums(x, cvec, out=x) / bn

    return stats


def _binomial_se(p_hat: float, reps: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / reps)


def wlln_estimate(plan: SimPlan, threads: int = 1) -> SimReport:
    """Exceedance frequencies of the normalized maximal partial sum per row.

    Work runs as (row, replication chunk) tasks on up to ``threads`` threads,
    one row after another, so one row's layout is held at a time.  Each
    replication's statistic lands in its slot, so no byte depends on the
    schedule.
    """
    chunks = [_chunks(plan.arr.k(n), plan.reps) for n in plan.rows]
    workers = min(threads, max(map(len, chunks)))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        # chunks run in order and cover 0..reps-1, so they join in slot order
        stats = [np.concatenate(list(run(_row_stats(plan, n), *zip(*spans))))
                 for n, spans in zip(plan.rows, chunks)]
    eps_arr = np.asarray(plan.eps)
    entries = []
    ratio_means = []
    for n, row in zip(plan.rows, stats):
        # cumsum adds one by one in replication order; np.sum adds pairwise
        ratio_means.append((n, float(np.cumsum(row)[-1] / plan.reps)))
        for eps, cnt in zip(plan.eps, np.count_nonzero(row[:, None] > eps_arr, axis=0)):
            p_hat = float(cnt) / plan.reps
            entries.append(
                RowEstimate(n, eps, p_hat, _binomial_se(p_hat, plan.reps), plan.reps)
            )
    return SimReport(
        mode="wlln",
        seed=plan.seed,
        entries=tuple(entries),
        ratio_means=tuple(ratio_means),
    )


# ---------------------------------------------------------------------------
# Complete-convergence series estimate
# ---------------------------------------------------------------------------


def slln_series_estimate(
    plan: SimPlan,
    sv: Optional[SlowlyVaryingSpec] = None,
    p: float = 1.0,
    threads: int = 1,
) -> SimReport:
    """Estimate sum_n n^-1 P(max_k |S_k| > eps n^(1/p) Lt(n^(1/p))) blockwise.

    Exceedance probabilities are sampled on the plan's row grid and the
    harmonic mass between consecutive sampled rows is weighted by the
    trapezoid of neighbouring estimates.  The head below the first sampled row
    uses the first estimate, flat.
    """
    b = power_norming(p, sv.conjugate() if sv is not None else None)
    base_plan = dataclasses.replace(plan, b=b)
    rep = wlln_estimate(base_plan, threads=threads)
    rows = list(plan.rows)
    series: dict = {"eps": list(plan.eps), "per_eps": []}
    for eps in plan.eps:
        phats = [rep.p_hat(n, eps) for n in rows]
        contributions = [harmonic(rows[0]) * phats[0]]
        for j in range(len(rows) - 1):
            mass = harmonic(rows[j + 1]) - harmonic(rows[j])
            contributions.append(mass * 0.5 * (phats[j] + phats[j + 1]))
        partials = [float(x) for x in np.cumsum(contributions)]
        tail3 = contributions[-3:]
        if contributions[-1] <= 1e-6:
            diagnostic = "bounded"
        elif (
            len(tail3) == 3
            and all(b2 >= a2 - 1e-12 for a2, b2 in zip(tail3[:-1], tail3[1:]))
            and tail3[-1] > 1e-3
        ):
            diagnostic = "unbounded"
        else:
            diagnostic = "indeterminate"
        series["per_eps"].append(
            {
                "epsilon": eps,
                "contributions": contributions,
                "partials": partials,
                "diagnostic": diagnostic,
            }
        )
    return SimReport(
        mode="slln-series",
        seed=plan.seed,
        entries=rep.entries,
        ratio_means=rep.ratio_means,
        series=series,
    )


# ---------------------------------------------------------------------------
# Path proxy for almost-sure convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathReport:
    """Tail-sup proxy: this is a sampled-grid stand-in for an a.s. limit."""

    rows: tuple[int, ...]
    eps: tuple[float, ...]
    seed: int
    reps: int
    suffix_sups: np.ndarray  # (reps, len(rows)) sup over sampled m >= rows[j]

    def fraction_below(self, n: int, epsilon: float) -> float:
        j = self.rows.index(n)
        return float(np.mean(self.suffix_sups[:, j] < epsilon))


def slln_path_diagnostic(plan: SimPlan) -> PathReport:
    """Per-path suffix sup of max_j|S_j|/b_m over the sampled row grid."""
    rows = plan.rows
    nmax = rows[-1]
    bvals = np.array([float(plan.b(m)) for m in rows])
    stats = np.empty((plan.reps, len(rows)))
    for rep, path in sequence_paths(plan.arr, nmax, plan.reps, plan.seed):
        run_max = np.maximum.accumulate(np.abs(np.cumsum(path)))
        stats[rep] = run_max[np.asarray(rows) - 1] / bvals
    suffix = np.flip(np.maximum.accumulate(np.flip(stats, axis=1), axis=1), axis=1)
    return PathReport(
        rows=tuple(rows),
        eps=tuple(plan.eps),
        seed=plan.seed,
        reps=plan.reps,
        suffix_sups=suffix,
    )


# ---------------------------------------------------------------------------
# Maximal-inequality constant probe
# ---------------------------------------------------------------------------


def condition_h_probe(
    arr: ArraySpec, a: float, n: int, reps: int, seed: int
) -> float:
    """Monte Carlo estimate of the maximal-inequality constant for one row.

    Ratio of E(max_k |sum_{i<=k} (clamped X_i - E clamped X_i)|)^2 to
    sum_i E(clamped X_i)^2 at clamp level ``a``.
    """
    sampler = RowSampler(arr, n)
    squares, counts = _group_values(arr, n, lambda d: clamped_square_mean(d, a))
    rhs = float(np.cumsum(counts * squares)[-1])  # in group order, as a scalar loop adds
    if rhs == 0.0:
        raise ValueError("all cells degenerate at 0: probe ratio undefined")
    centers = np.repeat(*_group_values(arr, n, lambda d: clamped_mean(d, a)))
    bufs = sampler.buffers()
    acc = 0.0
    for rng in rekeyed(stream_keys(seed, (n,), np.arange(reps))):
        row = sampler.draw(rng, bufs)
        clamped = np.clip(row, -a, a) - centers
        acc += max_partial_sums(clamped) ** 2
    return (acc / reps) / rhs
