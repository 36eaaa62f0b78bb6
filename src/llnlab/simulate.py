"""Monte Carlo engine for partial-sum laws of large numbers.

Replication randomness is addressed, not streamed: the stream of one
replication is the counter-based Philox stream keyed by (master seed, row n,
replication index), and results land in slots indexed by replication.

Every mode runs through one replication-span kernel (``_Spans``): a span is
a contiguous range of one row's replications, whose keys are derived
``KEY_REPS`` replications at a time in one vectorised pass
(``model.stream_keys``).  A span lays its row out (``model.RowSampler``)
when it starts, in whichever process draws it.  Each chunk of at most
``TASK_CELLS`` cells is one key block, drawn by
``model.RowSampler.draw_rows`` through one Philox generator re-keyed per
replication into one buffer store, both kept for the whole command.  For
each replication the kernel returns max_j |S_j| at each segment end of the
row: a WLLN row is one weighted segment ending at k_n, a path one segment
per sampled row.  ``threads`` > 1 cuts each row into one span per forked
worker process (``_replication_maxima``).  Reports are therefore bitwise
identical across runs, worker counts and schedules.

Estimates are exceedance frequencies of max_j |sum_{i<=j} c_i X_i| / b_n over
epsilon levels, with binomial standard errors.  Almost-sure statements are
approximated by a labeled proxy: the per-path suffix supremum of the same
statistic over a sampled row grid.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import RepsError, SamplingError, WorkerError
from .model import (ArraySpec, NormalizingSequence, RowSampler, SymmetricTwoPoint,
                    philox_generator, power_norming, step_columns, stream_keys)
from .moments import clamped_square_mean
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


def max_partial_sums(row: np.ndarray, weights: Optional[np.ndarray] = None):
    """max over prefixes of |weighted prefix sum|, along the last axis.

    A 1-D row gives a float, a matrix one value per row; ``row`` is left as
    it is.
    """
    r = np.asarray(row, dtype=float)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != r.shape[-1:]:
            raise ValueError(f"weights shape {w.shape} != row shape {r.shape}")
        r = w * r
    sums = np.cumsum(r, axis=-1)
    best = np.max(np.abs(sums, out=sums), axis=-1)
    return float(best) if best.ndim == 0 else best


# ---------------------------------------------------------------------------
# Plans and reports
# ---------------------------------------------------------------------------


MAX_REPS = 1 << 32  # a replication index is one 32-bit word of its stream key


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
        if self.reps > MAX_REPS:
            raise ValueError(f"--reps must be at most 2^32 (a replication index is one "
                             f"32-bit word of its stream key), got {self.reps}")
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
# The replication-span kernel and its scheduler
# ---------------------------------------------------------------------------

TASK_CELLS = 1 << 15  # cells drawn per replication chunk of a span
KEY_REPS = 1 << 12  # replications of a span whose keys are derived in one pass (64 KiB)


def _group_values(arr: ArraySpec, n: int, fn) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` of each cell group's law in row n (once per law), and the groups' sizes."""
    law, others, mag, prob, layout = step_columns(arr, n, n, by_row=True)
    laws = [*map(SymmetricTwoPoint, mag.tolist(), prob.tolist()), *others]
    return np.array([float(fn(d)) for d in laws])[law], layout[:, 2]


def _maxima(reps: int, count: int, segments: int) -> np.ndarray:
    """An empty (count, segments) array for per-replication maxima; a
    ``RepsError`` names ``--reps`` when it cannot be held."""
    try:
        return np.empty((count, segments))
    except MemoryError as exc:
        raise RepsError(f"--reps {reps} too large to hold in memory: {exc}") from None


def _chunks(k: int, reps: int) -> list[tuple[int, int]]:
    """Replication ranges [lo, hi) of at most TASK_CELLS cells of k-cell rows."""
    step = max(1, TASK_CELLS // k)
    return [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def _key_chunks(seed: int, n: int, k: int, lo: int, hi: int):
    """(first replication, Philox keys) of each ``_chunks`` range of
    replications lo..hi-1 of row n (k cells), keys derived KEY_REPS
    replications at a time."""
    for r in range(lo, hi, KEY_REPS):
        keys = stream_keys(seed, (n,), np.arange(r, min(r + KEY_REPS, hi)))
        for a, b in _chunks(k, len(keys)):
            yield r + a, keys[a:b]


class _Spans:
    """Maxima of |S_j| over each segment of a row, for replications lo..hi-1.

    Row ``i`` is row ``rows[i]`` of the plan's array.  Without ``ends`` it
    is one segment, j = 1..k_n, summed with the plan's weights; given
    ``ends`` (distinct, ascending, the last k_n) segment s is the j in
    (ends[s-1], ends[s]], unweighted, so a running maximum over the segments
    gives max_{j <= e} |S_j| at each end e.  A span is drawn in chunks of
    ``TASK_CELLS`` cells, each one key block passed to ``RowSampler.draw_rows``
    with one Philox generator and one buffer store, kept for the whole
    command (a forked worker draws through its own copies).  Each call lays
    its row out itself.
    """

    def __init__(self, plan: SimPlan, rows: tuple[int, ...], ends=None):
        self.plan, self.rows, self.ends = plan, rows, ends
        self._gen = philox_generator()
        self._store: list = []

    def __call__(self, i: int, lo: int, hi: int) -> np.ndarray:
        n, c = self.rows[i], self.plan.c
        sampler = RowSampler(self.plan.arr, n)
        weights = None if c is None or self.ends is not None else np.fromiter(
            (c(n, j) for j in range(1, sampler.k + 1)), dtype=float, count=sampler.k)
        starts = np.array([0, *(() if self.ends is None else self.ends[:-1])])
        out = _maxima(self.plan.reps, hi - lo, len(starts))
        # past float range a draw or sum is inf or NaN, which the caller refuses: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            for r, keys in _key_chunks(self.plan.seed, n, sampler.k, lo, hi):
                x = sampler.draw_rows(keys, self._gen, sampler.buffers(len(keys), self._store))
                if weights is not None:
                    np.multiply(weights, x, out=x)
                np.cumsum(x, axis=1, out=x)  # adds along a row in the order of a 1-D cumsum
                np.maximum.reduceat(np.abs(x, out=x), starts, axis=1,
                                    out=out[r - lo:r - lo + len(keys)])
        return out


def _workers(threads: int, reps: int) -> int:
    """Worker processes for ``threads``: at most one per usable CPU and per replication."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, reps))


_WORKER_SPANS: Optional[_Spans] = None  # the command's kernel, in a worker process


def _install(spans: _Spans) -> None:
    global _WORKER_SPANS
    _WORKER_SPANS = spans


def _worker_span(i: int, lo: int, hi: int) -> np.ndarray:
    return _WORKER_SPANS(i, lo, hi)


def _replication_maxima(spans: _Spans, reps: int, threads: int) -> list[np.ndarray]:
    """Per row of ``spans``, its (reps, segments) maxima in replication order.

    With more than one worker (``_workers``) and the fork start method, each
    row's replications are cut into one contiguous span per worker and drawn
    in forked worker processes, which inherit the kernel (it holds the plan's
    functions, which do not pickle); otherwise one span per row runs here.
    Every replication's stream is addressed by its index, so no byte depends
    on the split.  A maximum that is not finite (a draw or partial sum past
    the largest float, or +inf and -inf summed to NaN) is a ``SamplingError``
    naming its row: no exceedance frequency can be read from it.
    """
    workers = _workers(threads, reps)
    maxima = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            maxima = _pooled(spans, reps, workers, multiprocessing.get_context("fork"))
    if maxima is None:
        maxima = [spans(i, 0, reps) for i in range(len(spans.rows))]
    for n, m in zip(spans.rows, maxima):
        if not math.isfinite(m.max()):  # a NaN maximum propagates through max
            raise SamplingError(f"row {n}: a partial sum leaves float range")
    return maxima


def _pooled(spans: _Spans, reps: int, workers: int, ctx) -> list[np.ndarray]:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker would need the plan pickled.  The
    # executor forks every worker before it starts its own manager thread.
    cuts = [reps * w // workers for w in range(workers + 1)]
    segments = 1 if spans.ends is None else len(spans.ends)
    pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_install,
                               initargs=(spans,))
    try:
        parts = [[pool.submit(_worker_span, i, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
                 for i in range(len(spans.rows))]
        return [np.concatenate([f.result() for f in row],
                               out=_maxima(reps, reps, segments))
                for row in parts]
    except BrokenProcessPool as exc:
        raise WorkerError(f"a simulation worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# WLLN exceedance estimates
# ---------------------------------------------------------------------------


def _binomial_se(p_hat: float, reps: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / reps)


def wlln_estimate(plan: SimPlan, threads: int = 1) -> SimReport:
    """Exceedance frequencies of the normalized maximal partial sum per row.

    Every row's b_n is read before any row is drawn, so a norming sequence
    that ends early stops the command first.  Rows run one after another,
    each as replication spans on up to ``threads`` worker processes
    (``_replication_maxima``).  Each replication's statistic lands in its
    slot, so no byte depends on the schedule.
    """
    bvals = [float(plan.b(n)) for n in plan.rows]
    maxima = _replication_maxima(_Spans(plan, plan.rows), plan.reps, threads)
    eps_arr = np.asarray(plan.eps)
    entries = []
    ratio_means = []
    for n, m, b in zip(plan.rows, maxima, bvals):
        row = m[:, 0] / b
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

    def to_json_obj(self) -> dict:
        return {
            "mode": "slln-path",
            "rows": list(self.rows),
            "eps": list(self.eps),
            "seed": self.seed,
            "reps": self.reps,
            "fraction_below": {
                f"{eps}": [self.fraction_below(n, eps) for n in self.rows] for eps in self.eps
            },
        }


def slln_path_diagnostic(plan: SimPlan, threads: int = 1) -> PathReport:
    """Per-path suffix sup of max_j|S_j|/b_m over the sampled row grid.

    A path is replication r of row max(rows), X_1..X_max(rows), cut into one
    segment per distinct sampled row; its running maximum at each row is
    the maximum over that row's segments.  ``threads`` as for ``wlln_estimate``.
    """
    if not plan.arr.is_sequence:
        raise SamplingError("paths need a sequence-shaped array")
    bvals = np.array([float(plan.b(m)) for m in plan.rows])
    ends, slot = np.unique(plan.rows, return_inverse=True)
    spans = _Spans(plan, (plan.rows[-1],), ends=ends)
    maxima = _replication_maxima(spans, plan.reps, threads)[0]
    stats = np.maximum.accumulate(maxima, axis=1)[:, slot] / bvals
    suffix = np.flip(np.maximum.accumulate(np.flip(stats, axis=1), axis=1), axis=1)
    return PathReport(
        rows=tuple(plan.rows),
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
    sum_i E(clamped X_i)^2 at clamp level ``a``.  Every law is symmetric, so
    the clamped means E clamped X_i vanish and the partial sums run over the
    clamped draws themselves.
    """
    sampler = RowSampler(arr, n)
    squares, counts = _group_values(arr, n, lambda d: clamped_square_mean(d, a))
    rhs = float(np.cumsum(counts * squares)[-1])  # in group order, as a scalar loop adds
    if rhs == 0.0:
        raise ValueError("all cells degenerate at 0: probe ratio undefined")
    gen, store = philox_generator(), []
    acc = 0.0
    for _, keys in _key_chunks(seed, n, sampler.k, 0, reps):
        x = sampler.draw_rows(keys, gen, sampler.buffers(len(keys), store))
        np.clip(x, -a, a, out=x)
        for m in max_partial_sums(x).tolist():  # Python floats, in replication order
            acc += m ** 2
    return (acc / reps) / rhs
