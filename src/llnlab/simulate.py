"""Monte Carlo engine for partial-sum laws of large numbers.

Replication randomness is addressed, not streamed: replication r of row n is
lane r mod B of block r div B (B = ``BLOCK_REPS`` = 64), block b reads the
counter-based Philox stream keyed by (master seed, n, b), draw d of lane i
being its draw dB + i, a raw word or, for a ``GaussianNA`` row, a normal
(``model.RowSampler``), and results land in slots indexed by replication.
So no draw depends on ``--reps``, the worker count or the schedule, and
reports are bitwise identical across them.  Every mode runs through one
replication-span kernel (``_Spans``) on spans of a row that start on block
edges, one per row or per forked worker (``_replication_maxima``).  A span
derives its blocks' keys in one pass and cuts them into parts
(``_key_blocks``), lays its row out, and draws through one Philox generator
and one buffer store, both kept for the whole command.  For each replication
it returns max_j |S_j| at each segment end of the row: a WLLN row is one
weighted segment ending at k_n, a path one segment per sampled row.

A span of at least ``COLUMN_REPS`` replications of a row whose cells are
all sure-magnitude cells runs the column kernel, which sums replications
side by side, S_j = S_(j-1) + x_j from S_0 = 0, one vector add per cell.
Its x_j = s_j (c_j m_j) is bitwise the row kernel's c_j (s_j m_j) for s_j =
+-1 (zeros, infinities and NaNs included), and S_0 = 0 moves an S_j of
cumsum's only in the sign of a zero, which |S_j| drops.  So each replication
gets cumsum's IEEE adds in cumsum's order, and both kernels give the same
bytes; a NaN sum propagates through ``np.maximum`` in both.

The column kernel skips the float adds of a run of up to ``RUN_BLOCKS``
consecutive full blocks whose weighted magnitudes c_j m_j are all 1, inside
one segment, where it can prove they are exact.  Tables of 16-bit chunks of
sign bits give each replication's walk over the run: its end t_end, prefix
maximum t_max and prefix minimum t_min.  From the carried sum c, the run's
largest |S_j| is max(|c + t_max|, |c + t_min|) and the next carry c + t_end,
once both c + t_max and c + t_min are exact (Knuth's TwoSum error is 0) and
at most 2^52 in magnitude.  Adding an integer keeps the lowest set bit of a c
with a fraction, so whether c + t is a float is monotone in |c + t|, and
every integer up to 2^53 is a float: every S_j of the run is a float, each
IEEE add returns it exactly, and the bytes are those of the adds.  A
replication whose run is not certified takes the float adds from c, in
cumsum's order.

A row of independent step laws expecting at most k / ``SPIKE_RATIO`` nonzero
draws a replication runs the spike kernel, which sums those alone, as the
row's one chunk decoder hands them out (``RowSampler.draw_nonzero``): a zero
draw adds +0.0 in cumsum, leaving S_(j-1) as it is but for the sign of a
zero, so the cumsum of each replication's nonzero draws in cell order gives
every S_j at a nonzero cell with cumsum's adds, and the same maxima.  A
row with an infinite magnitude or weight, whose zero draws are NaN, takes
the row kernel.

Estimates are exceedance frequencies of max_j |sum_{i<=j} c_i X_i| / b_n over
epsilon levels, with binomial standard errors.  Almost-sure statements are
approximated by a labeled proxy: the per-path suffix supremum of the same
statistic over a sampled row grid.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import RepsError, SamplingError, WorkerError
from .model import (BLOCK_REPS, ArraySpec, NormalizingSequence, RowSampler, SymmetricTwoPoint,
                    fair_signs, philox_generator, power_norming, step_columns, store_array,
                    stream_keys)
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


MAX_REPS = 1 << 32  # replication indexes stay below 2^32; a block index is one 32-bit key word


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
            raise ValueError(f"--reps must be at most 2^32 (a block index is one "
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

TASK_CELLS = 1 << 15  # cells of a row-kernel part, and words of a column-kernel pass, at most
COLUMN_REPS = 256  # the fewest replications of a span of sure cells that sums across them
COLUMN_GROUP = 512  # replications summed side by side, at most, in the column kernel
RUN_BLOCKS = 8  # 64-cell blocks of +-1 cells summed as one certified integer walk, at most
SPIKE_RATIO = 4  # cells per expected nonzero draw, at least, of a row the spike kernel sums


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


def _key_blocks(seed: int, n: int, lo: int, hi: int, size: int):
    """(first replication, end, keys of its blocks) of each part of
    replications lo..hi-1 of row n, lo a block edge: keys derived in one pass
    (16 bytes a block, against 8 a replication of maxima), cut evenly into the
    fewest parts of whole blocks, at most ``size`` replications, at least one
    block, each."""
    if lo % BLOCK_REPS:
        raise ValueError(f"replication {lo} does not start a block")
    if size < BLOCK_REPS:
        raise ValueError(f"parts of {size} replications hold no whole block")
    b0, b1 = lo // BLOCK_REPS, -(-hi // BLOCK_REPS)
    keys, parts = stream_keys(seed, (n,), np.arange(b0, b1)), -(-(b1 - b0) // (size // BLOCK_REPS))
    cuts = [(b1 - b0) * p // parts for p in range(parts + 1)]
    for a, z in zip(cuts, cuts[1:]):
        yield (b0 + a) * BLOCK_REPS, min((b0 + z) * BLOCK_REPS, hi), keys[a:z]


def _spiky(sampler: RowSampler, ends, weights) -> bool:
    """Whether a row takes the spike kernel: one segment, a
    ``RowSampler.spike_rate`` of at most k / ``SPIKE_RATIO`` and finite
    weights (an infinite weight makes a zero draw NaN, not 0)."""
    return (ends is None and SPIKE_RATIO * sampler.spike_rate <= sampler.k
            and (weights is None or bool(np.isfinite(weights).all())))


class _Spans:
    """Maxima of |S_j| over each segment of a row, for replications lo..hi-1.

    Row ``i`` is row ``rows[i]`` of the plan's array, and lo is a block
    edge.  Without ``ends`` it is one segment, j = 1..k_n, summed with the
    plan's weights; given ``ends`` (distinct, ascending, the last k_n)
    segment s is the j in (ends[s-1], ends[s]], unweighted, so a running
    maximum over the segments gives max_{j <= e} |S_j| at each end e.
    ``clip``, given without weights, clamps each draw to [-clip, clip] first.

    A row of no cells has maxima 0.  The row kernel draws parts of whole
    blocks, at most ``TASK_CELLS`` cells or one block, and runs ``np.cumsum``
    along each row.  A row of more than ``TASK_CELLS // BLOCK_REPS`` cells is
    drawn a block at a time in slabs of that many (``RowSampler.slabs``),
    each adding the sum carried from the last into its first draw: cumsum's
    adds in cumsum's order.  The spike kernel, for a row ``_spiky`` admits,
    is the row kernel but for what it sums: each replication's nonzero draws
    of a slab, decoded as (lane, cell, value) by ``RowSampler.draw_nonzero``,
    weighted and clamped, packed in cell order to the left of a zero-padded
    (m, K) array, K the most of any replication.
    The column kernel sums groups of at most ``COLUMN_GROUP`` replications,
    the row's weights folded into its magnitudes, from W = ``TASK_CELLS //
    COLUMN_GROUP`` sign words at a time in a (W, G) array.  Runs of full
    64-cell blocks of magnitude 1 in one segment go to ``_walk_run``; each
    other block turns its word's bits into a (cells, G) block of +-1.0, times
    the magnitudes unless all are 1, adds S_(j-1) to x_j row by row from the
    carried sum, and folds each segment's share into the group's (segments,
    G) maxima.
    """

    def __init__(self, plan: SimPlan, rows: tuple[int, ...], ends=None, clip=None):
        self.plan, self.rows, self.ends, self.clip = plan, rows, ends, clip
        self._gen = philox_generator()
        self._store: list = []

    def __call__(self, i: int, lo: int, hi: int) -> np.ndarray:
        n, c = self.rows[i], self.plan.c
        sampler = RowSampler(self.plan.arr, n)
        weights = None if c is None or self.ends is not None else np.fromiter(
            (c(n, j) for j in range(1, sampler.k + 1)), dtype=float, count=sampler.k)
        starts = np.array([0, *(() if self.ends is None else self.ends[:-1])])
        out = _maxima(self.plan.reps, hi - lo, len(starts))
        out[...] = 0.0  # the maximum over no partial sums, and below every |S_j| to fold in
        if not sampler.k:
            return out
        # past float range a draw or sum is inf or NaN, which the caller refuses: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            if sampler.n_sure == sampler.k and hi - lo >= COLUMN_REPS and self.clip is None:
                self._columns(n, sampler, weights, starts, lo, hi, out)
                return out
            slabs = sampler.slabs(max(1, TASK_CELLS // BLOCK_REPS))
            # whole blocks a part: a row of slabs (slabs[0].k = TASK_CELLS // BLOCK_REPS) in
            # parts of exactly one, as the later slabs of a GaussianNA row draw them
            size = max(BLOCK_REPS, TASK_CELLS // slabs[0].k)
            parts, c0 = [], 0  # per slab: first cell, buffers, segments and their starts in it
            for slab in slabs:
                segs = slice(np.searchsorted(starts, c0, "right") - 1,
                             np.searchsorted(starts, c0 + slab.k))
                parts.append((c0, slab.buffers(min(size, hi - lo), self._store), segs,
                              np.maximum(starts[segs] - c0, 0)))
                c0 += slab.k
            spiky = _spiky(sampler, self.ends, weights)
            for a, z, keys in _key_blocks(self.plan.seed, n, lo, hi, size):
                acc, carry = out[a - lo:z - lo], None
                for slab, (c0, bufs, segs, cuts) in zip(slabs, parts):
                    if spiky:  # each replication's nonzero draws in cell order, then zeros
                        lanes, cells, x = slab.draw_nonzero(keys, self._gen, bufs, z - a)
                    else:
                        x = slab.draw_rows(keys, self._gen, bufs, z - a)
                    if weights is not None:
                        np.multiply(weights[c0 + cells] if spiky else weights[c0:c0 + slab.k], x,
                                    out=x)
                    if self.clip is not None:
                        np.clip(x, -self.clip, self.clip, out=x)
                    if spiky:
                        count = np.bincount(lanes, minlength=z - a)
                        y = store_array(self._store, 3, (z - a) * int(count.max(initial=1)))
                        y = y.reshape(z - a, -1)
                        y[...] = 0.0
                        y[np.arange(y.shape[1]) < count[:, None]] = x
                        x = y
                    if carry is not None:
                        x[:, 0] += carry  # S_(c0) + x_(c0 + 1), as cumsum adds
                    np.cumsum(x, axis=1, out=x)  # adds along a row in the order of a 1-D cumsum
                    carry = x[:, -1].copy()
                    top = np.maximum.reduceat(np.abs(x, out=x), cuts, axis=1)
                    np.maximum(acc[:, segs], top, out=acc[:, segs])
        return out

    def _columns(self, n: int, sampler: RowSampler, weights, starts, lo: int, hi: int,
                 out: np.ndarray) -> None:
        """The column kernel: ``out``'s maxima of replications lo..hi-1 of row
        n, a row of sure cells, summed across up to ``COLUMN_GROUP`` of them at once."""
        k, words_in_row = sampler.k, -(-sampler.k // 64)
        # s (c m) is the row kernel's c (s m), bit for bit, for a sign s = +-1
        mag = sampler.sure_mag if weights is None else weights * sampler.sure_mag
        width = max(1, TASK_CELLS // COLUMN_GROUP)  # words per replication per pass
        bounds = np.append(starts, k).tolist()
        scaled = np.logical_or.reduceat(mag != 1.0, np.arange(0, k, 64)).tolist()
        # per 64-cell block: its cells, magnitudes (None when all are 1) and
        # share of each segment
        blocks = []
        for c0, scale in zip(range(0, k, 64), scaled):
            c1 = min(c0 + 64, k)
            blocks.append((c1 - c0, mag[c0:c1, None] if scale else None,
                           [(s, max(bounds[s], c0) - c0, min(bounds[s + 1], c1) - c0)
                            for s in range(len(starts)) if bounds[s] < c1 and bounds[s + 1] > c0]))
        # steps (first block, last block + 1, segment): a run of at most RUN_BLOCKS
        # full blocks of +-1 cells in one segment and one pass, or one other
        # block (segment None), summed cell by cell
        steps = []
        for b, (cells, scale, parts) in enumerate(blocks):
            unit = cells == 64 and scale is None and len(parts) == 1
            seg = parts[0][0] if unit else None
            b0, b1, run = steps[-1] if steps else (0, 0, None)
            if seg is not None and run == seg and b1 == b and b - b0 < RUN_BLOCKS and b % width:
                steps[-1] = (b0, b + 1, seg)
            else:
                steps.append((b, b + 1, seg))
        passes = [list(p) for _, p in itertools.groupby(steps, lambda step: step[0] // width)]
        add, maximum = np.add, np.maximum
        for a, z, keys in _key_blocks(self.plan.seed, n, lo, hi, COLUMN_GROUP):
            m = z - a
            words = store_array(self._store, 0, width * m).view("<u8").reshape(width, m)
            block = store_array(self._store, 1, 65 * m).reshape(65, m)
            # row 0 carries S from block to block, rows 1.. hold a block's sums
            chain = list(zip(block, block[1:]))
            block[0] = 0.0  # S_0: 0 + x_1 is cumsum's S_1 but for the sign of a zero
            acc = out[a - lo:a - lo + m].T  # (segments, m)
            for w0, pass_steps in zip(range(0, words_in_row, width), passes):
                passed = min(width, words_in_row - w0)
                sampler.draw_words(keys, self._gen, words[:passed], w0)
                for b0, b1, seg in pass_steps:
                    u = b0 - w0
                    if seg is not None:
                        _walk_run(words[u:u + b1 - b0], block[0], acc[seg], block[1:])
                        continue
                    cells, scale, parts = blocks[b0]
                    x = block[1:cells + 1]
                    np.copyto(x, fair_signs(words[u].view(np.uint8).reshape(m, 8).T, 0, cells))
                    if scale is not None:
                        np.multiply(x, scale, out=x)
                    for prev, cur in chain[:cells]:  # S_j = S_(j-1) + x_j, as cumsum adds
                        add(prev, cur, cur)
                    block[0] = x[-1]
                    np.abs(x, out=x)
                    for s, i, j in parts:
                        maximum(acc[s], maximum.reduce(x[i:j], axis=0), out=acc[s])


@functools.cache
def _walk_table() -> np.ndarray:
    """The +-1 walk of each 16-bit chunk of sign bits, bit i its step i + 1
    (+1 for 1), as ``fair_signs`` reads them: one ``'<u2'`` per chunk value
    whose bytes are the walk's end and prefix maximum over steps 1..16
    (int8).  The chunk's prefix minimum is minus the prefix maximum of its
    complement, whose every step is flipped.  Built on first use: 128 KiB."""
    walk = np.cumsum(fair_signs(np.arange(256, dtype=np.uint8)[:, None], 1, 8), axis=1,
                     dtype=np.int8)
    end, top = walk[:, -1], walk.max(axis=1)
    table = np.zeros(1 << 16, dtype="<u2")
    lanes = table.view(np.int8).reshape(256, 256, 2)  # [high byte, low byte]: low steps first
    np.add(end, end[:, None], out=lanes[..., 0])
    np.maximum(top, np.add(end, top[:, None], out=lanes[..., 1]), out=lanes[..., 1])
    return table


def _walk_stats(words: np.ndarray, scratch: np.ndarray):
    """(end, maximum, minimum) as floats of each replication's +-1 walk t_1,
    t_2, ... over its sign words, in ``fair_signs``' order.

    ``words`` (B, m), ``'<u8'`` with contiguous rows, holds word w of
    replication r at (w, r); ``scratch``, contiguous, of at least 24 B m
    bytes, takes the table reads.  Two reads a 16-bit chunk, of it and of
    its complement; then pairs of chunks, pairs of pairs, and the words in
    order.
    """
    b, m = words.shape
    chunks, table = words.view("<u2"), _walk_table()
    n, flat = chunks.size, scratch.reshape(-1).view("<u2")
    up = np.take(table, chunks, out=flat[:n].reshape(chunks.shape), mode="clip")
    flipped = np.invert(chunks, out=flat[2 * n:3 * n].reshape(chunks.shape))
    down = np.take(table, flipped, out=flat[n:2 * n].reshape(chunks.shape), mode="clip")
    # (word, replication, chunk, lane); drop is minus the minimum
    up, down = (x.view(np.int8).reshape(b, m, 4, 2) for x in (up, down))
    end, top, drop = up[..., 0], up[..., 1], down[..., 1]
    for _ in range(2):  # the walk from a pair's first chunk into its second
        first = end[..., 0::2]
        top = np.maximum(top[..., 0::2], top[..., 1::2] + first)
        drop = np.maximum(drop[..., 0::2], drop[..., 1::2] - first)
        end = first + end[..., 1::2]
    end, top, drop = (np.asarray(x[..., 0], dtype=float) for x in (end, top, drop))
    before = np.zeros(m)  # the walk before each word
    for w in range(b):
        np.add(top[w], before, out=top[w])
        np.subtract(drop[w], before, out=drop[w])
        np.add(before, end[w], out=before)
    return before, np.max(top, axis=0), -np.max(drop, axis=0)


def _exact(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Where the float sum s = a + b is the exact sum: Knuth's TwoSum error
    (a - (s - b')) + (b - b'), b' = s - a, is 0.  Never at an inf or NaN."""
    b_virtual = s - a
    return (a - (s - b_virtual)) + (b - b_virtual) == 0.0


def _certified(carry: np.ndarray, top: np.ndarray, bottom: np.ndarray):
    """(max(|carry + top|, |carry + bottom|), certified) per replication.

    Certified means both sums are exact and at most 2^52 in magnitude.  Then
    carry + t is exact for every integer t in [bottom, top]: adding an
    integer keeps the lowest set bit of a carry that has a fraction, so such
    a sum is exact iff its magnitude is below a bound, and an integer sum is
    exact up to 2^53.  So a +-1 walk from the carry between those ends gets
    exact float adds, and its largest |S_j| is the first value.
    """
    high, low = carry + top, carry + bottom
    ok = _exact(carry, top, high)
    ok &= _exact(carry, bottom, low)
    peak = np.maximum(np.abs(high, out=high), np.abs(low, out=low), out=high)
    ok &= peak <= 2.0 ** 52
    return peak, ok


def _walk_run(words: np.ndarray, carry: np.ndarray, acc: np.ndarray,
              scratch: np.ndarray) -> None:
    """Sum a run of full blocks of +-1 cells from S = ``carry`` as integer walks.

    ``words`` (B, m) holds each replication's B sign words.  A replication
    whose walk ``_certified`` certifies takes max_j |S_j| = max(|c + t_max|,
    |c + t_min|) and carries c + t_end; the others take cumsum's float adds
    from the carry.  Either way ``carry`` and ``acc`` (a segment's maxima)
    get the bytes of the float adds.  ``scratch`` is as ``_walk_stats``'.
    """
    end, top, bottom = _walk_stats(words, scratch)
    peak, ok = _certified(carry, top, bottom)
    bad = np.flatnonzero(~ok)
    if len(bad):  # the carry as S_0, then the run's cells: one replication a row
        path = np.empty((len(bad), 64 * len(words) + 1))
        path[:, 0] = carry[bad]
        octets = np.ascontiguousarray(words[:, bad].T).view(np.uint8)
        path[:, 1:] = fair_signs(octets, 1, path.shape[1] - 1)
        np.cumsum(path, axis=1, out=path)  # adds along a row in the order of a 1-D cumsum
        last = path[:, -1].copy()
        peak[bad] = np.max(np.abs(path[:, 1:], out=path[:, 1:]), axis=1)
    np.add(carry, end, out=carry)
    if len(bad):
        carry[bad] = last
    np.maximum(acc, peak, out=acc)


def _workers(threads: int, reps: int) -> int:
    """Worker processes for ``threads``: at most one per usable CPU and per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, -(-reps // BLOCK_REPS)))


_WORKER_SPANS: Optional[_Spans] = None  # the command's kernel, in a worker process


def _install(spans: _Spans) -> None:
    global _WORKER_SPANS
    _WORKER_SPANS = spans


def _worker_span(i: int, lo: int, hi: int) -> np.ndarray:
    return _WORKER_SPANS(i, lo, hi)


def _replication_maxima(spans: _Spans, reps: int, threads: int) -> list[np.ndarray]:
    """Per row of ``spans``, its (reps, segments) maxima in replication order.

    With more than one worker (``_workers``) and the fork start method, each
    row is cut on block edges into one span per forked worker process, which
    inherits the kernel (it holds the plan's functions, which do not pickle);
    otherwise one span per row runs here.  No byte depends on the split.  A
    maximum that is not finite (a draw or partial sum past the largest float,
    or +inf and -inf summed to NaN) is a ``SamplingError`` naming its row."""
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
    cuts = [min(-(-reps // BLOCK_REPS) * w // workers * BLOCK_REPS, reps)
            for w in range(workers + 1)]
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
    entries, ratio_means = [], []
    for n, m, b in zip(plan.rows, maxima, bvals):
        row = m[:, 0] / b
        # cumsum adds one by one in replication order; np.sum adds pairwise
        ratio_means.append((n, float(np.cumsum(row)[-1] / plan.reps)))
        for eps, cnt in zip(plan.eps, np.count_nonzero(row[:, None] > eps_arr, axis=0)):
            p_hat = float(cnt) / plan.reps
            entries.append(RowEstimate(n, eps, p_hat, _binomial_se(p_hat, plan.reps), plan.reps))
    return SimReport(mode="wlln", seed=plan.seed, entries=tuple(entries),
                     ratio_means=tuple(ratio_means))


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
    return SimReport(mode="slln-series", seed=plan.seed, entries=rep.entries,
                     ratio_means=rep.ratio_means, series=series)


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
    return PathReport(rows=tuple(plan.rows), eps=tuple(plan.eps), seed=plan.seed,
                      reps=plan.reps, suffix_sups=suffix)


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
    squares, counts = _group_values(arr, n, lambda d: clamped_square_mean(d, a))
    rhs = float(np.cumsum(counts * squares)[-1])  # in group order, as a scalar loop adds
    if rhs == 0.0:
        raise ValueError("all cells degenerate at 0: probe ratio undefined")
    plan = SimPlan(arr=arr, b=power_norming(1.0), rows=(n,), reps=reps, seed=seed)
    acc = 0.0
    for m in _Spans(plan, plan.rows, clip=a)(0, 0, reps)[:, 0].tolist():  # in replication order
        acc += m ** 2
    return (acc / reps) / rhs
