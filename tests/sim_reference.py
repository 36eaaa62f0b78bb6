"""Per-replication reference loops for the simulation tests.

One Philox stream serves a block of ``B`` = 64 replications of a row:
block b of row n is ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(n, b))))``, and replication r is lane r mod B of block r div B.
Draw d of lane i is draw d B + i of the block's stream, a raw word of an
independent row or a normal of a ``GaussianNA`` row: lane i reads column i
of the block's draws shaped (rows, B).  ``ReplicationStream`` hands one
replication its draws as a generator would, built here from numpy's
``SeedSequence`` alone, so it shares no keying code with the kernels it
checks.  ``row_words`` reads an independent row's words from such a stream
by the layout rule, one 64-bit word per cell, with no tie logic, and
``count_ties`` counts the ties the kernels resolve.
``reference_suffix_sups`` is the per-path loop that
``simulate.slln_path_diagnostic`` ran before paths were drawn in batches
through the replication-span kernel; ``reference_condition_h_probe`` is the
per-replication loop ``simulate.condition_h_probe`` ran before it drew key
blocks.  Both are kept to check the kernels bit for bit.
"""

from types import SimpleNamespace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from llnlab.errors import SamplingError
from llnlab.model import RowSampler
from llnlab.moments import clamped_square_mean
from llnlab.simulate import _group_values, max_partial_sums

B = 64  # replications of a block, stated here rather than read from the code under test


def reference_rng(seed, *key):
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))


_BLOCK: dict = {}  # the draws of the block read last, which its next lanes read too


def block_draws(key, kind: str, first: int, size: int) -> np.ndarray:
    """Rows first..first+size-1 of the (rows, B) words, or (kind "normals")
    normals, of the block at ``key`` = (seed, n, b): draws first·B ..
    (first + size)·B - 1 of its stream."""
    if _BLOCK.get("key") != key:
        _BLOCK.clear()
        _BLOCK["key"] = key
    if (kind, first, size) not in _BLOCK:
        if kind == "normals":
            draws = reference_rng(*key).standard_normal((first + size, B))[first:]
        else:  # counter c of a fresh Philox fills words 4(c - 1) .. 4c - 1 of its stream
            bit = reference_rng(*key).bit_generator
            bit.advance(first * B // 4)
            draws = bit.random_raw(size * B).reshape(size, B)
        _BLOCK[kind, first, size] = draws
    return _BLOCK[kind, first, size]


class ReplicationStream:
    """Replication ``rep`` of row n of ``seed``, as a generator hands it out:
    ``random_raw`` and ``random`` calls read its words in order, and
    ``standard_normal`` calls its normals, from column rep mod B of its
    block's words or normals."""

    def __init__(self, seed, n, rep):
        self._key, self._lane, self._used = (seed, n, rep // B), rep % B, 0
        self.bit_generator = SimpleNamespace(random_raw=self.random_raw)

    def _column(self, kind: str, size: int) -> np.ndarray:
        self._used += size
        return block_draws(self._key, kind, self._used - size, size)[:, self._lane]

    def random_raw(self, size):
        return self._column("words", size)

    def random(self, size):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53

    def standard_normal(self, size=None, out=None):
        z = self._column("normals", size or out.size)
        if out is None:
            return z.copy()
        out[...] = z
        return out


def row_words(rng, sure: int, two_point: int, pareto: int):
    """(sign words, w per two-point cell, word per Pareto cell) of one
    independent row, read from one ``random_raw`` call by the layout rule.

    First ceil(sure/64) sign words; then ceil(two_point/4) chunk words,
    two-point cell t reading 16-bit chunk t mod 4, little-endian, of chunk
    word t div 4; then one word per Pareto cell; then a refinement word per
    two-point cell, t's at the fixed word R0 + t, R0 the words before it.
    Cell t's word is w = chunk 2^48 + the top 48 bits of its refinement word.
    """
    s, c = -(-sure // 64), -(-two_point // 4)
    raw = [int(w) for w in rng.bit_generator.random_raw(s + c + pareto + two_point)]
    chunks = [raw[s + t // 4] >> 16 * (t % 4) & 0xFFFF for t in range(two_point)]
    refine = raw[s + c + pareto:]
    w = [chunk << 48 | low >> 16 for chunk, low in zip(chunks, refine)]
    return (np.array(raw[:s], dtype=np.uint64), np.array(w, dtype=np.uint64),
            np.array(raw[s + c:s + c + pareto], dtype=np.uint64))


def count_ties(monkeypatch) -> list:
    """Patch ``RowSampler._hits`` to record how many refinement words (ties)
    each call reads, in this process; returns the list it appends to."""
    seen, hits = [], RowSampler._hits

    def spy(self, words, refine):
        def counted(lanes, t):
            seen.append(len(lanes))
            return refine(lanes, t)

        return hits(self, words, counted)

    monkeypatch.setattr(RowSampler, "_hits", spy)
    return seen


def sequence_paths(arr, length: int, reps: int, seed: int):
    """Yield (rep, path) realizations X_1..X_length of a sequence array."""
    if not arr.is_sequence:
        raise SamplingError("paths need a sequence-shaped array")
    sampler = RowSampler(arr, length)
    for rep in range(reps):
        yield rep, sampler.draw(ReplicationStream(seed, length, rep))


def reference_suffix_sups(plan) -> np.ndarray:
    """(reps, rows) suffix sups of max_j |S_j| / b_m, one path at a time."""
    rows = plan.rows
    bvals = np.array([float(plan.b(m)) for m in rows])
    stats = np.empty((plan.reps, len(rows)))
    for rep, path in sequence_paths(plan.arr, rows[-1], plan.reps, plan.seed):
        run_max = np.maximum.accumulate(np.abs(np.cumsum(path)))
        stats[rep] = run_max[np.asarray(rows) - 1] / bvals
    return np.flip(np.maximum.accumulate(np.flip(stats, axis=1), axis=1), axis=1)


def reference_condition_h_probe(arr, a: float, n: int, reps: int, seed: int) -> float:
    """``simulate.condition_h_probe``, one replication at a time."""
    sampler = RowSampler(arr, n)
    squares, counts = _group_values(arr, n, lambda d: clamped_square_mean(d, a))
    rhs = float(np.cumsum(counts * squares)[-1])
    bufs = sampler.buffers()
    acc = 0.0
    for rep in range(reps):
        row = sampler.draw(ReplicationStream(seed, n, rep), bufs)
        acc += max_partial_sums(np.clip(row, -a, a)) ** 2
    return (acc / reps) / rhs
