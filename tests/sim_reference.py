"""Per-replication reference loops for the simulation tests.

One Philox stream serves a block of ``B`` = 64 replications of a row:
block b of row n is ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(n, b))))``, and replication r is lane r mod B of block r div B.
An independent row is word-major (word w of lane i is word w B + i of the
block's stream), a ``GaussianNA`` row replication-major (lane i takes the
block's normals i(k + 1) .. i(k + 1) + k).  ``ReplicationStream`` hands one
replication its draws as a generator would, built here from numpy's
``SeedSequence`` alone, so it shares no keying code with the kernels it
checks.  ``reference_suffix_sups`` is the per-path loop that
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
    """Words first..first+size-1 of every lane of the block at ``key`` =
    (seed, n, b), shaped (size, B), or (kind "normals") its first B·size
    normals, shaped (B, size)."""
    if _BLOCK.get("key") != key:
        _BLOCK.clear()
        _BLOCK["key"] = key
    if (kind, first, size) not in _BLOCK:
        if kind == "normals":
            draws = reference_rng(*key).standard_normal((B, size))
        else:  # counter c of a fresh Philox fills words 4(c - 1) .. 4c - 1 of its stream
            bit = reference_rng(*key).bit_generator
            bit.advance(first * B // 4)
            draws = bit.random_raw(size * B).reshape(size, B)
        _BLOCK[kind, first, size] = draws
    return _BLOCK[kind, first, size]


class ReplicationStream:
    """Replication ``rep`` of row n of ``seed``, as a generator hands it out:
    ``random_raw`` and ``random`` calls read its words in order, and one
    ``standard_normal`` call of k + 1 normals reads its normals: column rep
    mod B of its block's words, or row rep mod B of its block's normals."""

    def __init__(self, seed, n, rep):
        self._key, self._lane, self._used = (seed, n, rep // B), rep % B, 0
        self.bit_generator = SimpleNamespace(random_raw=self.random_raw)

    def random_raw(self, size):
        self._used += size
        return block_draws(self._key, "words", self._used - size, size)[:, self._lane]

    def random(self, size):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53

    def standard_normal(self, size=None, out=None):
        z = block_draws(self._key, "normals", 0, size or out.size)[self._lane]
        if out is None:
            return z.copy()
        out[...] = z
        return out


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
