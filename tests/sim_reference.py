"""Per-replication reference loops for the simulation tests.

Each loop draws one replication at a time through its own ``RowSampler`` and
a generator built from numpy's ``SeedSequence`` at the replication's address
(seed, n, rep), so it shares no keying code with the kernels it checks.
``reference_suffix_sups`` is the per-path loop that
``simulate.slln_path_diagnostic`` ran before paths were drawn in batches
through the replication-span kernel; ``reference_condition_h_probe`` is the
per-replication loop ``simulate.condition_h_probe`` ran before it drew key
blocks.  Both are kept to check the kernels bit for bit.
"""

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from llnlab.errors import SamplingError
from llnlab.model import RowSampler
from llnlab.moments import clamped_square_mean
from llnlab.simulate import _group_values, max_partial_sums


def reference_rng(seed, *key):
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))


def sequence_paths(arr, length: int, reps: int, seed: int):
    """Yield (rep, path) realizations X_1..X_length of a sequence array."""
    if not arr.is_sequence:
        raise SamplingError("paths need a sequence-shaped array")
    sampler = RowSampler(arr, length)
    for rep in range(reps):
        yield rep, sampler.draw(reference_rng(seed, length, rep))


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
        row = sampler.draw(reference_rng(seed, n, rep), bufs)
        acc += max_partial_sums(np.clip(row, -a, a)) ** 2
    return (acc / reps) / rhs
