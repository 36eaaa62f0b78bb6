"""Per-path reference loops for the simulation tests.

``sequence_paths`` draws one path at a time through its own ``RowSampler``
and generators; ``reference_suffix_sups`` is the per-path loop that
``simulate.slln_path_diagnostic`` ran before paths were drawn in batches
through the replication-span kernel, kept to check the kernel bit for bit.
"""

import numpy as np

from llnlab.errors import SamplingError
from llnlab.model import RowSampler, rekeyed, stream_keys


def sequence_paths(arr, length: int, reps: int, seed: int):
    """Yield (rep, path) realizations X_1..X_length of a sequence array."""
    if not arr.is_sequence:
        raise SamplingError("paths need a sequence-shaped array")
    sampler = RowSampler(arr, length)
    for rep, rng in enumerate(rekeyed(stream_keys(seed, (length,), np.arange(reps)))):
        yield rep, sampler.draw(rng)


def reference_suffix_sups(plan) -> np.ndarray:
    """(reps, rows) suffix sups of max_j |S_j| / b_m, one path at a time."""
    rows = plan.rows
    bvals = np.array([float(plan.b(m)) for m in rows])
    stats = np.empty((plan.reps, len(rows)))
    for rep, path in sequence_paths(plan.arr, rows[-1], plan.reps, plan.seed):
        run_max = np.maximum.accumulate(np.abs(np.cumsum(path)))
        stats[rep] = run_max[np.asarray(rows) - 1] / bvals
    return np.flip(np.maximum.accumulate(np.flip(stats, axis=1), axis=1), axis=1)
