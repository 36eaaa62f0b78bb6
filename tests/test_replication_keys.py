"""Replication keys against numpy's SeedSequence, kept here as the reference.

``model.stream_keys`` derives the Philox key of every address (seed, n, b)
of a row's blocks in one pass, and ``model.RowSampler.draw_rows`` draws
blocks of ``BLOCK_REPS`` replications through one generator re-keyed per
block.  Both must reproduce
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(n, b))))``, read
lane by lane as ``sim_reference.ReplicationStream`` reads it, bit for bit, so
output bytes do not depend on which path addressed a replication.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from llnlab import model, simulate
from builders import identical_array
from llnlab.fixtures import load
from sim_reference import ReplicationStream, count_ties, reference_rng


def reference_key(seed, *key):
    return SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)


SEEDS = st.one_of(
    st.sampled_from([0, 7]),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),  # run entropy longer than the pool
)
ROWS = st.one_of(st.integers(1, 2**20), st.integers(2**32, 2**48))  # one or two words


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=ROWS,
       reps=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40))
def test_row_keys_equal_seed_sequence(seed, n, reps):
    keys = model.stream_keys(seed, (n,), np.array(reps, dtype=np.int64))
    assert keys.dtype == np.uint64 and keys.shape == (len(reps), 2)
    for rep, key in zip(reps, keys):
        assert np.array_equal(key, reference_key(seed, n, rep))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, head=st.lists(st.integers(0, 2**70), max_size=3),
       last=st.integers(0, 2**80))
def test_one_address_keys_equal_seed_sequence(seed, head, last):
    """The int path, any number of head parts, last parts of several words."""
    key = model.stream_keys(seed, tuple(head), last)
    assert np.array_equal(key, reference_key(seed, *head, last))


def test_many_reps_of_one_row():
    keys = model.stream_keys(31, (2**16,), np.arange(5000))
    assert len({tuple(k) for k in keys.tolist()}) == 5000
    for rep in (0, 1, 2, 255, 256, 4095, 4999):
        assert np.array_equal(keys[rep], reference_key(31, 2**16, rep))


def keyed_arrays():
    """Step-only, Pareto-only and mixed rows, per dependence, by label."""
    mixed = (model.SymmetricTwoPoint(1.0), model.SymmetricTwoPoint(2.0, 0.5),
             model.ParetoTail(3.0))
    arrays = {}
    for dep in (model.Independent(), model.GaussianNA(-0.4)):
        name = type(dep).__name__
        arrays[f"{name} step"] = identical_array(model.SymmetricTwoPoint(2.0, 0.5),
                                                       dependence=dep)
        arrays[f"{name} pareto"] = identical_array(model.ParetoTail(1.5), dependence=dep)
        arrays[f"{name} mixed"] = dataclasses.replace(
            model.sequence_array(lambda i: mixed[i % 3]), dependence=dep)
    return arrays


KEYED = keyed_arrays()


def test_keyed_rows_equal_seed_sequence_rows():
    # two blocks: replications 0..69, the second block's lanes 0..5 only
    seed, n = 2**64 + 9, 12
    gen = Generator(Philox(key=0))
    for label, arr in KEYED.items():
        sampler = model.RowSampler(arr, n)
        bufs = sampler.buffers(80)  # more rows than replications: the blocks fill only theirs
        rows = sampler.draw_rows(model.stream_keys(seed, (n,), np.arange(2)), gen, bufs, 70)
        assert rows.shape == (70, n), label
        for rep in range(70):
            assert np.array_equal(rows[rep], sampler.draw(ReplicationStream(seed, n, rep))), \
                (label, rep)
        # words, or the draws of a GaussianNA row (distinct at this seed): every
        # lane read once
        draws = bufs[0][:70] if bufs[2] is None else rows
        assert len({r.tobytes() for r in draws}) == 70, label


def test_keyed_rows_across_chunk_and_key_boundaries_equal_seed_sequence_rows():
    # 12-cell rows in parts of at most 128 replications: six blocks cut
    # evenly into three parts of two, the last ending inside its second block
    # at 323 = 5 * 64 + 3
    seed, n, reps = 5, 12, 5 * 64 + 3
    parts = list(simulate._key_blocks(seed, n, 0, reps, 128))
    assert [(a, z, len(keys)) for a, z, keys in parts] == [(0, 128, 2), (128, 256, 2),
                                                           (256, 323, 2)]
    for a, _, keys in parts:  # the keys on each side of a part edge
        for b, key in enumerate(keys.tolist(), start=a // 64):
            assert key == reference_key(seed, n, b).tolist(), b
    gen, store = Generator(Philox(key=0)), []
    for label in ("Independent mixed", "GaussianNA mixed"):
        arr = KEYED[label]
        sampler = model.RowSampler(arr, n)
        rows = np.empty((reps, n))
        for a, z, keys in parts:
            rows[a:z] = sampler.draw_rows(keys, gen, sampler.buffers(z - a, store), z - a)
        bufs = sampler.buffers()
        for rep in range(reps):
            assert np.array_equal(rows[rep], sampler.draw(ReplicationStream(seed, n, rep), bufs)), \
                (label, rep)


def test_keyed_ties_read_the_refinement_words_of_seed_sequence_rows(monkeypatch):
    # example-4.1's row of 4096 cells over three blocks, the last partial: a
    # chunk equal to the top of a threshold reads its refinement word from
    # the Philox counter holding it, which must be the lane's word R0 + t
    seed, n, reps = 2**64 + 9, 4096, 130
    ties = count_ties(monkeypatch)
    sampler = model.RowSampler(load("example-4.1").arr, n)
    rows = sampler.draw_rows(model.stream_keys(seed, (n,), np.arange(3)), Generator(Philox(key=0)),
                             sampler.buffers(reps), reps)
    assert sum(ties) > 0
    for rep in range(reps):
        assert np.array_equal(rows[rep], sampler.draw(ReplicationStream(seed, n, rep))), rep


MID_BUFFER = {
    "random(3)": (lambda g: g.random(3), {"buffer_pos": 3}),
    "random(3), integers(2**32)": (lambda g: (g.random(3), g.integers(2**32)),
                                   {"has_uint32": 1}),
}


def test_keyed_rows_through_a_mid_buffer_generator_draw_as_fresh_ones():
    seed, n = 7, 10
    keys = model.stream_keys(seed, (n,), np.arange(1))
    for label, arr in KEYED.items():
        sampler = model.RowSampler(arr, n)
        for name, (spend, left) in MID_BUFFER.items():
            gen = Generator(Philox(key=0))
            spend(gen)
            state = gen.bit_generator.state
            assert {k: state[k] for k in left} == left, name  # the words a re-key must drop
            rows = sampler.draw_rows(keys, gen, sampler.buffers(3), 3)
            for rep in range(3):
                assert np.array_equal(rows[rep], sampler.draw(ReplicationStream(seed, n, rep))), \
                    (label, name, rep)
            # the generator goes on as the block's fresh stream that drew the
            # block's draws of a replication (W words or n + 1 normals a lane)
            ref = reference_rng(seed, n, 0)
            if label.startswith("Independent"):
                ref.bit_generator.random_raw(64 * sampler.buffers()[0].shape[1])
            else:
                ref.standard_normal(64 * (n + 1))
            assert np.array_equal(gen.integers(2**32, size=3, dtype=np.uint32),
                                  ref.integers(2**32, size=3, dtype=np.uint32)), (label, name)
            assert np.array_equal(gen.random(5), ref.random(5)), (label, name)


def test_a_key_block_longer_than_the_buffers_raises():
    keys = model.stream_keys(1, (8,), np.arange(1))
    gen = Generator(Philox(key=0))
    for label, arr in KEYED.items():
        sampler = model.RowSampler(arr, 8)
        with pytest.raises(ValueError):
            sampler.draw_rows(keys, gen, sampler.buffers(3), 4)
        assert sampler.draw_rows(keys, gen, sampler.buffers(4), 4).shape == (4, 8), label


def test_rng_for_draws_equal_seed_sequence_generator():
    for key in [(0,), (5, 3), (2**33, 2**40, 1)]:
        assert np.array_equal(model.rng_for(7, *key).random(9),
                              reference_rng(7, *key).random(9))


def test_bad_addresses_are_rejected():
    with pytest.raises(ValueError):
        model.stream_keys(-1, (4,), np.arange(3))
    with pytest.raises(ValueError):
        model.stream_keys(1, (4,), np.array([0, -1]))
    with pytest.raises(ValueError):
        model.stream_keys(1, (4,), np.array([2**32]))
    with pytest.raises(ValueError):
        model.rng_for(1)
