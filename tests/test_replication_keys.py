"""Replication keys against numpy's SeedSequence, kept here as the reference.

``model.stream_keys`` derives the Philox key of every address (seed, n, rep)
of a row in one pass, and ``model.rekeyed`` draws through one generator
re-keyed per address.  Both must reproduce
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(n, rep))))`` bit for
bit, so output bytes do not depend on which path addressed a replication.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from llnlab import model
from llnlab.errors import SamplingError


def reference_key(seed, *key):
    return SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)


def reference_rng(seed, *key):
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))


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


def test_rekeyed_draws_equal_seed_sequence_generators():
    seed, n = 2**64 + 9, 40
    for rep, rng in enumerate(model.rekeyed(model.stream_keys(seed, (n,), np.arange(6)))):
        ref = reference_rng(seed, n, rep)
        assert np.array_equal(rng.random(17), ref.random(17))
        # GaussianNA rows draw normals instead of uniforms
        assert np.array_equal(rng.standard_normal(33), ref.standard_normal(33))
        assert np.array_equal(rng.random(3), ref.random(3))


def test_rng_for_draws_equal_seed_sequence_generator():
    for key in [(0,), (5, 3), (2**33, 2**40, 1)]:
        assert np.array_equal(model.rng_for(7, *key).random(9),
                              reference_rng(7, *key).random(9))


def test_rows_through_rekeyed_generators_equal_seed_sequence_rows():
    arr = model.identical_array(model.ParetoTail(1.5), dependence=model.GaussianNA(-0.4))
    sampler = model.RowSampler(arr, 12)
    bufs = sampler.buffers(4)
    rows = sampler.draw_rows(model.rekeyed(model.stream_keys(3, (12,), np.arange(4))), bufs)
    for rep in range(4):
        assert np.array_equal(rows[rep], sampler.draw(reference_rng(3, 12, rep)))
    assert len({r.tobytes() for r in rows}) == 4


def test_materialised_rekeyed_generators_raise_instead_of_aliasing():
    keys = model.stream_keys(1, (8,), np.arange(3))
    rngs = list(model.rekeyed(keys))
    for rng in rngs:
        with pytest.raises(SamplingError):
            rng.random()
    sampler = model.RowSampler(model.identical_array(model.SymmetricTwoPoint(1.0)), 8)
    with pytest.raises(SamplingError):
        sampler.draw_rows(list(model.rekeyed(keys)), sampler.buffers(3))


def test_bad_addresses_are_rejected():
    with pytest.raises(ValueError):
        model.stream_keys(-1, (4,), np.arange(3))
    with pytest.raises(ValueError):
        model.stream_keys(1, (4,), np.array([0, -1]))
    with pytest.raises(ValueError):
        model.stream_keys(1, (4,), np.array([2**32]))
    with pytest.raises(ValueError):
        model.rng_for(1)
