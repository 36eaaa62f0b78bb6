"""Blocks of replications: one Philox stream per ``BLOCK_REPS`` replications.

Replication r of row n is lane r mod 64 of block r div 64, whose stream is
keyed by (seed, n, block), and draw d of lane i is draw 64d + i of it: a raw
word of an independent row, a normal of a ``GaussianNA`` row.
``sim_reference.ReplicationStream`` reads one lane of either from numpy's
``SeedSequence`` alone.  These tests draw across block edges and partial
last blocks through every kernel shape (the row kernel whole and in slabs of
either kind of row, the column kernel), check that fewer replications are a
prefix of more, that worker spans start on block edges, and that no draw
buffer outgrows a part.
"""

import dataclasses
from concurrent.futures import Future

import numpy as np
import pytest

from llnlab import model, simulate
from llnlab.fixtures import load
from llnlab.simulate import SimPlan
from sim_reference import ReplicationStream, count_ties
from test_row_sampler import assert_same_bits, reference_row

EDGES = (0, 1, 62, 63, 64, 65, 127, 128, 129)  # 130 replications: two blocks and two lanes


def na(arr, correlation=-0.3):
    return dataclasses.replace(arr, dependence=model.GaussianNA(correlation))


MIXED = model.sequence_array(lambda i: (model.SymmetricTwoPoint(1.0), model.ParetoTail(3.0),
                                        model.SymmetricTwoPoint(2.0, 0.4))[i % 3])
ROWS = {  # (array, row): short rows, rows of several slabs, rows of sure cells only
    "mixed-40": (MIXED, 40),
    "mixed-1100": (MIXED, 1100),
    "example-4.1-700": (load("example-4.1").arr, 700),
    "x2m-1300": (load("x2m-example", p=1.0).arr, 1300),
    "na-mixed-40": (na(MIXED), 40),
    "na-mixed-600": (na(MIXED), 600),
    "na-mixed-1100": (na(MIXED), 1100),
}


def reference_maxima(arr, n, seed, reps):
    """max_j |S_j| of each replication, drawn one at a time from its lane."""
    sampler = model.RowSampler(arr, n)
    return np.array([np.max(np.abs(np.cumsum(sampler.draw(ReplicationStream(seed, n, r)))))
                     for r in reps])


@pytest.mark.parametrize("column_reps", [simulate.COLUMN_REPS, 1])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_block_edges_and_a_partial_block_equal_their_lanes(monkeypatch, name, column_reps):
    # 130 replications end two lanes into a third block; with COLUMN_REPS at
    # 1 a row of sure cells sums them side by side
    monkeypatch.setattr(simulate, "COLUMN_REPS", column_reps)
    arr, n = ROWS[name]
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(n,), reps=130, seed=21)
    got = simulate._Spans(plan, plan.rows)(0, 0, 130)[:, 0]
    assert got[list(EDGES)].tobytes() == reference_maxima(arr, n, 21, EDGES).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_fewer_replications_are_a_prefix_of_more(monkeypatch, name, threads):
    monkeypatch.setattr(simulate, "COLUMN_REPS", 150)  # 200 replications sum side by side
    arr, n = ROWS[name]
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(n,), reps=200, seed=5)
    spans = simulate._Spans(plan, plan.rows)
    more = simulate._replication_maxima(spans, 200, threads)[0]
    fewer = simulate._replication_maxima(spans, 100, threads)[0]
    assert fewer.tobytes() == more[:100].tobytes()


def test_a_slab_reads_its_own_words():
    # slabs of 100 cells of a mixed row: the sure cells' signs and the
    # two-point cells' chunks start mid-word in most slabs, and the sign,
    # chunk and Pareto words are drawn apart
    arr, n = MIXED, 1100
    sampler = model.RowSampler(arr, n)
    slabs = sampler.slabs(100)
    assert [s.k for s in slabs] == [100] * 11
    assert any(s._bit for s in slabs) and any(s._chunks[1] for s in slabs)
    assert all(len(s._spans) == 3 for s in slabs[1:])
    keys, gen = model.stream_keys(3, (n,), np.arange(3)), model.philox_generator()
    rows = np.hstack([s.draw_rows(keys, gen, s.buffers(130), 130).copy() for s in slabs])
    for r in EDGES:
        assert rows[r].tobytes() == sampler.draw(ReplicationStream(3, n, r)).tobytes(), r


def test_ties_resolve_alike_in_any_slabs_spans_and_prefix(monkeypatch):
    # example-4.1's row of 4096 cells (the spike kernel) at 200 replications:
    # its refinement words sit at fixed words, so slabs of 512 or 100 cells,
    # the spans of 2 and 3 workers and a prefix of 100 give the lanes' maxima
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    arr, n = load("example-4.1").arr, 4096
    ties = count_ties(monkeypatch)
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(n,), reps=200, seed=21)
    got = simulate._Spans(plan, plan.rows)(0, 0, 200)[:, 0]
    assert sum(ties) > 0
    assert got.tobytes() == reference_maxima(arr, n, 21, range(200)).tobytes()
    spans = simulate._Spans(plan, plan.rows)
    for threads in (2, 3):
        assert simulate._workers(threads, 200) == threads
        assert simulate._replication_maxima(spans, 200, threads)[0][:, 0].tobytes() == got.tobytes()
    assert simulate._replication_maxima(spans, 100, 1)[0][:, 0].tobytes() == got[:100].tobytes()
    monkeypatch.setattr(simulate, "TASK_CELLS", 64 * 100)
    assert simulate._Spans(plan, plan.rows)(0, 0, 200)[:, 0].tobytes() == got.tobytes()


@pytest.mark.parametrize("name", sorted(ROWS))
def test_draw_buffers_stay_within_a_part(name):
    # words, draws and a GaussianNA block's normals past its first: at most
    # TASK_CELLS cells, or one row of a longer row
    arr, n = ROWS[name]
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(n,), reps=200, seed=1)
    spans = simulate._Spans(plan, plan.rows)
    spans(0, 0, 100)  # the row kernel: fewer than COLUMN_REPS replications
    assert all(a.size <= max(simulate.TASK_CELLS, n) for a in spans._store)


@pytest.mark.parametrize("reps", [63, 64, 65, 130])
@pytest.mark.parametrize("n", [600, 1100])
def test_long_gaussian_na_rows_are_drawn_in_slabs_of_their_lanes(n, reps):
    # two and three slabs of 512 cells, the last one partial, a block at a
    # time: the row kernel's parts, drawn slab after slab, are the lanes'
    # rows as the scalar loop draws them, and its maxima theirs
    arr = na(MIXED)
    sampler = model.RowSampler(arr, n)
    slabs = sampler.slabs(simulate.TASK_CELLS // model.BLOCK_REPS)
    assert [s.k for s in slabs] == [512] * (n // 512) + [n % 512]
    gen, store, rows = model.philox_generator(), [], np.empty((reps, n))
    parts = list(simulate._key_blocks(4, n, 0, reps, model.BLOCK_REPS))
    assert len(parts) == -(-reps // model.BLOCK_REPS)
    for a, z, keys in parts:
        c0 = 0
        for slab in slabs:
            bufs = slab.buffers(z - a, store)
            rows[a:z, c0:c0 + slab.k] = slab.draw_rows(keys, gen, bufs, z - a)
            c0 += slab.k
    for r in range(reps):
        assert_same_bits(rows[r], reference_row(arr, n, ReplicationStream(4, n, r)))
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(n,), reps=reps, seed=4)
    got = simulate._Spans(plan, plan.rows)(0, 0, reps)[:, 0]
    assert got.tobytes() == np.max(np.abs(np.cumsum(rows, axis=1)), axis=1).tobytes()


@pytest.mark.parametrize("n", [600, 1100])
def test_long_gaussian_na_rows_are_byte_equal_across_workers(monkeypatch, n):
    # 200 replications, four blocks: 2 and 3 threads fork that many workers,
    # each starting its span's slabs on a block edge
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    plan = SimPlan(arr=na(MIXED), b=model.power_norming(1.0), rows=(n,), reps=200, seed=6)
    spans = simulate._Spans(plan, plan.rows)
    assert [simulate._workers(t, plan.reps) for t in (1, 2, 3)] == [1, 2, 3]
    runs = [simulate._replication_maxima(spans, plan.reps, t)[0].tobytes() for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


class InlinePool:
    """A process pool stand-in that runs each span here, recording its bounds."""

    spans: list = []

    def __init__(self, workers, mp_context, initializer, initargs):
        initializer(*initargs)

    def submit(self, fn, i, lo, hi):
        self.spans.append((lo, hi))
        future = Future()
        future.set_result(fn(i, lo, hi))
        return future

    def shutdown(self, cancel_futures):
        pass


@pytest.mark.parametrize("reps", [50, 64, 65, 1000])
def test_worker_spans_start_on_block_edges(monkeypatch, reps):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(InlinePool, "spans", [])
    plan = SimPlan(arr=MIXED, b=model.power_norming(1.0), rows=(30,), reps=reps, seed=2)
    spans = simulate._Spans(plan, plan.rows)
    got = simulate._replication_maxima(spans, reps, 2)[0]
    cuts = InlinePool.spans or [(0, reps)]  # one block: one worker, no pool
    assert len(cuts) == min(2, -(-reps // 64))
    assert cuts[0][0] == 0 and cuts[-1][1] == reps
    assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
    assert all(lo < hi and lo % 64 == 0 for lo, hi in cuts)
    assert got.tobytes() == simulate._replication_maxima(spans, reps, 1)[0].tobytes()
