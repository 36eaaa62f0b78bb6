"""RowSampler against the two samplers it replaced, kept here as references.

``reference_row`` is the per-group ``quantile_of`` loop of the generic
sampler; ``reference_two_point`` is the nested ``np.where`` chain of the old
shortcut for independent sequences of +-1 and two-point cells.  Both read an
independent row's words as ``sim_reference.row_words`` lays them out: the
sure-magnitude cells (prob 1) from sign bits, as ``reference_bits`` reads
them, and a uniform (w >> 11) 2^-53 for each other cell from its 64-bit
word.  Draws must agree bit for bit, signs of zeros included.
"""

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr

from llnlab import model, simulate
from llnlab.fixtures import load
from llnlab.model import RowSampler
from builders import identical_array
from sim_reference import ReplicationStream, row_words


def uniforms(words):
    return (words >> np.uint64(11)) * 2.0**-53


def reference_uniforms(dep, k, rng):
    w = rng.standard_normal(k + 1)
    th = dep.theta()
    return ndtr((w[:k] + th * w[1:]) / math.sqrt(1.0 + th * th))


def sure_magnitude(dist):
    """m of a sure-magnitude law (+-m, each with probability 1/2), else None."""
    law = model.step_law(dist)
    return law[0] if law is not None and law[1] == 1.0 else None


def reference_bits(words, s):
    """The sign bits of s sure cells: bit i % 64 of sign word i // 64, one at a time."""
    return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(s)]


def reference_row(arr, n, rng):
    k = arr.k(n)
    groups = arr.row_groups(n)
    independent = isinstance(arr.dependence, model.Independent)
    sure = [independent and sure_magnitude(g.dist) is not None for g in groups]
    # a uniform source per kind of cell: two-point cells, and the others
    two = [independent and not s and model.step_law(g.dist) is not None
           for g, s in zip(groups, sure)]
    n_sure, n_two = (sum(g.count for g, f in zip(groups, flags) if f) for flags in (sure, two))
    if independent:
        signs, w_two, w_other = row_words(rng, n_sure, n_two, k - n_sure - n_two)
        bits, u = iter(reference_bits(signs, n_sure)), (uniforms(w_two), uniforms(w_other))
    else:
        u = (None, reference_uniforms(arr.dependence, k, rng))
    out = np.empty(k, dtype=float)
    pos, at = 0, [0, 0]
    for g, is_sure, is_two in zip(groups, sure, two):
        if is_sure:
            m = sure_magnitude(g.dist)
            out[pos : pos + g.count] = [m if next(bits) else -m for _ in range(g.count)]
        else:
            a = at[not is_two]
            out[pos : pos + g.count] = model.quantile_of(g.dist)(u[not is_two][a : a + g.count])
            at[not is_two] += g.count
        pos += g.count
    return out


def reference_two_point(arr, n, rng):
    laws = [model.step_law(arr.sequence_cell(i)) for i in range(1, n + 1)]
    mags = np.array([m for m, _ in laws])
    probs = np.array([q for _, q in laws])
    sure = probs == 1.0
    signs, w, _ = row_words(rng, int(np.count_nonzero(sure)), n - int(np.count_nonzero(sure)), 0)
    bits = np.array(reference_bits(signs, int(np.count_nonzero(sure))), dtype=bool)
    u = uniforms(w)
    half = probs[~sure] / 2.0
    out = np.empty(n)
    out[sure] = np.where(bits, mags[sure], -mags[sure])
    out[~sure] = np.where(u < half, -mags[~sure], np.where(u >= 1.0 - half, mags[~sure], 0.0))
    return out


GEN = Generator(Philox(key=0))  # re-keyed by draw_rows at every block
BLOCK0 = np.arange(1)  # the first block of replications, 0..63


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


HEAVY = model.ParetoTail(1.0)  # a second Pareto law, with no mean

LAWS = {
    "pm1": model.SymmetricTwoPoint(1.0),
    "two-point": model.SymmetricTwoPoint(3.5, 0.4),
    "two-point-prob-1": model.SymmetricTwoPoint(2.0, 1.0),
    "pareto": model.ParetoTail(2.5, 1.5),
    "custom": HEAVY,
}
DEPENDENCE = {"independent": model.INDEPENDENT, "gaussian-na": model.GaussianNA(-0.4)}


def mixed_array(dependence, seed=3, n_max=40):
    """Explicit cells laid out like the benchmark's generated spec."""
    rng = random.Random(seed)
    two_point = [model.SymmetricTwoPoint(round(rng.uniform(1.5, 4.0), 6),
                                         round(rng.uniform(0.2, 0.9), 6)) for _ in range(8)]
    pareto = [model.ParetoTail(round(rng.uniform(2.5, 3.5), 6)) for _ in range(8)]
    rows = {}
    for n in range(1, n_max + 1):
        kinds = [i % 3 for i in range(n)]
        rng.shuffle(kinds)
        rows[n] = tuple(
            model.CellGroup(1, model.SymmetricTwoPoint(1.0) if kind == 0
                            else rng.choice(two_point if kind == 1 else pareto))
            for kind in kinds
        )
    return model.ArraySpec(row_length=lambda n: n, groups_fn=rows.__getitem__,
                           dependence=dependence, n_max=n_max)


def mixed_sequence(dependence):
    cycle = [model.SymmetricTwoPoint(1.0), model.ParetoTail(3.0), model.SymmetricTwoPoint(2.0, 0.3),
             HEAVY, model.ParetoTail(2.2), model.SymmetricTwoPoint(5.0, 1.0)]
    return dataclasses.replace(model.sequence_array(lambda i: cycle[(i * i) % len(cycle)]),
                               dependence=dependence)


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
@pytest.mark.parametrize("law", sorted(LAWS))
def test_each_law_matches_the_group_loop(law, dep):
    arrays = (
        identical_array(LAWS[law], dependence=DEPENDENCE[dep]),
        dataclasses.replace(model.sequence_array(lambda i: LAWS[law]),
                            dependence=DEPENDENCE[dep]),
    )
    for arr in arrays:
        for n in (1, 2, 37, 500):
            for rep in range(3):
                got = RowSampler(arr, n).draw(model.rng_for(8, n, rep))
                assert_same_bits(got, reference_row(arr, n, model.rng_for(8, n, rep)))


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
def test_mixed_rows_match_the_group_loop(dep):
    arr = mixed_array(DEPENDENCE[dep])
    for n in (1, 2, 3, 17, 40):
        sampler = RowSampler(arr, n)
        for rep in range(5):
            assert_same_bits(sampler.draw(model.rng_for(2, n, rep)),
                             reference_row(arr, n, model.rng_for(2, n, rep)))


@pytest.mark.parametrize("law", ["pm1", "two-point", "two-point-prob-1", "mixed"])
def test_independent_step_sequences_match_the_two_point_chain(law):
    if law == "mixed":
        laws = [LAWS["pm1"], LAWS["two-point"], LAWS["two-point-prob-1"],
                model.SymmetricTwoPoint(1e-300, 0.7)]
        arr = model.sequence_array(lambda i: laws[i % 4] if i % 5 else
                                   model.SymmetricTwoPoint(float(i), 1.0 / i))
    else:
        arr = model.sequence_array(lambda i: LAWS[law])
    for n in (1, 64, 299, 300):
        sampler = RowSampler(arr, n)
        for rep in range(3):
            assert_same_bits(sampler.draw(model.rng_for(4, n, rep)),
                             reference_two_point(arr, n, model.rng_for(4, n, rep)))


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
def test_sequence_rows_match_the_group_loop(dep):
    arr = mixed_sequence(DEPENDENCE[dep])
    for n in (1, 2, 5, 6, 7, 100, 257):
        sampler = RowSampler(arr, n)
        assert sampler.k == n
        for rep in range(3):
            assert_same_bits(sampler.draw(model.rng_for(6, n, rep)),
                             reference_row(arr, n, model.rng_for(6, n, rep)))


def no_step_rows(dependence):
    """Rows of Pareto cells only: one law, or several in groups."""
    groups = {n: (model.CellGroup(n // 2, LAWS["pareto"]), model.CellGroup(1, HEAVY),
                  model.CellGroup(n - n // 2 - 1, model.ParetoTail(3.0)))
              for n in range(1, 41)}
    return (identical_array(LAWS["pareto"], dependence=dependence),
            identical_array(HEAVY, dependence=dependence),
            dataclasses.replace(model.sequence_array(lambda i: (HEAVY, LAWS["pareto"])[i % 2]),
                                dependence=dependence),
            model.ArraySpec(row_length=lambda n: n, dependence=dependence, n_max=40,
                            groups_fn=lambda n: tuple(g for g in groups[n] if g.count)))


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
def test_rows_without_step_laws_keep_no_step_arrays(dep):
    for arr in no_step_rows(DEPENDENCE[dep]):
        for n in (1, 2, 3, 40):
            sampler = RowSampler(arr, n)
            assert sampler._mag is None
            assert not hasattr(sampler, "_lo") and not hasattr(sampler, "_hi")
            bufs = sampler.buffers(4)
            bufs[1][:] = np.nan  # every draw must be written by a quantile
            rows = sampler.draw_rows(model.stream_keys(3, (n,), BLOCK0), GEN, bufs, 4)
            for rep in range(4):
                assert_same_bits(rows[rep], reference_row(arr, n, ReplicationStream(3, n, rep)))


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
def test_draw_rows_matches_single_draws(dep):
    for arr, n in ((mixed_array(DEPENDENCE[dep]), 33), (mixed_sequence(DEPENDENCE[dep]), 90)):
        sampler = RowSampler(arr, n)
        bufs = sampler.buffers(7)
        rows = sampler.draw_rows(model.stream_keys(1, (n,), BLOCK0), GEN, bufs, 5)
        assert rows.shape == (5, n)
        for rep in range(5):
            assert_same_bits(rows[rep], reference_row(arr, n, ReplicationStream(1, n, rep)))
        # buffers are reused: a second, shorter batch overwrites the first
        # rows, the first of block 1 being replication 64
        again = sampler.draw_rows(model.stream_keys(1, (n,), np.array([1])), GEN, bufs, 1)
        assert_same_bits(again[0], reference_row(arr, n, ReplicationStream(1, n, 64)))


SURE_COUNTS = (1, 63, 64, 65, 130)  # one word, a word short, full, one bit over, three words


def sure_rows():
    """Rows (array, n) with each of SURE_COUNTS sure cells, alone or mixed."""
    cycle = [model.SymmetricTwoPoint(1.0), model.SymmetricTwoPoint(2.0, 0.4), HEAVY,
             model.SymmetricTwoPoint(0.75, 1.0), model.ParetoTail(3.0)]
    mixed_seq = model.sequence_array(lambda i: cycle[(i - 1) % 5])  # 2 sure cells in 5
    spikes = model.sequence_array(lambda i: model.SymmetricTwoPoint(float(i), 1.0))
    grouped = model.ArraySpec(
        row_length=lambda n: 2 * n + 3, dependence=model.INDEPENDENT,
        groups_fn=lambda n: (model.CellGroup(1, HEAVY), model.CellGroup(n - n // 2, LAWS["pm1"]),
                             model.CellGroup(2, LAWS["two-point"]),
                             model.CellGroup(n // 2, LAWS["two-point-prob-1"]),
                             model.CellGroup(n, LAWS["pareto"])))
    for s in SURE_COUNTS:
        yield pytest.param(identical_array(LAWS["pm1"]), s, id=f"pm1-{s}")
        yield pytest.param(spikes, s, id=f"spikes-{s}")
        yield pytest.param(mixed_seq, 5 * (s // 2) + (s % 2), id=f"mixed-sequence-{s}")
        yield pytest.param(grouped, s, id=f"mixed-groups-{s}")
    ex41 = load("example-4.1").arr  # cell 1 is its one sure cell
    for n in (1, 2, 64, 300):
        yield pytest.param(ex41, n, id=f"example-4.1-{n}")


@pytest.mark.parametrize("arr, n", sure_rows())
def test_sure_cells_read_one_bit_each(arr, n):
    """draw_rows and draw against the scalar loop: the sure cells' sign bits
    from the replication's raw words first, then a uniform per other cell."""
    sampler = RowSampler(arr, n)
    rows = sampler.draw_rows(model.stream_keys(9, (n,), BLOCK0), GEN, sampler.buffers(4), 4)
    for rep in range(4):
        want = reference_row(arr, n, ReplicationStream(9, n, rep))
        assert_same_bits(rows[rep], want)
        assert_same_bits(sampler.draw(ReplicationStream(9, n, rep)), want)


@pytest.mark.parametrize("name", ["x2m-example", "example-2.1", "wlln-counterexample"])
def test_rows_of_sure_cells_keep_no_uniforms_and_no_thresholds(name):
    arr = load(name).arr
    for n in (1, 63, 64, 65, 1000):
        sampler = RowSampler(arr, n)
        assert sampler._mag is None
        assert not hasattr(sampler, "_lo") and not hasattr(sampler, "_hi")
        words, draws, normals = sampler.buffers(3)
        assert words.shape == (3, -(-sampler.k // 64)) and normals is None
        keys = model.stream_keys(2, (n,), BLOCK0)
        rows = sampler.draw_rows(keys, GEN, (words, draws, None), 3)
        for rep in range(3):
            assert_same_bits(rows[rep], reference_row(arr, n, ReplicationStream(2, n, rep)))


def test_draw_words_starts_at_any_counter():
    # words w0.. of each replication, as its block's stream gives them, written
    # through a strided view: any w0, and a partial last block
    keys = model.stream_keys(5, (7,), np.arange(3))
    for w0, width, m in ((0, 24, 150), (6, 9, 150), (3, 4, 70), (21, 3, 2)):
        out = np.empty((m, width), dtype=np.uint64)
        RowSampler.draw_words(keys[:-(-m // 64)], GEN, out.T, w0)
        for i in {0, m - 1, *range(min(m, 63), min(m, 66))}:
            ref = ReplicationStream(5, 7, i)
            ref.random_raw(w0)
            np.testing.assert_array_equal(out[i], ref.random_raw(width), err_msg=str(i))


class FixedWords:
    """Generator stand-in whose bit generator hands out chosen raw words."""

    def __init__(self, words):
        self.bit_generator = SimpleNamespace(
            random_raw=lambda size: np.array(words, dtype=np.uint64)[:size])


EDGE_LAWS = {
    **LAWS,
    "prob-2^-15": model.SymmetricTwoPoint(1.5, 2.0**-15),  # lo and hi + 1 end in 48 zero bits
    "prob-1/2": model.SymmetricTwoPoint(0.25, 0.5),  # so do these
    "prob-5e-324": model.SymmetricTwoPoint(3.0, 5e-324),  # lo = 0, hi = 2^64 - 1: never a hit
    "prob-1-2^-53": model.SymmetricTwoPoint(2.0, 1.0 - 2.0**-53),  # lo = hi + 1: always a hit
}


@pytest.mark.parametrize("law", sorted(EDGE_LAWS))
def test_thresholds_match_quantile_of_at_the_boundaries(law):
    """Words on each side of every edge map as ``quantile_of`` maps their
    uniforms (w >> 11) 2^-53, whatever their 11 low bits.  A two-point cell
    is handed its word w as the chunk w >> 48 and a refinement word whose
    top 48 bits are w's low 48."""
    dist = EDGE_LAWS[law]
    if sure_magnitude(dist) is not None:  # a sure law has no threshold: its cell is one bit
        words = [0, 2**64 - 1, 1, 2**63, 0x5555555555555555, 0x8000000000000001]
        bits = np.array([(w >> i) & 1 for w in words for i in range(64)])
        got = RowSampler(identical_array(dist), len(bits)).draw(FixedWords(words))
        # bit b stands for a uniform in [b/2, (b+1)/2)
        assert_same_bits(got, model.quantile_of(dist)((bits + 0.5) / 2.0))
        return
    q = model.step_law(dist)[1] if model.step_law(dist) else 0.5
    edges = [0.0, q / 2.0, 1.0 - q / 2.0, 0.5, 1.0 - 2.0**-53]
    v = sorted({min(max(math.ceil(e * 2**53) + d, 0), 2**53 - 1)
                for e in edges for d in (-1, 0, 1)})
    edge = [x << 11 | low for x in v for low in (0, 0x7FF)]
    # alone, and among 16 times as many words of u = 1/2, which few laws take as candidates
    for words in (edge, edge + [1 << 63] * (16 * len(edge))):
        raw = words
        if model.step_law(dist):  # chunk words, four chunks a word, then the refinement words
            tops = [w >> 48 for w in words]
            raw = [sum(c << 16 * j for j, c in enumerate(tops[i:i + 4]))
                   for i in range(0, len(tops), 4)]
            raw += [(w & (2**48 - 1)) << 16 | 0xA5C3 for w in words]
            cut = model.RowSampler(identical_array(dist), 1)._steps[2:4]
            assert any(c == t >> 48 for c in tops for t in (int(cut[0][0]), int(cut[1][0])))
        got = RowSampler(identical_array(dist), len(words)).draw(FixedWords(raw))
        u = np.array([(w >> 11) * 2.0**-53 for w in words])
        assert_same_bits(got, model.quantile_of(dist)(u))


def test_sample_row_with_is_the_sampler():
    arr = mixed_array(model.GaussianNA(-0.2))
    for n in (1, 12, 40):
        assert_same_bits(model.sample_row_with(arr, n, model.rng_for(5, n)),
                         reference_row(arr, n, model.rng_for(5, n)))


def test_sampler_checks_rows_and_quantiles():
    arr = mixed_array(model.INDEPENDENT, n_max=5)
    with pytest.raises(model.RowRangeError):
        RowSampler(arr, 6)
    with pytest.raises(model.SamplingError, match="unsupported dependence"):
        RowSampler(dataclasses.replace(arr, dependence="negative"), 4)


def reference_wlln_row(plan, n):
    """The per-replication loop of the old WLLN estimator, for one row."""
    bn = float(plan.b(n))
    k = plan.arr.k(n)
    cvec = None if plan.c is None else np.array([plan.c(n, i) for i in range(1, k + 1)])
    counts = np.zeros(len(plan.eps), dtype=np.int64)
    stat_sum = 0.0
    for rep in range(plan.reps):
        row = reference_row(plan.arr, n, ReplicationStream(plan.seed, n, rep))
        r = row if cvec is None else cvec * row
        stat = float(np.max(np.abs(np.cumsum(r)))) / bn
        stat_sum += stat
        counts += stat > np.asarray(plan.eps)
    return [float(c) / plan.reps for c in counts], stat_sum / plan.reps


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
@pytest.mark.parametrize("task_cells", [None, 64])
def test_wlln_estimate_matches_the_replication_loop(monkeypatch, task_cells, dep):
    if task_cells is not None:  # one-cell slabs, drawn a block at a time
        monkeypatch.setattr(simulate, "TASK_CELLS", task_cells)
    arr = mixed_array(DEPENDENCE[dep], n_max=40)
    plan = simulate.SimPlan(
        arr=arr, b=model.power_norming(0.8), rows=(3, 10, 40), reps=150, eps=(0.3, 0.9),
        seed=12, c=lambda n, i: 1.0 + (i % 3) / n,
    )
    report = simulate.wlln_estimate(plan, threads=2)
    for n in plan.rows:
        p_hats, mean = reference_wlln_row(plan, n)
        assert [report.p_hat(n, eps) for eps in plan.eps] == p_hats
        assert dict(report.ratio_means)[n] == mean
