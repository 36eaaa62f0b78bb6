"""RowSampler against the two samplers it replaced, kept here as references.

``reference_row`` is the per-group ``quantile_of`` loop of the generic
sampler; ``reference_two_point`` is the nested ``np.where`` chain of the old
shortcut for independent sequences of +-1 and two-point cells.  Draws must
agree bit for bit, signs of zeros included.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr

from llnlab import model, simulate
from llnlab.model import RowSampler
from builders import identical_array


def reference_uniforms(dep, k, rng):
    if isinstance(dep, model.Independent):
        return rng.random(k)
    w = rng.standard_normal(k + 1)
    th = dep.theta()
    return ndtr((w[:k] + th * w[1:]) / math.sqrt(1.0 + th * th))


def reference_row(arr, n, rng):
    k = arr.k(n)
    u = reference_uniforms(arr.dependence, k, rng)
    out = np.empty(k, dtype=float)
    pos = 0
    for g in arr.row_groups(n):
        out[pos : pos + g.count] = model.quantile_of(g.dist)(u[pos : pos + g.count])
        pos += g.count
    return out


def reference_two_point(arr, n, rng):
    laws = [model.step_law(arr.sequence_cell(i)) for i in range(1, n + 1)]
    mags = np.array([m for m, _ in laws])
    probs = np.array([q for _, q in laws])
    u = rng.random(n)
    half = probs / 2.0
    return np.where(u < half, -mags, np.where(u >= 1.0 - half, mags, 0.0))


GEN = Generator(Philox(key=0))  # re-keyed by every draw_rows call


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
            rows = sampler.draw_rows(model.stream_keys(3, (n,), np.arange(4)), GEN, bufs)
            for rep in range(4):
                assert_same_bits(rows[rep], reference_row(arr, n, model.rng_for(3, n, rep)))


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
def test_draw_rows_matches_single_draws(dep):
    for arr, n in ((mixed_array(DEPENDENCE[dep]), 33), (mixed_sequence(DEPENDENCE[dep]), 90)):
        sampler = RowSampler(arr, n)
        bufs = sampler.buffers(7)
        rows = sampler.draw_rows(model.stream_keys(1, (n,), np.arange(5)), GEN, bufs)
        assert rows.shape == (5, n)
        for rep in range(5):
            assert_same_bits(rows[rep], reference_row(arr, n, model.rng_for(1, n, rep)))
        # buffers are reused: a second, shorter batch overwrites the first rows
        again = sampler.draw_rows(model.stream_keys(1, (n,), np.arange(9, 10)), GEN, bufs)
        assert_same_bits(again[0], reference_row(arr, n, model.rng_for(1, n, 9)))


class FixedUniforms:
    """Generator stand-in that hands out chosen uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[:] = self.u


@pytest.mark.parametrize("law", ["pm1", "two-point", "two-point-prob-1", "pareto", "custom"])
def test_thresholds_match_quantile_of_at_the_boundaries(law):
    dist = LAWS[law]
    q = model.step_law(dist)[1] if model.step_law(dist) else 0.5
    edges = [0.0, q / 2.0, 1.0 - q / 2.0, 0.5, 1.0 - 2.0**-53]
    u = sorted({v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))
                if 0.0 <= v < 1.0})
    arr = identical_array(dist)
    got = RowSampler(arr, len(u)).draw(FixedUniforms(u))
    assert_same_bits(got, model.quantile_of(dist)(np.asarray(u)))


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
        row = reference_row(plan.arr, n, model.rng_for(plan.seed, n, rep))
        r = row if cvec is None else cvec * row
        stat = float(np.max(np.abs(np.cumsum(r)))) / bn
        stat_sum += stat
        counts += stat > np.asarray(plan.eps)
    return [float(c) / plan.reps for c in counts], stat_sum / plan.reps


@pytest.mark.parametrize("dep", sorted(DEPENDENCE))
@pytest.mark.parametrize("task_cells", [None, 64])
def test_wlln_estimate_matches_the_replication_loop(monkeypatch, task_cells, dep):
    if task_cells is not None:  # many small chunks per row, some of one replication
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
