"""The spike kernel: rows whose draws are mostly zero sum only the nonzero ones.

A zero draw adds +0.0 in ``np.cumsum``, which leaves S_(j-1) as it is but
for the sign of a zero, and |S_j| drops that sign.  So the spike kernel packs
each replication's nonzero draws, in cell order, to the left of a
zero-padded row and runs ``np.cumsum`` over those alone.  These tests force
each kernel in turn by patching the dispatch predicate ``simulate._spiky``
and compare the maxima bit for bit: example-4.1 across rows that cross the
512-cell pass edge and replication counts that cross the 64-replication
block edge, and a Python sequence of rare two-point cells with weights, with
a clamp level and at the probability extremes.  A dispatch spy pins which
kernel each kind of row takes, and rows of no cells run through the WLLN
and series estimates.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from llnlab import model, simulate
from llnlab.errors import SamplingError
from llnlab.fixtures import load
from llnlab.simulate import SimPlan
from builders import identical_array
from test_simulate import KERNEL_PLANS, _usable_cpus

TINY = 5e-324  # the smallest positive prob: q/2 rounds to 0, so no word is a hit
NEAR_ONE = 1.0 - 2.0 ** -53  # thresholds lo = hi + 1: every word is a hit
EX41_ROWS = (1, 2, 31, 64, 511, 512, 513, 1025, 4096)


def _rare_steps(lo, hi):
    """Rare two-point cells of several magnitudes, with sure cells, cells of
    prob ``NEAR_ONE`` and cells of prob ``TINY`` among them."""
    i = np.arange(lo, hi + 1)
    mag, prob = 0.5 + (i % 5) * 1.25, 0.3 / i
    prob[i % 211 == 3] = 1.0
    prob[i % 101 == 50] = NEAR_ONE
    prob[i % 89 == 7] = TINY
    return mag, prob


RARE = model.sequence_array(cell_steps=_rare_steps)


def _weight(n, i):  # signed, with zeros
    return 0.0 if i % 17 == 0 else (-1.0) ** i * (0.5 + i / n)


def _maxima(monkeypatch, plan, spike, **kw):
    """Each row's maxima of all the plan's replications, the spike kernel
    forced on (``spike``) or off."""
    monkeypatch.setattr(simulate, "_spiky", lambda *args: spike)
    spans = simulate._Spans(plan, plan.rows, **kw)
    return [spans(i, 0, plan.reps) for i in range(len(plan.rows))]


def _same_maxima(monkeypatch, plan, **kw):
    spike, row = _maxima(monkeypatch, plan, True, **kw), _maxima(monkeypatch, plan, False, **kw)
    for n, a, b in zip(plan.rows, spike, row):
        assert a.tobytes() == b.tobytes(), n
    return row


@pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9])
def test_example_41_maxima_equal_the_row_kernels(monkeypatch, p, nu, reps):
    # rows of one cell up to eight passes of 512 cells, the last partial at
    # 513 and 1025; 65 and 130 replications end in a partial block
    fx = load("example-4.1", p=p, nu=nu)
    plan = SimPlan(arr=fx.arr, b=fx.b, rows=EX41_ROWS, reps=reps, seed=43)
    row = _same_maxima(monkeypatch, plan)
    assert (row[0] > 0).all()  # the sure first cell


def test_the_rare_row_holds_the_probability_extremes():
    def thresholds(q):  # (lo, hi) as RowSampler keeps them: a word is 0 iff lo <= w <= hi
        lo, hi = model._word_threshold(np.array([q / 2, 1.0 - q / 2])).tolist()
        return lo, (hi - 1) % 2 ** 64

    assert thresholds(TINY) == (0, 2 ** 64 - 1)  # no word is a hit
    assert thresholds(NEAR_ONE) == (2 ** 63, 2 ** 63 - 1)  # every word is a hit
    rare = model.RowSampler(RARE, 1100)
    assert rare.n_sure == 6 and 0 < rare.spike_rate <= 1100 / simulate.SPIKE_RATIO
    hi = rare._hi.astype(object) + 1
    assert (rare._lo == 0).any() and (hi == 2 ** 64).any() and (rare._lo == hi).any()


@pytest.mark.parametrize("reps", [1, 64, 65, 130])
@pytest.mark.parametrize("task_cells", [None, 256])
def test_rare_cells_equal_the_row_kernels(monkeypatch, task_cells, reps):
    # weighted (signed, with zero weights), unweighted and clamped; at 256
    # task cells a pass holds 4 cells, so a sure cell and its sign word take
    # passes of their own
    if task_cells is not None:
        monkeypatch.setattr(simulate, "TASK_CELLS", task_cells)
    plan = SimPlan(arr=RARE, b=model.power_norming(1.0), rows=(1, 9, 300, 1100), reps=reps,
                   seed=11)
    plain = _same_maxima(monkeypatch, plan)
    weighted = _same_maxima(monkeypatch, dataclasses.replace(plan, c=_weight))
    clipped = _same_maxima(monkeypatch, plan, clip=1.5)
    assert any((w != p).any() for w, p in zip(weighted, plain))
    assert any((c < p).any() for c, p in zip(clipped, plain))


def test_condition_h_probe_equals_the_row_kernels(monkeypatch):
    got = []
    for spike in (True, False):
        monkeypatch.setattr(simulate, "_spiky", lambda *args, spike=spike: spike)
        got.append(simulate.condition_h_probe(RARE, 1.5, 700, reps=130, seed=3).hex())
    assert got[0] == got[1]


@pytest.fixture
def routes(monkeypatch):
    """(kernel, cells) of every row the kernels sum in this process."""
    seen, spiky, columns = [], simulate._spiky, simulate._Spans._columns

    def spy_spiky(sampler, ends):
        got = spiky(sampler, ends)
        seen.append(("spike" if got else "row", sampler.k))
        return got

    def spy_columns(self, n, sampler, *args):
        seen.append(("column", sampler.k))
        return columns(self, n, sampler, *args)

    monkeypatch.setattr(simulate, "_spiky", spy_spiky)
    monkeypatch.setattr(simulate._Spans, "_columns", spy_columns)
    return seen


def test_example_41_rows_of_32_cells_and_more_take_the_spike_kernel(routes):
    # the benchmark's slln-series rows 2^5..2^12; a row of 16 cells expects
    # about 2.3 nonzero draws, above 16 / 8
    fx = load("example-4.1")
    rows = tuple(2 ** j for j in range(4, 13))
    assert model.RowSampler(fx.arr, 16).spike_rate > 16 / simulate.SPIKE_RATIO
    simulate.wlln_estimate(SimPlan(arr=fx.arr, b=fx.b, rows=rows, reps=64, seed=2))
    assert routes == [("row", 16)] + [("spike", n) for n in rows[1:]]


def test_other_rows_keep_their_kernels(routes):
    x2m = load("x2m-example", p=1.0)
    simulate.wlln_estimate(SimPlan(arr=x2m.arr, b=x2m.b, rows=(64, 256), reps=256, seed=2))
    assert routes == [("column", 64), ("column", 256)]
    routes.clear()
    na = KERNEL_PLANS["gaussian-na-spec"]()
    simulate.wlln_estimate(na)
    # a gaussian-na row of rare cells: dependent signs, so no spike kernel
    rare_na = dataclasses.replace(RARE, dependence=model.GaussianNA(-0.3))
    simulate.wlln_estimate(SimPlan(arr=rare_na, b=model.power_norming(1.0), rows=(1100,),
                                   reps=64, seed=2))
    # a path is one row of several segments
    fx = load("example-4.1")
    simulate.slln_path_diagnostic(SimPlan(arr=fx.arr, b=fx.b, rows=(64, 4096), reps=64))
    assert routes == [("row", n) for n in (*na.rows, 1100, 4096)]


def _inf_steps(lo, hi):
    mag, prob = _rare_steps(lo, hi)
    i = np.arange(lo, hi + 1)
    mag[i == 40] = math.inf
    return mag, prob


@pytest.mark.parametrize("case", ["magnitude", "weight"])
def test_an_infinite_magnitude_or_weight_sums_as_the_row_kernel(monkeypatch, routes, case):
    # 0 x inf is NaN, which is not 0: the spike kernel keeps the NaN draws of
    # such a cell as it keeps any nonzero one, so its sums are NaN as well
    arr, c = RARE, lambda n, i: math.inf if i == 40 else 1.0
    if case == "magnitude":
        arr, c = model.sequence_array(cell_steps=_inf_steps), None
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(700,), reps=130, seed=3, c=c)
    got = simulate._Spans(plan, plan.rows)(0, 0, plan.reps)
    assert routes == [("spike", 700)]
    with pytest.raises(SamplingError, match="row 700"):
        simulate.wlln_estimate(plan)
    row = _maxima(monkeypatch, plan, False)[0]
    assert got.tobytes() == row.tobytes() and np.isnan(row).all()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dependence", [model.INDEPENDENT, model.GaussianNA(-0.3)],
                         ids=["independent", "gaussian-na"])
def test_a_row_of_no_cells_has_maxima_zero(monkeypatch, dependence, threads):
    # row 1 of k_n = n - 1 has no cells: the maximum over no partial sums is
    # 0.  130 replications, three blocks: 2 threads fork two workers
    _usable_cpus(monkeypatch, 2)
    arr = identical_array(model.SymmetricTwoPoint(2.0, 0.5), row_length=lambda n: n - 1,
                          dependence=dependence)
    plan = SimPlan(arr=arr, b=model.power_norming(1.0), rows=(1, 2), reps=130, seed=3)
    assert simulate._workers(threads, plan.reps) == threads
    wlln = simulate.wlln_estimate(plan, threads=threads)
    series = simulate.slln_series_estimate(plan, None, 1.0, threads=threads)
    assert [e.p_hat for e in wlln.entries if e.n == 1] == [0.0] * 3
    assert wlln.ratio_means[0] == (1, 0.0) and 0.0 < wlln.ratio_means[1][1]
    assert all(d["contributions"][0] == 0.0 for d in series.series["per_eps"])
    if threads == 2:  # the bytes of one thread
        assert json.dumps(wlln.to_json_obj()) == json.dumps(
            simulate.wlln_estimate(plan).to_json_obj())
