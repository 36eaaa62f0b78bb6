"""Sequence fixtures given by their formula alone (``ArraySpec.cell_steps``).

example-4.1 and x2m-example state their cells once, as a formula for the
(magnitude, prob) of a run of cells; ``step_columns`` reads runs from it and
``sequence_cell(i)`` is built from the one-cell run.  The reference is the
same array with the formula removed and ``sequence_cell`` set to the paper's
scalar expression for X_i, so ``step_columns`` walks cell objects: the law
numbering, the columns and everything built on them (``RowTable``,
``exceedance_series``) must be bitwise equal.
"""

import dataclasses

import numpy as np
import pytest

from llnlab import conditions, model
from llnlab.fixtures import load
from llnlab.svf import log_nu

EX41_P = (0.5, 0.7, 1.0, 1.5, 1.9)
NU = (1, 2, 3)
X2M_P = (0.5, 1.0, 1.5)

# 1..10^4, runs across the clamp kinks of log_nu (x = 2, 4, 16 and 65,536 for
# nu = 1..4), and a run far out
EX41_RUNS = ((1, 10_000), (1, 1), (1, 3), (2, 3), (3, 5), (4, 4), (15, 17), (16, 17),
             (65_530, 65_540), (65_536, 65_536), (60_000, 66_000), (70_000, 70_100))


PM1 = model.SymmetricTwoPoint(1.0)


def paper_cell(fx):
    """X_i of the fixture as one scalar expression of i."""
    p, nu = fx.p, fx.nu
    if fx.label == "example-4.1":
        # +-(i+1)^(1/p) with probability 1/(i log_nu(i)), else 0
        return lambda i: model.SymmetricTwoPoint(
            magnitude=float(i + 1) ** (1.0 / p), prob=1.0 / (i * log_nu(i, nu)))

    def x2m_cell(i):
        if i >= 2 and (i & (i - 1)) == 0:  # i = 2^m
            return model.SymmetricTwoPoint((i / (i.bit_length() - 1)) ** (1.0 / p), 1.0)
        return PM1

    return x2m_cell


def walked(fx):
    """The fixture's array with its formula removed: ``step_columns`` walks
    the paper's cells."""
    assert fx.arr.cell_steps is not None
    return dataclasses.replace(fx.arr, cell_steps=None, sequence_cell=paper_cell(fx))


def assert_same_table(fx, lo, hi):
    law, others, mag, prob, layout = model.step_columns(fx.arr, lo, hi)
    ref_law, ref_others, ref_mag, ref_prob, ref_layout = model.step_columns(walked(fx), lo, hi)
    assert np.array_equal(law, ref_law) and law.dtype == ref_law.dtype
    assert np.array_equal(mag, ref_mag) and np.array_equal(prob, ref_prob)
    assert mag.dtype == prob.dtype == np.float64
    assert layout is ref_layout is None
    assert others == ref_others == ()  # every cell is a step law


def assert_formula_is_the_cell(fx, lo, hi):
    cell = paper_cell(fx)
    want = [cell(i) for i in range(lo, hi + 1)]
    mags, probs = fx.arr.cell_steps(lo, hi)
    assert mags.dtype == probs.dtype == np.float64
    assert mags.tolist() == [d.magnitude for d in want]
    assert probs.tolist() == [d.prob for d in want]
    ends = [fx.arr.sequence_cell(i) for i in (lo, hi)]
    assert ends == [cell(lo), cell(hi)]
    assert all(type(v) is float for d in ends for v in (d.magnitude, d.prob))


@pytest.mark.parametrize("nu", NU)
@pytest.mark.parametrize("p", EX41_P)
def test_example_41_formula_columns_match_the_cell_walk(p, nu):
    fx = load("example-4.1", p=p, nu=nu)
    for lo, hi in EX41_RUNS:
        assert_same_table(fx, lo, hi)
        assert_formula_is_the_cell(fx, lo, hi)


def x2m_runs():
    """Runs that start and end on, just below and just above powers of two."""
    edges = sorted({v for m in range(0, 18) for v in ((1 << m) - 1, 1 << m, (1 << m) + 1) if v})
    return [(lo, hi) for lo in edges for hi in edges if lo <= hi and hi - lo <= 5_000]


@pytest.mark.parametrize("p", X2M_P)
def test_x2m_formula_columns_match_the_cell_walk(p):
    fx = load("x2m-example", p=p)
    for lo, hi in x2m_runs():
        assert_same_table(fx, lo, hi)
        assert_formula_is_the_cell(fx, lo, hi)
    assert_same_table(fx, 1, 70_000)


@pytest.mark.parametrize("name", ["example-4.1", "x2m-example"])
def test_empty_run(name):
    arr = load(name).arr
    mags, probs = arr.cell_steps(5, 4)
    assert mags.dtype == probs.dtype == np.float64
    assert (mags.tolist(), probs.tolist()) == ([], [])
    law, others, mag, prob, layout = model.step_columns(arr, 5, 4)
    assert len(law) == len(others) == len(mag) == len(prob) == 0 and layout is None


def cases():
    for p in (0.5, 1.5):
        for nu in (1, 3):
            yield load("example-4.1", p=p, nu=nu)
    for p in X2M_P:
        yield load("x2m-example", p=p)


@pytest.mark.parametrize("fx", list(cases()), ids=lambda fx: f"{fx.label}-p{fx.p}-nu{fx.nu}")
def test_row_table_matches_the_cell_walk(fx):
    ref_arr = walked(fx)
    for weights in (model.uniform_weights(fx.arr.row_length), fx.weights):
        for n_sup in (1, 64, 3_000):
            table = model.RowTable(fx.arr, weights, n_sup)
            ref = model.RowTable(ref_arr, weights, n_sup)
            assert table.others == ref.others == ()
            assert np.array_equal(table.mag, ref.mag) and np.array_equal(table.prob, ref.prob)
            for x in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 17.25, 1e3, 2**40, 2**60 + 1):
                assert table.sup(x) == ref.sup(x)

            def value(d):
                return model.tail_of(d).fn(2.5) + 1.0

            for step in (np.where(2.5 < table.mag, table.prob, 0.0) + 1.0,  # value's column
                         table.mag ** fx.p * table.prob):
                assert np.array_equal(table.split_row_values(step, value),
                                      ref.split_row_values(step, value))


@pytest.mark.parametrize("fx", [load("example-4.1"), load("example-4.1", p=1.5, nu=2),
                                load("x2m-example"), load("x2m-example", p=1.5)],
                         ids=["ex41", "ex41-p1.5-nu2", "x2m", "x2m-p1.5"])
def test_series_evidence_matches_the_cell_walk(fx):
    for N in (1, 2, 1_000, 70_000):
        got = conditions.exceedance_series(fx.arr, fx.p, N)
        want = conditions.exceedance_series(walked(fx), fx.p, N)
        assert got == want
