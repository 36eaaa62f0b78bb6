"""Step columns read from a fixture's formula (``ArraySpec.cell_steps``).

example-4.1 and x2m-example give the (magnitude, prob) of a run of cells
from their formulas, so ``step_columns`` builds no cell object per cell.  The
reference is the same array with the hook removed, which walks
``sequence_cell``: the law numbering, the columns, the representatives of the
step laws and everything built on them (``RowTable``, ``exceedance_series``)
must be bitwise equal.
"""

import dataclasses

import numpy as np
import pytest

from llnlab import conditions, model
from llnlab.fixtures import load

EX41_P = (0.5, 0.7, 1.0, 1.5, 1.9)
NU = (1, 2, 3)
X2M_P = (0.5, 1.0, 1.5)

# 1..10^4, runs across the clamp kinks of log_nu (x = 2, 4, 16 and 65,536 for
# nu = 1..4), and a run far out
EX41_RUNS = ((1, 10_000), (1, 1), (1, 3), (2, 3), (3, 5), (4, 4), (15, 17), (16, 17),
             (65_530, 65_540), (65_536, 65_536), (60_000, 66_000), (70_000, 70_100))


def walked(arr):
    """The array with its formula removed: ``step_columns`` walks its cells."""
    assert arr.cell_steps is not None
    return dataclasses.replace(arr, cell_steps=None)


def assert_same_table(arr, lo, hi):
    law, laws, mag, prob, layout = model.step_columns(arr, lo, hi)
    ref_law, ref_laws, ref_mag, ref_prob, ref_layout = model.step_columns(walked(arr), lo, hi)
    assert np.array_equal(law, ref_law) and law.dtype == ref_law.dtype
    assert np.array_equal(mag, ref_mag) and np.array_equal(prob, ref_prob)
    assert mag.dtype == prob.dtype == np.float64
    assert layout is ref_layout is None
    assert len(laws) == len(ref_laws) == len(mag)  # every cell is a step law
    assert tuple(laws) == tuple(ref_laws)


def assert_formula_is_the_cell(arr, lo, hi):
    cells = [model.step_law(arr.sequence_cell(i)) for i in range(lo, hi + 1)]
    mags, probs = arr.cell_steps(lo, hi)
    assert all(type(v) is float for v in (*mags, *probs))
    assert mags == [m for m, _ in cells] and probs == [q for _, q in cells]


@pytest.mark.parametrize("nu", NU)
@pytest.mark.parametrize("p", EX41_P)
def test_example_41_formula_columns_match_the_cell_walk(p, nu):
    arr = load("example-4.1", p=p, nu=nu).arr
    for lo, hi in EX41_RUNS:
        assert_same_table(arr, lo, hi)
        assert_formula_is_the_cell(arr, lo, hi)


def x2m_runs():
    """Runs that start and end on, just below and just above powers of two."""
    edges = sorted({v for m in range(0, 18) for v in ((1 << m) - 1, 1 << m, (1 << m) + 1) if v})
    return [(lo, hi) for lo in edges for hi in edges if lo <= hi and hi - lo <= 5_000]


@pytest.mark.parametrize("p", X2M_P)
def test_x2m_formula_columns_match_the_cell_walk(p):
    arr = load("x2m-example", p=p).arr
    for lo, hi in x2m_runs():
        assert_same_table(arr, lo, hi)
        assert_formula_is_the_cell(arr, lo, hi)
    assert_same_table(arr, 1, 70_000)


@pytest.mark.parametrize("name", ["example-4.1", "x2m-example"])
def test_empty_run(name):
    arr = load(name).arr
    assert arr.cell_steps(5, 4) == ([], [])
    law, laws, mag, prob, layout = model.step_columns(arr, 5, 4)
    assert len(law) == len(laws) == len(mag) == len(prob) == 0 and layout is None


def test_step_laws_are_built_only_when_read():
    arr = load("example-4.1", nu=2).arr
    built = []

    def cell(i):
        built.append(i)
        return arr.sequence_cell(i)

    counted = dataclasses.replace(arr, sequence_cell=cell)
    law, laws, mag, _, _ = model.step_columns(counted, 100, 5_099)
    assert built == [] and len(laws) == len(mag) == 5_000
    assert laws[7] == arr.sequence_cell(107) and laws[-1] == arr.sequence_cell(5_099)
    assert built == [107, 5_099]
    assert laws[2:4] == (arr.sequence_cell(102), arr.sequence_cell(103))
    with pytest.raises(IndexError):
        laws[5_000]
    # x2m: the +-1 law, listed by cell 1, then one law per spike size (at
    # p = 1/2 the spikes at 2 and 4 are both 4.0)
    x2m = load("x2m-example").arr
    law, laws, mag, _, _ = model.step_columns(x2m, 1, 1_000)
    assert isinstance(laws[0], model.SymmetricPM1) and len(laws) == 9
    assert law[1] == law[3] and laws[law[3]] == x2m.sequence_cell(2)
    assert [laws[law[(1 << m) - 1]] for m in range(1, 10)] == [
        x2m.sequence_cell(1 << m) for m in range(1, 10)]


def cases():
    for p in (0.5, 1.5):
        for nu in (1, 3):
            yield load("example-4.1", p=p, nu=nu)
    for p in X2M_P:
        yield load("x2m-example", p=p)


@pytest.mark.parametrize("fx", list(cases()), ids=lambda fx: f"{fx.name}-p{fx.p}-nu{fx.nu}")
def test_row_table_matches_the_cell_walk(fx):
    ref_arr = walked(fx.arr)
    for weights in (None, fx.weights):
        for n_sup in (1, 64, 3_000):
            table = model.RowTable(fx.arr, weights, n_sup)
            ref = model.RowTable(ref_arr, weights, n_sup)
            assert tuple(table.laws) == tuple(ref.laws)
            for x in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 17.25, 1e3, 2**40, 2**60 + 1):
                assert table.sup(x) == ref.sup(x)

            def value(d):
                return model.tail_of(d).fn(2.5) + 1.0

            assert np.array_equal(table.row_values(value), ref.row_values(value))
            step = table.mag ** fx.p * table.prob
            assert np.array_equal(table.split_row_values(step, value),
                                  ref.split_row_values(step, value))


@pytest.mark.parametrize("fx", [load("example-4.1"), load("example-4.1", p=1.5, nu=2),
                                load("x2m-example"), load("x2m-example", p=1.5)],
                         ids=["ex41", "ex41-p1.5-nu2", "x2m", "x2m-p1.5"])
def test_series_evidence_matches_the_cell_walk(fx):
    for N in (1, 2, 1_000, 70_000):
        got = conditions.exceedance_series(fx.arr, fx.p, N)
        want = conditions.exceedance_series(walked(fx.arr), fx.p, N)
        assert got == want
