import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llnlab import model, specio
from llnlab.errors import RowRangeError
from builders import identical_array


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def test_tail_of_pm1_below_support():
    assert model.tail_of(model.SymmetricTwoPoint(1.0)).fn(0.5) == 1.0


def test_tail_of_two_point_strict_at_atom():
    assert model.tail_of(model.SymmetricTwoPoint(5.0, 1.0)).fn(5.0) == 0.0


def test_tail_of_pareto_value():
    assert model.tail_of(model.ParetoTail(alpha=2.0, cutoff=1.0)).fn(10.0) == pytest.approx(
        0.01, abs=1e-15
    )


def test_tail_negative_argument_is_one():
    for d in (model.SymmetricTwoPoint(1.0), model.SymmetricTwoPoint(2.0, 0.3), model.ParetoTail(3.0)):
        assert model.tail_of(d).fn(-1.0) == 1.0


@given(
    st.one_of(
        st.builds(
            model.SymmetricTwoPoint,
            magnitude=st.floats(0.1, 50.0),
            prob=st.floats(0.01, 1.0),
        ),
        st.builds(model.ParetoTail, alpha=st.floats(0.2, 5.0), cutoff=st.floats(1.0, 4.0)),
        st.just(model.SymmetricTwoPoint(1.0)),
    )
)
@settings(max_examples=60, deadline=None)
def test_tail_monotone_on_grid(dist):
    tail = model.tail_of(dist)
    xs = np.geomspace(1e-3, 1e3, 100)
    vals = [tail.fn(x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


@pytest.mark.parametrize(
    "dist",
    [
        model.SymmetricTwoPoint(1.0),
        model.SymmetricTwoPoint(3.0, 0.4),
        model.ParetoTail(alpha=2.5, cutoff=1.0),
    ],
)
def test_sampler_tail_agreement(dist):
    # empirical tail of 1e5 inverse-transform samples vs the exact tail
    n = 100_000
    rng = model.rng_for(123, 0)
    samples = model.quantile_of(dist)(rng.random(n))
    tail = model.tail_of(dist)
    for x in (0.5, 1.0, 1.5, 2.9, 3.0):
        p = tail.fn(x)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(np.mean(np.abs(samples) > x) - p) <= 3 * se + 1e-9


# ---------------------------------------------------------------------------
# arrays and weights
# ---------------------------------------------------------------------------


def _two_block_weights():
    from llnlab.fixtures import load

    return load("example-2.1").weights


def row_sum(w, n):
    """sum_i a(n, i) over row n."""
    return w.range_sum(n, 1, w.row_length(n))


def test_row_sum_two_block_row2():
    assert row_sum(_two_block_weights(), 2) == pytest.approx(1.25, abs=1e-15)


def test_weight_sup_scan_matches_closed_value():
    c0, at = _two_block_weights().c0(10_000)
    assert c0 == pytest.approx(1.25, abs=1e-12)
    assert at == 2


def test_uniform_weights_row_sum_is_one():
    w = model.uniform_weights()
    for n in (1, 3, 17, 400):
        assert row_sum(w, n) == pytest.approx(1.0, abs=1e-15)


def ref_c0(w, n_sup):
    """The per-row loop ``WeightScheme.c0`` ran for every weight scheme."""
    sums = [row_sum(w, n) for n in range(1, model.scan_top(n_sup, w.n_max) + 1)]
    best_n = int(np.argmax(sums)) + 1 if sums else 0
    best = sums[best_n - 1] if sums else -math.inf
    if not (best > 0.0 and math.isfinite(best)):
        raise ValueError(f"row-sum sup {best} violates C0 in (0, inf)")
    return best, best_n


@pytest.mark.parametrize("n_max", [None, 3, 100])
@pytest.mark.parametrize("row_length", [lambda n: n, lambda n: 2 * n, lambda n: max(n - 5, 0)],
                         ids=["n", "2n", "n-5"])
@pytest.mark.parametrize("n_sup", [1, 64, 10_000])
def test_uniform_c0_matches_the_row_loop(row_length, n_max, n_sup):
    w = model.WeightScheme(kind="uniform", row_length=row_length, n_max=n_max)
    try:
        want = ref_c0(w, n_sup)
    except ValueError as exc:  # no nonempty row in the scan
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            w.c0(n_sup)
    else:
        got = w.c0(n_sup)
        assert got == want and type(got[0]) is float and type(got[1]) is int


@pytest.mark.parametrize("n_sup", [0, -3])
def test_uniform_c0_of_an_empty_scan_raises_as_the_row_loop(n_sup):
    w = model.uniform_weights()
    with pytest.raises(ValueError, match="-inf"):
        ref_c0(w, n_sup)
    with pytest.raises(ValueError, match="-inf"):
        w.c0(n_sup)


def test_row_out_of_declared_range():
    w = model.explicit_weights(lambda n, lo, hi: hi - lo + 1.0, lambda n: n, n_max=5)
    with pytest.raises(RowRangeError):
        row_sum(w, 6)


def _c_normalized(c, rows: int, **weights) -> model.WeightScheme:
    """The weights of a spec of rows 1..rows (k_n = n), ``c-normalized`` by c(n, i)."""
    full = [(n, i) for n in range(1, rows + 1) for i in range(1, n + 1)]
    return specio.load_spec_obj({
        "rows": {"k": "n"},
        "cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}} for n, i in full],
        "weights": {"kind": "c-normalized", **weights,
                    "values": [{"n": n, "i": i, "c": c(n, i)} for n, i in full]},
    }).weights


def test_a_weight_scheme_is_its_range_sums():
    from llnlab.fixtures import load

    assert [f.name for f in dataclasses.fields(model.WeightScheme)] == [
        "kind", "row_length", "range_sum_fn", "closed_weighted_sup", "closed_c0", "n_max"]
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in (1, 2) for i in range(1, n + 1)]
    values = [{"n": c["n"], "i": c["i"], "c": 1.0} for c in cells]
    spec = specio.load_spec_obj({"cells": cells,
                                 "weights": {"kind": "c-normalized", "values": values}})
    c_norm = _c_normalized(lambda n, i: float(i), 4)
    for w in (spec.weights, load("example-2.1").weights, load("wlln-counterexample").weights,
              c_norm):
        assert w.kind == "explicit" and w.range_sum_fn is not None
        assert not hasattr(w, "a_fn")
    assert spec.weights.range_sum(2, 2, 2) == 0.5


def test_c_normalized_rows_sum_to_one_exactly():
    w = _c_normalized(lambda n, i: float(i), 100, flavor="sum")
    for n in (1, 2, 7, 100):
        assert abs(row_sum(w, n) - 1.0) < 1e-12


def test_c_normalized_growth_bound_enforced():
    # A_2 = 4 > 1 * 2: the table is normalised at load, so the load raises
    with pytest.raises(ValueError):
        _c_normalized(lambda n, i: float(n), 3, flavor="sum", growth_constant=1.0)


def test_array_cell_lookup_and_bounds():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    assert arr.cell(4, 2) == model.SymmetricTwoPoint(1.0)
    with pytest.raises(RowRangeError):
        arr.cell(3, 4)
    with pytest.raises(RowRangeError):
        arr.k(0)


# ---------------------------------------------------------------------------
# norming sequences
# ---------------------------------------------------------------------------


def test_norming_zero_convention_and_int_exactness():
    b = model.power_norming(0.5)
    assert b(0) == 0
    assert b(3) == 9 and isinstance(b(3), int)
    values = [b(n) for n in range(1, 501)]
    assert all(prev <= cur for prev, cur in zip([0, *values], values))


def test_norming_with_conjugate_factor():
    from llnlab import svf

    b = model.power_norming(1.0, svf.log_power(1.0).conjugate())
    # b_n = n / log2(n) eventually grows
    assert b(2**10) == pytest.approx(2**10 / 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_row_support_and_determinism():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    r1 = model.sample_row(arr, 64, seed=9)
    r2 = model.sample_row(arr, 64, seed=9)
    assert np.array_equal(r1, r2)
    assert set(np.unique(r1)) <= {-1.0, 1.0}
    assert not np.array_equal(r1, model.sample_row(arr, 64, seed=10))


def test_sample_mean_zero_clt_width():
    dist = model.SymmetricTwoPoint(2.0, 0.5)  # variance = 4 * 0.5 = 2
    n = 100_000
    samples = model.quantile_of(dist)(model.rng_for(5, 1).random(n))
    sd = math.sqrt(2.0)
    assert abs(float(np.mean(samples))) <= 4.0 * sd / math.sqrt(n)


def test_gaussian_na_rows_negative_neighbour_correlation():
    arr = model.ArraySpec(
        row_length=lambda n: n,
        groups_fn=lambda n: (model.CellGroup(n, model.SymmetricTwoPoint(1.0)),),
        dependence=model.GaussianNA(-0.3),
    )
    reps, n = 4000, 8
    acc = np.zeros(n - 1)
    for rep in range(reps):
        row = model.sample_row_with(arr, n, model.rng_for(2, n, rep))
        acc += row[:-1] * row[1:]
    mean_prod = acc / reps  # E X_i X_{i+1} < 0 under negative association
    assert float(np.mean(mean_prod)) < -0.05


def test_gaussian_na_correlation_bounds():
    with pytest.raises(ValueError):
        model.GaussianNA(-0.7)
    with pytest.raises(ValueError):
        model.GaussianNA(0.1)
