"""The column paths of the checks against the scalar code they replaced.

Each reference below is the scalar version that ran before the step laws
(+-1 and symmetric two-point) were evaluated as columns: the per-n series
loop, the per-law UI and bounded-moment scans, and the closed-form searches
of the fixtures.  Both sides add in the same order, so every comparison is
exact: floats are compared through ``repr``, which tells every double apart.
"""

import math
import random

import numpy as np
import pytest

from llnlab import conditions, fixtures, model
from llnlab.fixtures import load
from llnlab.moments import (
    MomentFunction,
    _sup_with_growth,
    bounded_moment_condition,
    cell_moment,
    cell_transformed_tail_mass,
    ui_check,
)
from llnlab.numerics import BLOCK_TOL
from llnlab.specio import load_spec_obj
from llnlab.svf import clog2
from test_row_table import law_row_values


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------


def ref_series_evidence(arr, p, N):
    """The per-n loop of ``exceedance_series``: one tail per cell, summed in n order."""
    if arr.n_max is not None:
        N = min(N, arr.n_max)
    cell = arr.sequence_cell
    checkpoints, partials, increments = [], [], []
    total = 0.0
    next_cp = 1
    last_cp_total = 0.0
    for n in range(1, N + 1):
        tail = model.tail_of(cell(n))
        total += tail.fn(float(n) ** (1.0 / p))
        if n == next_cp:
            checkpoints.append(n)
            partials.append(total)
            increments.append(total - last_cp_total)
            last_cp_total = total
            next_cp *= 2
    if checkpoints[-1] != N:
        checkpoints.append(N)
        partials.append(total)
        increments.append(total - last_cp_total)
    return {"N": N, "checkpoints": checkpoints, "partials": partials,
            "increments": increments, "partial_sum": total}


def ref_ui_check(arr, w, transform, a_grid, n_sup):
    table = model.RowTable(arr, w, n_sup)
    return [
        float(np.max(law_row_values(
            table, lambda d: cell_transformed_tail_mass(d, transform, a))))
        for a in a_grid
    ]


def ref_bounded_moment(arr, w, g, n_sup):
    table = model.RowTable(arr, w, n_sup)
    return _sup_with_growth(law_row_values(table, lambda d: cell_moment(d, g)))


def ref_first_row_ratio_exceeding(a):
    for n in range(1, 9):
        if n / clog2(n) > a:
            return float(n)
    if a <= 2.0**40:
        lo, hi = 8, 16
        while hi / clog2(hi) <= a:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid / clog2(mid) <= a:
                lo = mid
            else:
                hi = mid
        return float(hi)
    s = math.log2(a) + 1.0
    for _ in range(60):
        s = math.log2(a) + math.log2(s)
    return 2.0**s


def ref_first_spike_index_exceeding(a):
    if isinstance(a, int):
        m, pw = 1, 2
        while pw <= a * m:
            m += 1
            pw *= 2
        return m
    if a < 2.0**1000:
        m, pw = 1, 2.0
        while pw <= a * m:
            m += 1
            pw *= 2.0
        return m
    s = math.log2(a) + 1.0
    for _ in range(60):
        s = math.log2(a) + math.log2(s)
    return int(math.ceil(s))


def ref_x2m_ui_cesaro(a):
    if not isinstance(a, int):
        a = float(a)
    if a < 1:
        m_a, base = 1, 1.0
    else:
        m_a, base = ref_first_spike_index_exceeding(a), 0.0
    best = 0.0
    for cap in range(m_a, m_a + 81):
        acc = 0.0
        for d in range(0, min(cap - m_a, 60) + 1):
            acc += 2.0 ** (-d) / (cap - d)
        best = max(best, acc)
    return base + best


def same(got, want):
    return repr(got) == repr(want)


def outcome(fn, a):
    """fn(a), or the type of the exception it raises."""
    try:
        return fn(a)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# arrays
# ---------------------------------------------------------------------------


def _tie_array(p):
    """Sequence whose two-point magnitudes equal n^(1/p) at every third n, so
    the strict ``x_n < m_n`` decides those terms; Pareto and +-1 cells between."""
    def cell(i):
        if i % 3 == 0:
            return model.SymmetricTwoPoint(float(i) ** (1.0 / p), 0.5)
        if i % 3 == 1:
            return model.ParetoTail(alpha=2.0 + (i % 5) / 4.0)
        if i % 7 == 2:
            return model.SymmetricTwoPoint(float(i + 1) ** (1.0 / p), 1.0 / i)
        return model.SymmetricTwoPoint(1.0)

    return model.sequence_array(cell)


def _generated_spec(seed, rows=40, sequence=False):
    """Explicit cells in the benchmark spec's shape: a third each of +-1,
    two-point and Pareto cells, laws from small palettes, c-normalized weights."""
    rng = random.Random(seed)
    two_point = [{"kind": "symmetric-two-point", "magnitude": round(rng.uniform(1.5, 4.0), 6),
                  "prob": round(rng.uniform(0.2, 0.9), 6)} for _ in range(8)]
    pareto = [{"kind": "pareto", "alpha": round(rng.uniform(2.5, 3.5), 6), "cutoff": 1.0}
              for _ in range(8)]

    def law(kind):
        if kind == 0:
            return {"kind": "symmetric-pm1"}
        return rng.choice(two_point if kind == 1 else pareto)

    column = [law(i % 3) for i in range(rows)]
    cells, weights = [], []
    for n in range(1, rows + 1):
        kinds = [i % 3 for i in range(n)]
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds, start=1):
            dist = column[i - 1] if sequence else law(kind)
            cells.append({"n": n, "i": i, "dist": dist})
            weights.append({"n": n, "i": i, "c": round(rng.uniform(0.5, 1.5), 6)})
    return load_spec_obj({
        "p": 1.0,
        "rows": {"k": "n"},
        "cells": cells,
        "sequence": sequence,
        "weights": {"kind": "c-normalized", "flavor": "sum", "values": weights},
    })


# ---------------------------------------------------------------------------
# series scan
# ---------------------------------------------------------------------------


SERIES_CASES = [
    ("example-4.1-p0.5", load("example-4.1", p=0.5).arr, 0.5, 100_000),
    ("example-4.1-p1", load("example-4.1", p=1.0).arr, 1.0, 5000),
    ("example-4.1-p1.5", load("example-4.1", p=1.5).arr, 1.5, 4097),
    ("x2m-p0.5", load("x2m-example").arr, 0.5, 3000),
    ("x2m-p1", load("x2m-example", p=1.0).arr, 1.0, 2**12),
    ("ties-p1", _tie_array(1.0), 1.0, 3001),
    ("ties-p0.5", _tie_array(0.5), 0.5, 1000),
    ("spec-sequence-capped", _generated_spec(3, sequence=True).arr, 1.0, 1000),
    ("one-term", load("example-4.1").arr, 0.5, 1),
    ("three-terms", _tie_array(1.0), 1.0, 3),
]


@pytest.mark.parametrize("name,arr,p,N", SERIES_CASES, ids=[c[0] for c in SERIES_CASES])
def test_series_evidence_equals_scalar_loop(name, arr, p, N):
    got = conditions.exceedance_series(arr, p, N)
    want = ref_series_evidence(arr, p, N)
    assert same(got.evidence, want)
    assert got.value is None or same(got.value, want["partial_sum"])


@pytest.mark.parametrize("chunk", [1, 2, 32])
def test_series_chunks_keep_the_evidence(monkeypatch, chunk):
    monkeypatch.setattr(conditions, "SERIES_CHUNK", chunk)
    for arr, p, N in ((_tie_array(1.0), 1.0, 3001), (load("example-4.1").arr, 0.5, 2**11)):
        assert same(conditions.exceedance_series(arr, p, N).evidence,
                    ref_series_evidence(arr, p, N))


def test_series_ties_count_nothing():
    # x_n = m_n exactly: P(|X_n| > m_n) = 0, so only the other cells add up
    v = conditions.exceedance_series(_tie_array(1.0), 1.0, 3001)
    assert v.evidence["partial_sum"] < 10.0  # 500 more if the ties counted
    assert v.evidence["N"] == 3001 and v.evidence["checkpoints"][-1] == 3001


def test_series_reads_step_laws_without_their_tails(monkeypatch):
    calls = []
    real = conditions.tail_of
    monkeypatch.setattr(conditions, "tail_of", lambda d: calls.append(d) or real(d))
    conditions.exceedance_series(load("example-4.1").arr, 0.5, 5000)
    assert calls == []
    conditions.exceedance_series(_tie_array(1.0), 1.0, 30)
    assert len(calls) == 10  # the Pareto cells only


@pytest.mark.parametrize("N", [0, -5])
def test_series_rejects_empty_range(N):
    with pytest.raises(ValueError, match="N >= 1"):
        conditions.exceedance_series(load("example-4.1").arr, 0.5, N)


def test_x2m_series_holds_on_its_last_three_increments():
    # the increments the verdict reads, and the verdict and rule the decider reads from them
    v = conditions.exceedance_series(load("x2m-example").arr, 0.5, 4096)
    assert all(abs(d) < BLOCK_TOL for d in v.evidence["increments"][-3:])
    assert (v.verdict, v.rule) == ("holds", "last 3 block increments below 1e-12")


# ---------------------------------------------------------------------------
# UI levels and bounded moments
# ---------------------------------------------------------------------------


def _spike_array():
    """Spikes at 2**60, where float(2**60 - 1) ties with them."""
    def cell(i):
        if i % 3 == 0:
            return model.SymmetricTwoPoint(2.0**60, 1.0 / i)
        if i % 3 == 1:
            return model.ParetoTail(alpha=2.5)
        return model.SymmetricTwoPoint(1.0)

    return model.sequence_array(cell)


def _scan_cases():
    e41, e21, wlln = load("example-4.1"), load("example-2.1"), load("wlln-counterexample")
    spec, seq = _generated_spec(1), _generated_spec(2, sequence=True)
    return [
        ("example-4.1", e41.arr, model.uniform_weights(), 10_000),
        ("example-2.1-weighted", e21.arr, e21.weights, 300),
        ("example-2.1-cesaro", e21.arr, model.uniform_weights(), 300),
        ("wlln-weighted", wlln.arr, wlln.weights, 300),
        ("spec-weighted", spec.arr, spec.weights, 10_000),
        ("spec-cesaro", spec.arr, model.uniform_weights(), 10_000),
        ("spec-sequence", seq.arr, model.uniform_weights(), 10_000),
    ]


SCAN_CASES = _scan_cases()
UI_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 16.0, 2.0**10, 2.0**20, 2.0**40)


@pytest.mark.parametrize("name,arr,w,n_sup", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
@pytest.mark.parametrize("power", [0.5, 1.0, 1.5])
def test_ui_check_equals_per_law_scan(name, arr, w, n_sup, power):
    t = MomentFunction(power=power)
    got = ui_check(arr, w, t, UI_GRID, n_sup=n_sup)
    assert same(got, ref_ui_check(arr, w, t, UI_GRID, n_sup))


@pytest.mark.parametrize("name,arr,w,n_sup", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
@pytest.mark.parametrize("g", [
    MomentFunction(power=0.5, log_factor_nu=1),
    MomentFunction(power=1.0),
], ids=["p0.5-log", "p1"])
def test_bounded_moment_equals_per_law_scan(name, arr, w, n_sup, g):
    got = bounded_moment_condition(arr, w, g, n_sup=n_sup)
    want = ref_bounded_moment(arr, w, g, n_sup)
    assert same(float(got), float(want))
    assert (got.attained_at, got.growing) == (want.attained_at, want.growing)


def test_ui_level_compares_ints_exactly():
    arr, w, t = _spike_array(), model.uniform_weights(), MomentFunction(power=1.0)
    grid = (2**60 - 1, 2**60 + 1)
    assert float(grid[0]) == float(grid[1]) == 2.0**60
    got = ui_check(arr, w, t, grid, n_sup=60)
    assert same(got, ref_ui_check(arr, w, t, grid, 60))
    assert got[0] > got[1]  # the spikes exceed 2**60 - 1 but not 2**60 + 1


def test_ui_check_calls_the_cell_helper_on_other_laws_only(monkeypatch):
    import llnlab.moments as moments

    calls = []
    real = moments.cell_transformed_tail_mass
    monkeypatch.setattr(moments, "cell_transformed_tail_mass",
                        lambda d, t, a: calls.append(d) or real(d, t, a))
    ui_check(load("example-4.1").arr, model.uniform_weights(), MomentFunction(power=0.5),
             UI_GRID, n_sup=2000)
    assert calls == []


# ---------------------------------------------------------------------------
# closed forms of the fixtures
# ---------------------------------------------------------------------------


def _grid_values():
    vals = []
    for name in fixtures.FIXTURE_NAMES:
        fx = load(name)
        for x in fx.ui_grid + fx.kg_grid:
            vals.append(x)
    return vals


def _ratio_arguments():
    vals = [0.5, 1.0, 2.0, 8 / 3, 2.7, 3.0, -1.0, 0.0, math.nan, math.inf]
    for n in range(1, 3000):
        r = n / clog2(n)
        vals += [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)]
    for n in (2**20, 10**9 + 7, 2**44, 2**45 + 3):
        r = n / clog2(n)
        vals += [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)]
    vals += [2.0**40, math.nextafter(2.0**40, 0.0), math.nextafter(2.0**40, math.inf),
             2**40, 2**40 + 1, 2.0**41, 2.0**1000, 2**1000 + 1, 2**4200]
    rng = random.Random(5)
    vals += [2.0 ** rng.uniform(-2.0, 42.0) for _ in range(3000)]
    for x in _grid_values():
        for p in (0.5, 1.0, 1.5):
            try:
                vals.append(float(x) ** p)
            except OverflowError:
                pass
    return vals


def test_first_row_ratio_exceeding_equals_bisection():
    bad = []
    for a in _ratio_arguments():
        got = outcome(fixtures._first_row_ratio_exceeding, a)
        want = outcome(ref_first_row_ratio_exceeding, a)
        if not same(got, want):
            bad.append((a, got, want))
    assert bad == []


def _spike_arguments():
    vals = [0, 1, 2, 3, 4, 5, -3, -(2**100), True, 0.5, 1.0, 2.0, 2.5, -1.0, math.nan,
            -math.inf, 2.0**1000, math.nextafter(2.0**1000, 0.0), 2.0**1010, 1e308]
    for m in range(1, 1100):
        t = 2**m // m
        vals += [t - 1, t, t + 1]
        if m < 1000:
            r = 2.0**m / m
            vals += [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)]
    vals += [2**j + d for j in range(0, 4400, 11) for d in (-1, 0, 1)]
    vals += [2**40, 2.0**40, 2**1000, 2**1000 - 1, 2**1000 + 1, 3**5000]
    vals += _grid_values()
    return vals


def test_first_spike_index_exceeding_equals_walk():
    bad = []
    for a in _spike_arguments():
        got = outcome(fixtures._first_spike_index_exceeding, a)
        want = outcome(ref_first_spike_index_exceeding, a)
        if got != want or type(got) is not type(want):
            bad.append((a, got, want))
    assert bad == []


def test_x2m_ui_cesaro_equals_loops():
    fx = load("x2m-example")
    ui = fx.closed["ui_cesaro_pow_p"]
    grid = list(fx.ui_grid) + [0, 0.5, 1, 1.0, 3, 2.0**40, 2**1000 + 1, 2.0**1000, 2**5000]
    for a in grid:
        assert same(ui(a), ref_x2m_ui_cesaro(a)), a


def test_wlln_closed_forms_equal_bisection():
    fx = load("wlln-counterexample")
    ui, sup = fx.closed["ui_cesaro_pow_p"], fx.arr.closed_cesaro_sup
    for a in list(fx.ui_grid) + [0.5, 3.0, 2.0**40, math.nextafter(2.0**40, math.inf)]:
        want = 1.0 / clog2(ref_first_row_ratio_exceeding(float(a))) if a >= 1.0 else None
        if want is not None:
            assert same(ui(a), want), a
    for x in [2.0**j for j in range(0, 41)] + [1.5, 7.25, 1e5 + 0.5]:
        assert same(sup(x), 1.0 / ref_first_row_ratio_exceeding(x**fx.p)), x
