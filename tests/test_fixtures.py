import math
from fractions import Fraction

import pytest

from llnlab import domination, fixtures, model
from llnlab.errors import SpecError
from llnlab.fixtures import FIXTURE_NAMES, load


def test_unknown_name_rejected():
    with pytest.raises(SpecError):
        load("example-9.9")


def test_all_names_load():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert fx.p == 0.5 and fx.nu == 1
        assert fx.arr.k(5) == 5


def test_two_block_row_five_cells():
    fx = load("example-2.1")
    mags = []
    for i in range(1, 6):
        d = fx.arr.cell(5, i)
        mags.append(d.magnitude)
    assert mags == [1.0, 1.0, 5.0, 5.0, 5.0]


def test_two_block_first_row_weight_reading():
    # row 1 has no small-cell block; its single weight comes from the 1/n^2 clause
    fx = load("example-2.1")
    assert fx.weights.range_sum(1, 1, 1) == 1.0
    assert fx.weights.range_sum(2, 1, 1) == 1.0  # 1/m_2 with m_2 = 1
    assert fx.weights.range_sum(2, 2, 2) == 0.25


def test_power_spike_magnitude_at_p_one():
    fx = load("x2m-example", p=1.0)
    d = fx.arr.cell(8, 8)
    assert d.magnitude == pytest.approx(8.0 / 3.0, abs=1e-15)


def test_power_spikes_default_p():
    fx = load("x2m-example")
    d = fx.arr.cell(16, 16)  # (2^4 / 4)^2
    assert d.magnitude == 16.0
    assert fx.arr.cell(16, 3) == fx.arr.cell(16, 1) == model.SymmetricTwoPoint(1.0)


def test_counterexample_c_row_four():
    fx = load("wlln-counterexample")
    assert [fx.c_fn(4, i) for i in range(1, 5)] == [0.0, 0.0, 0.0, 4.0]


def test_p_override_validation():
    with pytest.raises(SpecError):
        load("example-4.1", p=2.5)
    with pytest.raises(SpecError):
        load("example-4.1", nu=0)
    assert load("example-4.1", p=1.5).p == 1.5


def test_rare_spike_probabilities():
    fx = load("example-4.1")
    d1 = fx.arr.cell(3, 1)
    assert d1.prob == 1.0  # 1/(1 * log 1) with the clamp
    d2 = fx.arr.cell(3, 2)
    assert d2.prob == 0.5
    assert d2.magnitude == pytest.approx(3.0 ** (1.0 / fx.p), rel=1e-15)


# ---------------------------------------------------------------------------
# closed forms against scans
# ---------------------------------------------------------------------------


def test_counterexample_closed_cesaro_matches_scan():
    fx = load("wlln-counterexample")
    for x in (0.5, 1.0, 2.0, 4.0, 17.0, 300.0):
        scan = model.RowTable(fx.arr, model.uniform_weights(fx.arr.row_length), n_sup=5000).sup(x)
        assert fx.arr.closed_cesaro_sup(x) == pytest.approx(scan, rel=1e-12)


def test_power_spikes_closed_cesaro_matches_scan():
    fx = load("x2m-example")
    for x in (0.5, 1.0, 2.0, 5.0, 16.0, 250.0):
        scan = model.RowTable(fx.arr, model.uniform_weights(fx.arr.row_length), n_sup=8192).sup(x)
        assert float(fx.arr.closed_cesaro_sup(x)) == pytest.approx(scan, rel=1e-12)


def test_power_spikes_closed_form_integer_exactness():
    fx = load("x2m-example")
    g = fx.arr.closed_cesaro_sup
    assert g(1) == Fraction(1, 2)
    # oracle: smallest n with 2^n / n > sqrt(x), found by brute walk
    n = 1
    while (2**n) ** 2 <= (2**100) * n * n:
        n += 1
    assert g(2**100) == Fraction(1, 2**n)
    assert float(g(4.0)) == g(4)


def _unit_walk(xs):
    """The unit walk the p = 1/2 closed form used for int x: min{n >= 1 :
    4^n > x n^2}, resumed across ascending x (the answer never decreases)."""
    out, n, pw4 = [], 1, 4
    for x in xs:
        while pw4 <= x * n * n:
            n += 1
            pw4 *= 4
        out.append(Fraction(1, 2**n))
    return out


def test_power_spikes_int_cesaro_search_equals_the_unit_walk():
    fx = load("x2m-example")
    g = fx.arr.closed_cesaro_sup
    kg = sorted({fx.b(k) for k in fx.kg_grid})
    changes = [-(-4**n // (n * n)) for n in range(1, 1301)]  # smallest x with 4^n <= x n^2
    xs = sorted({x + d for x in changes for d in (-1, 0, 1)} | set(kg))
    assert [g(x) for x in xs] == _unit_walk(xs)
    assert g(0) == g(-3) == 1


def _old_log_search(xp_log):
    """The fixed-point guess and unit steps the closed form used past x^p = 2^40."""
    n = max(2, int(math.ceil(fixtures._log2_root(xp_log))))
    while n > 2 and (n - 1) - math.log2(n - 1) > xp_log:
        n -= 1
    while n - math.log2(n) <= xp_log:
        n += 1
    return 2.0 ** (-n) if n < 1060 else 0.0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_power_spikes_large_cesaro_search_equals_the_old_steps(p):
    g = load("x2m-example", p=p).arr.closed_cesaro_sup
    xs = [2.0**k * f for k in range(27, 1024, 7) for f in (1.0, 1.37)]
    xs += [2**k + d for k in (81, 500, 2000, 10**5) for d in (-1, 0, 1)]
    checked = 0
    for x in xs:
        xp_log = p * math.log2(x)
        if xp_log > 40.0 and not (p == 0.5 and isinstance(x, int)):
            assert g(x) == _old_log_search(xp_log)
            checked += 1
    assert checked > 100
    for bad, exc in ((math.inf, OverflowError), (math.nan, ValueError)):
        with pytest.raises(exc):
            g(bad)


def test_two_block_ui_closed_matches_scan():
    from llnlab import moments

    fx = load("example-2.1")
    t = moments.MomentFunction(power=fx.p)
    closed = fx.closed["ui_weighted_pow_p"]
    for a in (0.5, 1.0, 2.0, 5.0):
        scan = moments.ui_check(fx.arr, fx.weights, t, [a], n_sup=3000)[0]
        assert closed(a) == pytest.approx(scan, rel=1e-9)


def test_expected_verdict_tables_are_wellformed():
    known = {
        "cesaro-domination", "weighted-domination", "chandra-ghosal", "series",
        "kG", "kG-hat", "ui", "bounded-moment", "b-regularity-wlln",
        "b-regularity-l2", "c0",
    }
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert set(fx.expected) <= known
        assert fx.expected  # every fixture states at least one expectation
