import dataclasses
import math

import numpy as np
import pytest

from llnlab import conditions, model, numerics, svf
from llnlab.errors import NotApplicableError
from llnlab.fixtures import load
from llnlab.model import explicit_norming, power_norming


# ---------------------------------------------------------------------------
# integral condition
# ---------------------------------------------------------------------------


def test_integral_holds_with_exact_value():
    g = lambda x: min(1.0, x**-2.0) if x > 0 else 1.0
    v = conditions.chandra_ghosal_integral(model.TailFunction(fn=g), 1.0)
    assert v.holds
    # oracle: int_0^1 1 dx + int_1^inf x^-2 dx = 2
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_integral_compact_support_holds(monkeypatch):
    # an atom tail is a step source: summed piece by piece, any quadrature would raise
    monkeypatch.setattr(numerics, "quad", None)
    tail = model.tail_of(model.SymmetricTwoPoint(3.0, 0.5))
    v = conditions.chandra_ghosal_integral(tail, 1.0)
    assert v.holds
    # oracle: the tail is 0.5 up to 3, so int_0^3 0.5 dx = 1.5, exactly
    assert v.value == 1.5


def test_integral_fails_on_inverse_log_envelope():
    eps0 = 0.25
    p = 0.5

    def envelope(x):
        if x <= 1.0:
            return 1.0
        return min(1.0, eps0 / (x**p * math.log2(max(2.0, x))))

    v = conditions.chandra_ghosal_integral(model.TailFunction(fn=envelope), p)
    assert v.fails
    assert "slope" in v.rule


def test_integral_fails_for_power_spike_sequence():
    fx = load("x2m-example")
    v = conditions.chandra_ghosal_integral(fx.cesaro_tail(), fx.p)
    assert v.fails
    assert any("p=0.5 outside" in n for n in v.notes)


def test_integral_consistency_with_finite_moment_distributions():
    # tails with E|X|^p L^p finite must certify convergence
    for p in (0.5, 1.0, 1.5):
        tail = model.tail_of(model.ParetoTail(alpha=3.0))
        v = conditions.chandra_ghosal_integral(tail, p)
        assert v.holds, (p, v.rule)


def test_integral_with_slowly_varying_factor():
    tail = model.tail_of(model.ParetoTail(alpha=3.0))
    v = conditions.chandra_ghosal_integral(tail, 1.0, svf.log_power(1.0))
    assert v.holds


# ---------------------------------------------------------------------------
# series condition
# ---------------------------------------------------------------------------


def test_series_power_spikes_sums_to_zero():
    fx = load("x2m-example")
    v = conditions.exceedance_series(fx.arr, fx.p, N=4096)
    assert v.holds
    assert v.evidence["partial_sum"] == 0.0


def test_series_bounded_cells_zero():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1.0))
    v = conditions.exceedance_series(arr, 1.0, N=1024)
    assert v.holds
    assert v.evidence["partial_sum"] == 0.0


def test_series_rare_spikes_diverges():
    fx = load("example-4.1")
    v = conditions.exceedance_series(fx.arr, fx.p, N=100_000)
    assert v.fails
    # partial sums are the harmonic-log series and keep growing
    assert v.evidence["partial_sum"] > 3.0


def test_series_terms_match_occurrence_rates():
    # P(|X_n|^p > n) = 1/(n log_nu n) for the rare-spike sequence
    fx = load("example-4.1")
    v = conditions.exceedance_series(fx.arr, fx.p, N=64)
    expected = sum(1.0 / (n * svf.log_nu(n, fx.nu)) for n in range(1, 65))
    assert v.evidence["partial_sum"] == pytest.approx(expected, abs=1e-12)


def test_series_requires_sequence_shape():
    fx = load("example-2.1")
    with pytest.raises(NotApplicableError):
        conditions.exceedance_series(fx.arr, fx.p, N=100)


def test_a_condition_that_does_not_apply_is_n_a():
    fx = load("example-2.1")  # grouped rows: no series
    r = conditions.run_condition("series", fx, 64, 100)
    assert r == {"condition": "series", "outcome": "n/a", "expected": None, "match": True,
                 "detail": {"reason": "series condition needs a sequence-shaped array"}}
    # against a pinned expectation n/a is a mismatch
    pinned = dataclasses.replace(fx, expected={**fx.expected, "series": "fails"})
    r = conditions.run_condition("series", pinned, 64, 100)
    assert r["outcome"] == "n/a" and r["expected"] == "fails" and r["match"] is False


def test_only_applicability_errors_become_n_a():
    # any other unusable input still raises: a ratio check past float range
    with pytest.raises(OverflowError):
        conditions.run_condition("b-regularity-wlln", load("example-4.1", p=0.01), 64, 2000)


# ---------------------------------------------------------------------------
# norming-sequence regularity
# ---------------------------------------------------------------------------


def harmonic_exact(n):
    return sum(1.0 / i for i in range(1, n + 1))


@pytest.mark.parametrize("check", [conditions.norming_ratio_bound,
                                   conditions.norming_ratio_bound_sq])
@pytest.mark.parametrize("N", [1, 0, -3])
def test_ratio_bound_needs_two_terms(check, N):
    with pytest.raises(ValueError, match="N >= 2"):
        check(power_norming(0.5), N=N)


def test_ratio_bound_square_norming_is_exactly_one():
    v = conditions.norming_ratio_bound(power_norming(0.5), N=20_000)
    assert v.holds
    assert v.evidence["max_ratio"] == 1.0


def test_ratio_bound_linear_norming_fails_like_harmonic():
    v = conditions.norming_ratio_bound(power_norming(1.0), N=20_000)
    assert v.fails
    # ratio sequence is exactly H_n
    cps = v.evidence["checkpoints"]
    vals = v.evidence["ratio_at_checkpoints"]
    for n, r in zip(cps[:6], vals[:6]):
        assert r == pytest.approx(harmonic_exact(n), abs=1e-12)


def test_ratio_bound_cubic_norming_holds():
    b = power_norming(1.0 / 3.0)  # b_n = n**3
    v = conditions.norming_ratio_bound(b, N=20_000)
    assert v.holds
    assert v.evidence["max_ratio"] <= 1.0 + 1e-12


def test_ratio_sq_linear_holds_exactly():
    v = conditions.norming_ratio_bound_sq(power_norming(1.0), N=20_000)
    assert v.holds
    assert v.evidence["max_ratio"] == 1.0


def test_ratio_sq_sqrt_fails_like_harmonic():
    v = conditions.norming_ratio_bound_sq(power_norming(2.0), N=20_000)
    assert v.fails


def test_ratio_sq_two_thirds_power_approaches_three():
    from scipy.special import zeta

    b = power_norming(1.5)  # b_n = float(n) ** (2/3)
    N = 50_000
    v = conditions.norming_ratio_bound_sq(b, N=N)
    assert v.holds
    # sum i^(-2/3) = 3 n^(1/3) + zeta(2/3) + O(n^(-2/3))
    expected = 3.0 + float(zeta(2.0 / 3.0)) / N ** (1.0 / 3.0)
    assert v.evidence["max_ratio"] == pytest.approx(expected, abs=1e-3)


def test_ratio_bound_holds_implies_norming_outruns_n():
    # square norming passes the ratio bound and n/b_n = 1/n indeed vanishes
    b = power_norming(0.5)
    v = conditions.norming_ratio_bound(b, N=5_000)
    assert v.holds
    seq = [n / float(b(n)) for n in (10, 100, 1000, 5000)]
    assert all(t < s for s, t in zip(seq[:-1], seq[1:]))
    assert seq[-1] < 1e-3


def test_ratio_machinery_rejects_bad_sequences():
    with pytest.raises(ValueError, match="positive"):
        conditions.norming_ratio_bound(explicit_norming([-1.0] * 100), N=100)
    with pytest.raises(ValueError, match="nondecreasing"):
        conditions.norming_ratio_bound(
            explicit_norming([1.0 / n for n in range(1, 101)]), N=100)


# ---------------------------------------------------------------------------
# k * G(b_k) limits
# ---------------------------------------------------------------------------


def test_count_tail_trivial_inverse_law_holds():
    p = 0.5
    tail = lambda x: min(1.0, float(x) ** (-2 * p))
    v = conditions.count_tail_vanishes(model.TailFunction(fn=tail), power_norming(p),
                                       [2**j for j in range(0, 40, 2)])
    assert v.holds
    assert "below" in v.rule


def test_count_tail_counterexample_fails_exactly():
    fx = load("wlln-counterexample")
    v = conditions.count_tail_vanishes(
        model.TailFunction(fn=fx.weights.closed_weighted_sup), fx.b, [2**j for j in range(0, 41)]
    )
    assert v.fails
    assert v.evidence["values"] == [float(2**j) for j in range(0, 41)]


def test_count_tail_power_spikes_holds_via_eps_gate():
    fx = load("x2m-example")
    v = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, fx.kg_grid)
    assert v.holds
    assert "below" in v.rule  # the exact integer grid really crosses eps
    assert v.value < 1e-3


def test_count_tail_stops_where_the_norming_leaves_float_range():
    fx = load("x2m-example", p=1.5)  # b_k = k^(2/3): float(k) overflows past 2^1023
    v = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, fx.kg_grid)
    assert v.evidence["grid_stop"] == 2**1030
    assert v.evidence["k_grid"] == [2**j for j in range(0, 1030, 10)]
    assert len(v.evidence["values"]) == 103 and v.value == v.evidence["values"][-1]
    assert v.holds
    assert "grid_stop" not in conditions.count_tail_vanishes(
        load("x2m-example").cesaro_tail(), load("x2m-example").b, fx.kg_grid).evidence


@pytest.mark.parametrize("name", ["kG", "kG-hat"])
def test_count_tail_reports_name_the_grid_stop(name):
    # at 1/p = 2^16, b_k = k^(2^16) leaves float range from k = 2^16; the
    # report says so instead of only "no decay or growth certificate fired"
    far = conditions.run_condition(name, load("x2m-example", p=2.0**-16), 64, 64)
    assert far["outcome"] == "inconclusive"
    assert far["detail"]["grid_stop"] == 2**40
    near = conditions.run_condition(name, load("x2m-example"), 64, 64)
    assert "grid_stop" not in near["detail"]
    assert set(near["detail"]) == {"rule", "last_value"}


def test_count_tail_slow_decay_certified_by_slope():
    fx = load("wlln-counterexample")
    grid = tuple(2**j for j in range(0, 501, 5))
    v = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, grid)
    assert v.holds
    assert "power-law" in v.rule


def test_limit_of_an_infinite_last_value_fails():
    # inf - inf is NaN, so the growth gate never fires on an all-inf grid
    assert conditions.limit_verdict([math.inf] * 8) == ("fails", "the last grid value is infinite")


def test_count_tail_constant_sequence_fails():
    tail = lambda x: min(1.0, 1.0 / float(x))  # k * G(k) = 1 forever
    v = conditions.count_tail_vanishes(model.TailFunction(fn=tail), power_norming(1.0),
                                       [2**j for j in range(0, 30)])
    assert v.fails


def test_kg_hat_equals_kg_under_uniform_weights():
    # uniform weights make the weighted sup the Cesaro sup, exact values included
    for name in ("x2m-example", "example-4.1"):
        fx = load(name)
        kg, kg_hat = (conditions.run_condition(c, fx, 300, 1000) for c in ("kG", "kG-hat"))
        assert (kg_hat["outcome"], kg_hat["detail"]) == (kg["outcome"], kg["detail"]), name


def test_verdicts_are_deterministic():
    fx = load("x2m-example")
    a = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, fx.kg_grid)
    b = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, fx.kg_grid)
    assert a == b


def test_verdict_serialization():
    import json

    v = conditions.norming_ratio_bound(power_norming(0.5), N=1000)
    assert json.loads(json.dumps(v.to_json_obj()))["verdict"] == "holds"
