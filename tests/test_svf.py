import math

import pytest

from llnlab import svf


# ---------------------------------------------------------------------------
# iterated clamped logs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,nu,expected",
    [
        (1.0, 1, 1.0),          # clamp: log2(max(2,1)) = 1
        (16.0, 2, 8.0),         # 4 * 2
        (2.0**16, 3, 128.0),    # 16 * 4 * 2
        (0.0, 4, 1.0),
        (2.0, 5, 1.0),
    ],
)
def test_log_nu(x, nu, expected):
    assert svf.log_nu(x, nu) == expected


def test_log_nu_rejects_bad_nu():
    with pytest.raises(ValueError):
        svf.log_nu(4.0, 0)


@pytest.mark.parametrize("x", [0.5, 3.0, 17.0, 2.0**1000, 1e308])
def test_log_chains_stop_at_the_clamp(x):
    # every factor after the first clamped 1.0 is 1.0, so a huge nu gives the
    # bits of nu = 8 (at most 6 factors are above 1.0 for any float) at once
    big = 10**9
    assert svf.log_nu(x, big) == svf.log_nu(x, 8)


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------


def test_conjugate_residual_constant_is_zero():
    assert svf.conjugate_residual(svf.constant_one(), [1.0, 100.0, 2.0**50]) == [
        0.0,
        0.0,
        0.0,
    ]


def test_conjugate_residual_log_power_values():
    L = svf.log_power(1.0)
    r20 = svf.conjugate_residual(L, [2.0**20])[0]
    r400 = svf.conjugate_residual(L, [2.0**400])[0]
    # direct evaluation: residual = log2 log2 x / (log2 x + log2 log2 x)
    def direct(k):
        return math.log2(k) / (k + math.log2(k))

    assert r20 == pytest.approx(direct(20), rel=1e-12)
    assert r400 == pytest.approx(direct(400), rel=1e-12)
    assert r20 < 0.25
    assert r400 < 0.03
    assert r400 < r20


@pytest.mark.parametrize(
    "spec",
    [svf.log_power(1.0), svf.log_power(-0.5), svf.loglog_power(1.0), svf.constant_one()],
)
def test_conjugate_residual_eventually_decreasing(spec):
    xs = [2.0**k for k in range(10, 61, 5)]
    res = svf.conjugate_residual(spec, xs)
    tail = res[2:]
    assert all(b <= a + 1e-15 for a, b in zip(tail[:-1], tail[1:]))


# ---------------------------------------------------------------------------
# slow variation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        svf.constant_one(),
        svf.log_power(0.5),
        svf.log_power(-0.5),
        svf.loglog_power(1.0),
        svf.loglog_power(-1.0),
    ],
)
@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_slow_variation_ratio(spec, lam):
    devs = [abs(spec.eval(lam * 2.0**k) / spec.eval(2.0**k) - 1.0) for k in range(10, 61)]
    assert devs[-1] < 0.05
    assert devs[-1] <= devs[0] + 1e-15
