"""The column kernel's certified integer walks against exact arithmetic.

A run of full 64-cell blocks of +-1 cells is summed from each replication's
walk statistics (end, prefix maximum, prefix minimum, read from 16-bit
tables) and certified by Knuth's TwoSum before its float adds are skipped.
These tests check the statistics against a plain cumsum, the exactness test
and the certificate against ``fractions.Fraction``, and the kernel's bytes
against the row kernel's where runs must fall back to the float adds.  The
column kernel folds a row's weights into its magnitudes, s (c m) for the row
kernel's c (s m), so a weighted block whose c m are all 1 walks too.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from llnlab import model, simulate
from llnlab.fixtures import load
from llnlab.model import RowSampler, power_norming
from llnlab.simulate import SimPlan

TOP = 2.0**52


def _representable(x: Fraction) -> bool:
    return Fraction(float(x)) == x  # float() of a Fraction rounds to nearest


def _carries() -> list[float]:
    """Edge carries, then random ones from 2^-3 to 2^54 with and without a fraction."""
    edge = [0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, 2.5, -7.0, TOP - 1.0, -(TOP - 1.0),
            TOP - 2.0, -(TOP - 2.0), TOP - 0.5, -(TOP - 0.5), TOP, -TOP,
            2.0**53 - 2.0, -(2.0**53 - 2.0), 2.0**53, 1e300]
    edge += [s * (TOP + t) for s in (1.0, -1.0) for t in (-3.0, -1.0, 1.0, 2.0, 3.0)]
    # the top of a binade, with a fraction: the next integer step leaves it
    edge += [s * float(np.nextafter(2.0**e, 0.0)) for s in (1.0, -1.0) for e in (1, 4, 10, 30, 52)]
    rng = np.random.default_rng(2026)
    scale = np.ldexp(1.0, rng.integers(-3, 55, size=200))
    mixed = rng.random(200) * scale
    whole = np.floor(mixed[:100])
    return edge + (mixed * rng.choice([-1.0, 1.0], size=200)).tolist() + whole.tolist()


def test_exact_is_the_exact_sum():
    # TwoSum's error is 0 exactly when the float sum of a carry and an integer
    # is the rational sum; an inf or NaN carry is never exact
    steps = [0.0, 1.0, -1.0, 2.0, -3.0, 64.0, -64.0, 511.0, -512.0]
    carries = _carries()
    a = np.repeat(carries, len(steps))
    b = np.tile(steps, len(carries))
    s = a + b
    want = [bool(np.isfinite(x)) and Fraction(x) == Fraction(p) + Fraction(q)
            for p, q, x in zip(a.tolist(), b.tolist(), s.tolist())]
    assert simulate._exact(a, b, s).tolist() == want
    t = np.array([0.0, 1.0, -5.0])
    for bad in (np.inf, -np.inf, np.nan):
        x = np.full(3, bad)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in the kernel
            assert not simulate._exact(x, t, x + t).any()


def _ranges() -> list[tuple[int, int]]:
    """(minimum, maximum) of walks of 1 to 512 steps: the maximum is at least -1 and
    the minimum at most 1, one of them reached at the first step."""
    return [(-1, 1), (1, 1), (-1, -1), (-1, 4), (-4, 1), (-3, 3), (0, 2), (-2, 0),
            (-20, 7), (-512, -1), (1, 512), (-100, 300)]


def test_certificate_is_exact_ends_within_two_to_the_52():
    carries = _carries()
    cases = [(c, lo, hi) for c in carries for lo, hi in _ranges()]
    carry = np.array([c for c, _, _ in cases])
    bottom = np.array([lo for _, lo, _ in cases], dtype=np.int16)
    top = np.array([hi for _, _, hi in cases], dtype=np.int16)
    peak, ok = simulate._certified(carry.copy(), top, bottom)
    for (c, lo, hi), p, got in zip(cases, peak.tolist(), ok.tolist()):
        ends = [Fraction(c) + t for t in (lo, hi)]
        want = all(_representable(x) and abs(x) <= TOP for x in ends)
        assert got == want, (c, lo, hi)
        if got:
            assert Fraction(p) == max(abs(x) for x in ends), (c, lo, hi)
            # sound: every sum the walk passes through is a float, so each add is exact
            assert all(_representable(Fraction(c) + t) for t in range(lo, hi + 1)), (c, lo, hi)


@pytest.mark.parametrize("carry, bottom, top", [
    # both ends are floats (2^53 - 3 and 2^53 + 2), but 2^53 + 1 between them is not
    (2.0**53 - 2.0, -1, 4),
    (-(2.0**53 - 2.0), -4, 1),
    # the upper end -(2^52 - 3.5) is a float, the lower end -(2^52 + 2.5) is not
    (-(TOP - 0.5), -3, 3),
    # and the other way round
    (TOP - 0.5, -3, 3),
    # a fraction at the top of a binade: the outward end leaves it, far below 2^52
    (-(2.0**30 - 2.0**-23), -1, 1),
    (2.0**30 - 2.0**-23, -1, 1),
])
def test_a_walk_with_an_inexact_step_is_refused(carry, bottom, top):
    steps = [Fraction(carry) + t for t in range(bottom, top + 1)]
    assert not all(_representable(x) for x in steps)
    _, ok = simulate._certified(np.array([carry]), np.array([top], dtype=np.int16),
                                np.array([bottom], dtype=np.int16))
    assert not ok[0]


def test_zero_and_nonfinite_carries():
    carry = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    top = np.array([3, 1, 1, 1, 1], dtype=np.int16)
    bottom = np.array([-5, -1, -1, -1, -1], dtype=np.int16)
    with np.errstate(invalid="ignore"):
        peak, ok = simulate._certified(carry, top, bottom)
    assert ok.tolist() == [True, True, False, False, False]
    assert peak[:2].tolist() == [5.0, 1.0]


def _walk(words: np.ndarray):
    """(end, maximum, minimum) of each replication's walk, by cumsum of its +-1 steps."""
    octets = np.ascontiguousarray(words.T).view(np.uint8)
    walk = np.cumsum(model.fair_signs(octets, 1, 64 * len(words)), axis=1, dtype=np.int64)
    return walk[:, -1], walk.max(axis=1), walk.min(axis=1)


@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8])
def test_walk_stats_are_the_walk_of_the_sign_bits(blocks):
    # words (block, replication), each bit a step in fair_signs' order: bit i of
    # a word is step i + 1, +1 for a set bit
    rng = np.random.default_rng(blocks)
    special = np.array([0, 2**64 - 1, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 1, 1 << 63,
                        0x00000000FFFFFFFF, 0xFFFFFFFF00000000, 0x0F0F0F0F0F0F0F0F,
                        0x8000000000000001], dtype=np.uint64)
    words = rng.integers(0, 2**64 - 1, size=(blocks, 300), dtype=np.uint64, endpoint=True)
    words[:, :len(special)] = special  # one word in every block
    words[:, len(special):2 * len(special)] = np.roll(special, 3)
    words[-1, -len(special):] = special  # one word in the last block
    words = words.view("<u8")
    got = simulate._walk_stats(words, np.empty((64, words.shape[1])))
    for g, w in zip(got, _walk(words)):
        assert g.tolist() == w.tolist()


def test_walk_table_is_built_on_first_use():
    code = ("import llnlab.cli; from llnlab import simulate; "
            "assert simulate._walk_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# the kernel's bytes where runs must fall back
# ---------------------------------------------------------------------------


def _headed_array(head: float):
    """A sure cell of magnitude ``head``, then +-1 cells."""
    return model.sequence_array(
        lambda i: model.SymmetricTwoPoint(head if i == 1 else 1.0))


def _certificates(monkeypatch) -> list:
    """Record each run's certified mask."""
    seen, inner = [], simulate._certified

    def spy(carry, top, bottom):
        peak, ok = inner(carry, top, bottom)
        seen.append(ok.copy())
        return peak, ok

    monkeypatch.setattr(simulate, "_certified", spy)
    return seen


@pytest.mark.parametrize("head", [1.0 / 3.0, TOP - 2.0, TOP - 0.5, 2.0**53 - 2.0])
def test_runs_that_fall_back_give_the_row_kernel_bytes(monkeypatch, head):
    # from a carry of +-1/3 the first run's adds round; near +-2^52 the runs
    # past it are refused, and past 2^53 every run is, where odd sums round
    rows, reps = (64, 130, 700, 1500), 40
    plan = SimPlan(arr=_headed_array(head), b=power_norming(1.0), rows=rows, reps=reps, seed=11)
    ends = np.array([64, 200, 700, 1000, 1500])

    def maxima():
        wlln = simulate._Spans(plan, rows)
        path = simulate._Spans(plan, (rows[-1],), ends=ends)
        return [wlln(i, 0, reps).tobytes() for i in range(len(rows))] + [path(0, 0, reps).tobytes()]

    by_row = maxima()  # 40 replications: the row kernel
    seen = _certificates(monkeypatch)
    monkeypatch.setattr(simulate, "COLUMN_REPS", 1)
    assert maxima() == by_row
    refused = sum(int((~ok).sum()) for ok in seen)
    assert refused > 0
    if head > 2.0**53 - 4.0:
        assert not any(ok.any() for ok in seen)


# ---------------------------------------------------------------------------
# the fast path runs
# ---------------------------------------------------------------------------


def _run_blocks(monkeypatch) -> list:
    """Record the blocks of each run the column kernel sums as an integer walk."""
    blocks, inner = [], simulate._walk_run

    def spy(words, *args):
        blocks.append(len(words))
        return inner(words, *args)

    monkeypatch.setattr(simulate, "_walk_run", spy)
    return blocks


def _unit_blocks(arr, n: int) -> int:
    """The full 64-cell blocks of row n whose cells are all +-1."""
    mag = RowSampler(arr, n).sure_mag
    return sum(bool((mag[c:c + 64] == 1.0).all()) for c in range(0, len(mag) - 63, 64))


def test_most_runs_of_x2m_example_are_certified(monkeypatch):
    # rows 2^10..2^12 at 256 replications: one group per row, every full block
    # without a spike summed in runs, and at least 90% of (run, replication)
    # certificates granted
    fx = load("x2m-example", p=1.0)
    rows = (1024, 2048, 4096)
    seen, blocks = _certificates(monkeypatch), _run_blocks(monkeypatch)
    simulate.wlln_estimate(SimPlan(arr=fx.arr, b=fx.b, rows=rows, reps=256, seed=3))
    assert sum(blocks) == sum(_unit_blocks(fx.arr, n) for n in rows)
    assert max(blocks) == simulate.RUN_BLOCKS
    granted = sum(int(ok.sum()) for ok in seen)
    total = sum(ok.size for ok in seen)
    assert total == 256 * len(blocks)
    assert granted >= 0.9 * total


def test_weighted_rows_and_spike_blocks_run_no_walk(monkeypatch):
    # wlln-counterexample's weights (0 but n on a row's last cell, so no
    # weighted magnitude is 1), and a row with a spike in every block, leave
    # every block to the float adds
    ran = []
    inner = simulate._Spans._columns

    def columns(self, n, *args):
        ran.append(n)
        return inner(self, n, *args)

    monkeypatch.setattr(simulate._Spans, "_columns", columns)
    blocks = _run_blocks(monkeypatch)
    cex = load("wlln-counterexample")
    simulate.wlln_estimate(SimPlan(arr=cex.arr, b=cex.b, rows=(1024,), reps=256, seed=3,
                                   c=cex.c_fn))
    spiky = model.sequence_array(lambda i: model.SymmetricTwoPoint(2.0 if i % 64 == 7 else 1.0))
    simulate.wlln_estimate(SimPlan(arr=spiky, b=power_norming(1.0), rows=(1024,), reps=256))
    assert ran == [1024, 1024]
    assert blocks == []


# ---------------------------------------------------------------------------
# weights folded into the magnitudes
# ---------------------------------------------------------------------------

FOLD_VALUES = [0.0, 5e-324, 1e-308, 0.5, 1.0, 3.0, 1e308, np.inf, np.nan]


def test_a_sign_times_the_weighted_magnitude_is_the_weighted_signed_magnitude():
    # c (s m) and s (c m) are the same float for s = +-1, since a sign flip is
    # exact and rounding to nearest is symmetric: checked on signed zeros,
    # subnormals, overflow to inf, 0 * inf and NaN (NaNs compared as NaNs)
    values = FOLD_VALUES + [-v for v in FOLD_VALUES]
    c, m = (np.array(x) for x in zip(*[(c, m) for c in values for m in values]))
    for s in (-1.0, 1.0):
        with np.errstate(over="ignore", invalid="ignore"):
            row, column = c * (s * m), s * (c * m)
        nan = np.isnan(row)
        assert (np.isnan(column) == nan).all()
        assert (row[~nan].view(np.uint64) == column[~nan].view(np.uint64)).all(), s


def test_weights_that_cancel_the_magnitudes_run_certified_walks(monkeypatch):
    # magnitudes 2^j and weights 2^-j: every c m is 1, so each whole 64-cell
    # block of rows of 128 and 640 cells walks, certified from a carry of 0,
    # and the column kernel writes the row kernel's maxima bytes
    power = lambda i: 2.0 ** (i % 7 - 3)
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(power(i)))
    rows, reps = (128, 640), 40
    plan = SimPlan(arr=arr, b=power_norming(1.0), rows=rows, reps=reps, seed=13,
                   c=lambda n, i: 1.0 / power(i))
    by_row = [simulate._Spans(plan, rows)(i, 0, reps).tobytes() for i in range(len(rows))]
    seen, blocks = _certificates(monkeypatch), _run_blocks(monkeypatch)
    monkeypatch.setattr(simulate, "COLUMN_REPS", 1)
    assert [simulate._Spans(plan, rows)(i, 0, reps).tobytes()
            for i in range(len(rows))] == by_row
    assert sum(blocks) == sum(rows) // 64
    assert all(ok.all() for ok in seen)
