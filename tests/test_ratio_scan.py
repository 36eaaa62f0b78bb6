"""The chunked norming-ratio scan against the whole-array computation it replaced.

``reference_ratio_verdict`` below is that computation: every b_n, every ratio
r_n and their running sum held at once, the verdict read off the arrays with
``np.max``, ``np.argmax`` and ``np.diff``.  The scan in
``conditions._ratio_scan`` must give the same ``to_json_obj()`` bytes (NaN
included, so the objects are compared as JSON text) and raise the same
exception, at chunk edges, at the split n = N//2 + 1 and past float range.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llnlab import conditions
from llnlab.conditions import ConditionVerdict
from llnlab.errors import RowRangeError
from llnlab.fixtures import FIXTURE_NAMES, load
from llnlab.model import explicit_norming, power_norming
from llnlab.svf import log_power

CHUNK = conditions.SERIES_CHUNK


# ---------------------------------------------------------------------------
# the whole-array reference
# ---------------------------------------------------------------------------


def reference_ratio_sequence(b, N, *, squared):
    if N < 2:
        raise ValueError(f"norming-ratio check needs N >= 2, got {N}")
    idx = np.arange(1, N + 1, dtype=float)
    bv = b.floats(1, N)
    if np.any(bv <= 0.0):
        raise ValueError("normalizing sequence must be positive")
    if np.any(np.diff(bv) < 0.0):
        raise ValueError("normalizing sequence must be nondecreasing")
    if squared:  # a finite b_n past sqrt(max float) squares to inf
        big = np.flatnonzero(np.isfinite(bv) & (bv > math.sqrt(sys.float_info.max)))
        if big.size:
            raise OverflowError(f"b_n^2 is past the largest float from n = {big[0] + 1}")
    top = bv**2 if squared else bv
    csum = np.cumsum(top / idx**2)
    denom = top / idx
    return csum / denom


def reference_ratio_verdict(name, ratio, N):
    half = N // 2
    first_max = float(ratio[:half].max())
    last_max = float(ratio[half:].max())
    plateaued = last_max <= first_max * 1.01
    tail = ratio[half:]
    diffs = np.diff(tail)
    monotone_growth = bool(np.all(diffs >= -1e-12 * np.maximum(1.0, np.abs(tail[:-1]))))
    if plateaued:
        verdict, rule = "holds", "last-half ratio max within 1% of first-half max"
    elif monotone_growth and last_max > first_max * 1.01:
        verdict, rule = "fails", "ratio grows monotonically over the last half"
    else:
        verdict, rule = "inconclusive", "ratio neither plateaued nor monotone growing"
    sub = np.unique(np.geomspace(1, N, num=min(64, N)).astype(int))
    return ConditionVerdict(
        name=name,
        verdict=verdict,
        rule=rule,
        value=float(ratio.max()),
        evidence={
            "N": N,
            "max_ratio": float(ratio.max()),
            "argmax": int(np.argmax(ratio)) + 1,
            "first_half_max": first_max,
            "last_half_max": last_max,
            "checkpoints": sub.tolist(),
            "ratio_at_checkpoints": ratio[sub - 1].tolist(),
        },
    )


FLAVOURS = {
    "wlln": (conditions.norming_ratio_bound, "norming-ratio", False),
    "l2": (conditions.norming_ratio_bound_sq, "norming-ratio-sq", True),
}


def outcome(fn, *args):
    """The JSON text of a verdict, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return json.dumps(fn(*args).to_json_obj())
    except (ValueError, OverflowError, RowRangeError) as exc:
        return type(exc), str(exc)


def assert_scan_equals_reference(b, N, flavour):
    check, name, squared = FLAVOURS[flavour]
    got = outcome(check, b, N)
    want = outcome(lambda b, N: reference_ratio_verdict(
        name, reference_ratio_sequence(b, N, squared=squared), N), b, N)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------


EDGE_NS = [2, 3, CHUNK - 1, CHUNK, CHUNK + 1,
           2 * CHUNK, 2 * CHUNK + 1,  # N//2 = CHUNK: the split on a chunk edge
           2 * CHUNK - 2, 2 * CHUNK + 2,  # N//2 one either side of it
           100_000]

NORMINGS = {
    "p-1/2": power_norming(0.5),  # every fixture's default b: the int64 path
    "p-1": power_norming(1.0),
    "p-0.7": power_norming(0.7),  # a non-integral 1/p: float_powers
    "p-1.5": power_norming(1.5),
    "p-1/3": power_norming(1.0 / 3.0),  # past 2^53 from n = 208,064: scalar ints
    "log-power": power_norming(0.7, log_power(-1.5).conjugate()),
}


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("N", EDGE_NS)
@pytest.mark.parametrize("norming", list(NORMINGS))
def test_scan_equals_the_whole_array_verdict(norming, N, flavour):
    assert_scan_equals_reference(NORMINGS[norming], N, flavour)


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_fixture_b_equals_the_whole_array_verdict(name, flavour):
    for p in (None, 0.7, 1.0):
        assert_scan_equals_reference(load(name, p=p).b, 100_000, flavour)


def test_x2m_overflowing_square_raises_naming_its_first_n():
    # b_n = n^32: b_n^2 is inf from n = 2^16 on; the scan raises there rather
    # than read the NaN ratios inf/inf as data, and squares nothing past it
    b = load("x2m-example", p=1.0 / 32.0).b
    with np.errstate(all="raise"):
        with pytest.raises(OverflowError, match="from n = 65536$"):
            conditions.norming_ratio_bound_sq(b, 100_000)
    got = assert_scan_equals_reference(b, 100_000, "l2")
    assert got == (OverflowError, "b_n^2 is past the largest float from n = 65536")
    assert assert_scan_equals_reference(b, 65_535, "l2")[0] != OverflowError
    assert json.loads(assert_scan_equals_reference(b, 100_000, "wlln"))["verdict"] == "holds"


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("values", [
    [-1.0] * 100,
    [1.0 / n for n in range(1, 101)],
    [1.0] * 50 + [0.0] + [2.0] * 49,  # a zero inside
    [float(n) for n in range(1, 51)] + [1.0] + [float(n) for n in range(52, 101)],
    [3.0, 2.0] + [float(n) for n in range(3, 99)] + [-1.0, 100.0],  # both: positivity first
], ids=["negative", "decreasing", "zero", "dip", "dip-then-negative"])
def test_bad_explicit_sequences_raise_as_the_whole_array(values, flavour, monkeypatch):
    for chunk in (CHUNK, 7):
        monkeypatch.setattr(conditions, "SERIES_CHUNK", chunk)
        got = assert_scan_equals_reference(explicit_norming(values), 100, flavour)
        assert got[0] is ValueError
        # past the declared table the table's error comes first, as in a whole read
        got = assert_scan_equals_reference(explicit_norming(values), 101, flavour)
        assert got[0] is RowRangeError


def test_past_float_range_raises_as_the_whole_array():
    # b_n = n^100 leaves float range past n = 1202
    for flavour in FLAVOURS:
        assert assert_scan_equals_reference(power_norming(0.01), 2000, flavour)[0] \
            is OverflowError


@given(
    steps=st.lists(st.one_of(st.floats(0.0, 4.0), st.just(0.0), st.just(math.inf)),
                   min_size=1, max_size=80),
    start=st.floats(1e-3, 1e3),
    chunk=st.integers(1, 9),
    flavour=st.sampled_from(list(FLAVOURS)),
)
@settings(max_examples=150, deadline=None)
def test_short_chunks_equal_the_whole_array(steps, start, chunk, flavour):
    # nondecreasing sequences with flat runs and inf steps (inf/inf ratios are NaN),
    # read in chunks of 1..9 so every edge case of the carried state comes up
    values = [start]
    for s in steps:
        values.append(values[-1] + s)
    b = explicit_norming(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "SERIES_CHUNK", chunk)
        for N in {2, 3, len(values) // 2, len(values)} - {0, 1}:
            assert_scan_equals_reference(b, N, flavour)


def test_b_is_read_a_chunk_at_a_time():
    # the scan asks b for chunks only: never more than SERIES_CHUNK values at once
    b = power_norming(1.0)
    widths = []

    def floats(lo, hi):
        widths.append(hi - lo + 1)
        return b.floats(lo, hi)

    spy = type(b)(fn=b.fn, floats=floats)
    v = conditions.norming_ratio_bound_sq(spy, N=10 * CHUNK + 5)
    assert v.holds and max(widths) <= CHUNK and sum(widths) == 10 * CHUNK + 5
