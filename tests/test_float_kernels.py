"""Array kernels behind verify-fixtures against the scalar loops they replace.

Each kernel must give the bytes of its scalar reference, compared with
``==``: a last-bit difference (numpy's ``np.power`` and ``np.log2`` differ
from Python's ``**`` and ``math.log2`` for some integers) fails here.

* ``model.float_powers``: float(n) ** inv over a range of n.
* ``NormalizingSequence.floats``: float(b(n)) for n = 1..N (``floats(1, N)``), for
  ``power_norming`` with and without a slowly varying conjugate and for
  ``explicit_norming``.
* example-4.1's formula ``cell_steps``: the paper's scalar cell expression.
* ``svf.log_nu_at`` and ``MomentFunction.at``: ``log_nu`` and
  ``MomentFunction.eval`` at each element.
* ``WeightScheme.c0``: the per-row ``range_sum(n, 1, k)`` loop, rows with no cells
  included.  A fixture's
  ``closed_c0`` is that loop's answer at every scan top, and a scheme without
  one sizes the loop before its first row.
"""

import dataclasses
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llnlab import model, specio
from llnlab.errors import RowRangeError
from llnlab.fixtures import load
from llnlab.moments import MomentFunction
from llnlab.svf import constant_one, log_nu, log_nu_at, log_power, loglog_power

PS = (0.5, 1.0, 0.7, 1.5, 1.0 / 3.0)
TOP = 200_000  # np.power differs from ** on 10,436 of 1..TOP at 1/p = 2/3


def scalar_powers(lo, hi, inv):
    return [float(n) ** inv for n in range(lo, hi + 1)]


@pytest.mark.parametrize("p", PS)
def test_float_powers_equal_the_scalar_power(p):
    inv = 1.0 / p
    got = model.float_powers(1, TOP, inv)
    assert got.dtype == np.float64 and got.tolist() == scalar_powers(1, TOP, inv)


@pytest.mark.parametrize("inv", [1.0, 2.0, 1.0 / 0.7])
@pytest.mark.parametrize("lo,hi", [
    (model.EXACT_SQUARES - 9, model.EXACT_SQUARES - 1),  # all below: array arithmetic
    (model.EXACT_SQUARES - 4, model.EXACT_SQUARES + 4),  # across: the scalar power
    (model.EXACT_SQUARES, model.EXACT_SQUARES + 9),
    (2**53 - 3, 2**53 + 3),  # float(n) rounds here
    (7, 6),  # empty
])
def test_float_powers_on_both_sides_of_the_exact_range(inv, lo, hi):
    assert model.float_powers(lo, hi, inv).tolist() == scalar_powers(lo, hi, inv)


def test_float_powers_overflow_raises_as_the_scalar_power():
    # a vector power would give inf; the scalar ** raises, and the CLI exits 2 on it
    with pytest.raises(OverflowError):
        float(2000) ** 100.0
    with pytest.raises(OverflowError):
        model.float_powers(1000, 2000, 100.0)


def scalar_floats(b, N):
    return [float(b(n)) for n in range(1, N + 1)]


@pytest.mark.parametrize("conj", [None, log_power(-1.5).conjugate(),
                                  loglog_power(2.0).conjugate()],
                         ids=["none", "log-power", "loglog-power"])
@pytest.mark.parametrize("p", PS)
def test_power_norming_floats_equal_the_scalar_values(p, conj):
    b = model.power_norming(p, conj)
    N = 50_000
    got = b.floats(1, N)
    assert got.dtype == np.float64 and got.tolist() == scalar_floats(b, N)


def test_power_norming_constant_conjugate_is_the_trivial_one():
    for p in PS:
        b, ref = model.power_norming(p, constant_one()), model.power_norming(p)
        assert b.floats(1, 5000).tolist() == ref.floats(1, 5000).tolist() \
            == scalar_floats(ref, 5000)


# n^3 < 2^53 up to n = 208,063: the int path's array power is exact up to there
CUBE_EDGE = 208_063


@pytest.mark.parametrize("N", [CUBE_EDGE, CUBE_EDGE + 1])
def test_int_norming_floats_on_both_sides_of_2_to_the_53(N):
    assert CUBE_EDGE**3 < 2**53 <= (CUBE_EDGE + 1) ** 3
    b = model.power_norming(1.0 / 3.0)
    assert b(N) == N**3  # the exact-int path
    assert b.floats(1, N).tolist() == scalar_floats(b, N)


def test_int_norming_past_float_range_raises_as_the_scalar_values():
    b = model.power_norming(0.01)  # b_n = n^100 leaves float range past n = 1202
    with pytest.raises(OverflowError):
        scalar_floats(b, 2000)
    with pytest.raises(OverflowError):
        b.floats(1, 2000)


def test_explicit_norming_floats():
    vals = [0.5 * k + 1.0 / 3.0 for k in range(1, 101)]
    b = model.explicit_norming(vals)
    for N in (1, 57, 100):
        assert b.floats(1, N).tolist() == scalar_floats(b, N)
    with pytest.raises(RowRangeError) as scalar:
        scalar_floats(b, 101)
    with pytest.raises(RowRangeError, match=re.escape(str(scalar.value))):
        b.floats(1, 101)


@pytest.mark.parametrize("b", [
    model.power_norming(0.5),  # int64 powers
    model.power_norming(1.0 / 3.0),  # int64 powers below CUBE_EDGE, scalar ints above
    model.power_norming(0.7),
    model.power_norming(0.7, log_power(-1.5).conjugate()),
    model.explicit_norming([0.5 * k + 1.0 / 3.0 for k in range(1, CUBE_EDGE + 10)]),
], ids=["int", "int-across-2^53", "float", "log-power", "explicit"])
def test_norming_floats_of_a_run_are_the_scalar_values(b):
    for lo, hi in ((1, 1), (2, 9), (CUBE_EDGE - 5, CUBE_EDGE + 5)):
        assert b.floats(lo, hi).tolist() == [float(b(n)) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# example-4.1's formula
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 0.7, 1.5])
def test_example_41_formula_equals_the_scalar_cells(p, nu):
    # np.log2 differs from math.log2 on 21 of the integers 1..2*10^5
    inv = 1.0 / p
    mags, probs = load("example-4.1", p=p, nu=nu).arr.cell_steps(1, TOP)
    assert mags.dtype == probs.dtype == np.float64
    assert mags.tolist() == [float(i + 1) ** inv for i in range(1, TOP + 1)]
    assert probs.tolist() == [1.0 / (i * log_nu(i, nu)) for i in range(1, TOP + 1)]


# ---------------------------------------------------------------------------
# Moment factors: log_nu_at and MomentFunction.at
# ---------------------------------------------------------------------------


def moment_points():
    """1..TOP, the log_nu kinks and the floats beside them, 0.0, a negative
    point, and points past 2^53 (where float(n) rounds)."""
    kinks = [v for k in (2.0, 4.0, 16.0, 65536.0)
             for v in (math.nextafter(k, 0.0), k, math.nextafter(k, math.inf))]
    far = [float(2**53 + d) for d in (-2, -1, 0, 1, 2, 3)] + [2.0**60 + 2.0**8, 2.0**100]
    return np.array([*range(1, TOP + 1), *kinks, 0.0, -3.5, *far], dtype=float)


MOMENT_XS = moment_points()


@pytest.mark.parametrize("nu", [1, 2, 3, 5])
def test_log_nu_at_equals_the_scalar_log_nu(nu):
    xs = MOMENT_XS
    got = log_nu_at(xs, nu)
    assert got.dtype == np.float64
    assert got.tolist() == [log_nu(x, nu) for x in xs.tolist()]
    assert log_nu_at(xs[:0], nu).tolist() == []


def test_log_nu_at_refuses_nu_below_one():
    with pytest.raises(ValueError, match="nu must be a positive integer"):
        log_nu_at(MOMENT_XS, 0)


@pytest.mark.parametrize("nu", [None, 1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 1.5])
def test_moment_function_at_equals_eval(p, nu):
    # np.log2 differs from math.log2, and np.power from **, on some of these points
    g = MomentFunction(power=p, log_factor_nu=nu)
    got = g.at(MOMENT_XS)
    assert got.dtype == np.float64
    assert got.tolist() == [g.eval(x) for x in MOMENT_XS.tolist()]


def test_moment_function_at_overflow_raises_as_eval():
    g = MomentFunction(power=1.5)
    with pytest.raises(OverflowError):
        g.eval(1e300)
    with pytest.raises(OverflowError):
        g.at(np.array([2.0, 1e300]))


# ---------------------------------------------------------------------------
# C0
# ---------------------------------------------------------------------------


def ref_c0(w, n_sup):
    """The per-row loop C0 ran before: each row's ``range_sum`` over the scan."""
    sums = [w.range_sum(n, 1, w.row_length(n))
            for n in range(1, model.scan_top(n_sup, w.n_max) + 1)]
    best_n = int(np.argmax(sums)) + 1 if sums else 0
    best = sums[best_n - 1] if sums else -math.inf
    if not (best > 0.0 and math.isfinite(best)):
        raise ValueError(f"row-sum sup {best} violates C0 in (0, inf)")
    return best, best_n


def _schemes():
    def a_fn(n, i):
        return 1.0 / (i * (n % 7 + 1)) + 1.0 / (n * n)

    def range_sum(n, lo, hi):
        return math.fsum(a_fn(n, i) for i in range(lo, hi + 1))

    # a c-normalized spec of 500 rows (k_n = n), c(n, i) = 1 + (i mod 3), normalised at
    # load; the spec format has no shorter rows, so those read each row's first k_n weights
    full = [(n, i) for n in range(1, 501) for i in range(1, n + 1)]
    c_normalized = specio.load_spec_obj({
        "rows": {"k": "n"},
        "cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}} for n, i in full],
        "weights": {"kind": "c-normalized",
                    "values": [{"n": n, "i": i, "c": 1.0 + (i % 3)} for n, i in full]},
    }).weights.range_sum_fn

    lengths = {"n": lambda n: n, "n-5": lambda n: max(n - 5, 0), "empty": lambda n: 0}
    for name, k in lengths.items():
        # a spec's explicit table: one weight per cell, a range summed by math.fsum
        table = {(n, i): a_fn(n, i) for n in range(1, 501) for i in range(1, k(n) + 1)}

        def table_sum(n, lo, hi, table=table):
            return math.fsum(table[n, i] for i in range(lo, hi + 1))

        for n_max in (None, 3, 40):
            tag = f"{name}-nmax{n_max}"
            yield f"closed-{tag}", model.explicit_weights(range_sum, k, n_max=n_max)
            yield f"loop-{tag}", model.explicit_weights(table_sum, k, n_max=n_max)
            yield f"c-normalized-{tag}", model.explicit_weights(c_normalized, k, n_max=n_max)
    yield "example-2.1", load("example-2.1").weights


SCHEMES = dict(_schemes())


@pytest.mark.parametrize("n_sup", [1, 6, 64, 500])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_c0_equals_the_row_sum_loop(name, n_sup):
    w = SCHEMES[name]
    try:
        want = ref_c0(w, n_sup)
    except ValueError as exc:  # no row with a positive sum in the scan
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            w.c0(n_sup)
    else:
        got = w.c0(n_sup)
        assert got == want and type(got[0]) is float and type(got[1]) is int


@pytest.mark.parametrize("name", ["example-2.1", "wlln-counterexample"])
def test_closed_c0_is_the_row_scan_at_every_top(name):
    w = load(name).weights
    scan = dataclasses.replace(w, closed_c0=None)
    for top in (*range(1, 301), 10_000):
        got, want = w.closed_c0(top), scan.c0(top)
        assert got == want == ref_c0(w, top)
        assert got[0].hex() == want[0].hex() and type(got[1]) is int
        assert w.c0(top) == got


# a scheme with no closed C0 asked for 10^11 row sums: the request is sized
# before the first row is read, so it fails at once under the cap
_C0_TOO_LARGE = """
from llnlab import model
rows_read = []
w = model.explicit_weights(lambda n, lo, hi: rows_read.append(n) or 1.0, lambda n: n)
try:
    w.c0(10**11)
except MemoryError:
    print(len(rows_read))
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_c0_scan_too_large_fails_before_reading_a_row():
    src = str(Path(model.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _C0_TOO_LARGE],
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_memory)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
