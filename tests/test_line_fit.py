"""``numerics.line_fit``, the two-parameter least-squares fit of the slope gates.

The fit is plain float arithmetic with ``math.fsum`` sums, so its oracle is
the exact least-squares line of the same float inputs in ``Fraction``
arithmetic, and its bits must not depend on the CPU: a subprocess run under
another OpenBLAS core type gives the same slopes and certificates.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from llnlab import numerics
from llnlab.numerics import line_fit


def exact_line(xs, ys):
    """The least-squares (slope, intercept) of the float inputs, exactly."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
             / sum((x - x_bar) ** 2 for x in xs))
    return slope, y_bar - slope * x_bar


def random_window(rng):
    """xs like the gates' grids (0..n-1, or log j over a run of j), ys a noisy line."""
    n = rng.randint(2, 40)
    if rng.random() < 0.5:
        xs = [float(j) for j in range(n)]
    else:
        start = rng.randint(1, 10_000)
        xs = [math.log(j) for j in range(start, start + n)]
    slope, intercept = rng.uniform(-3.0, 1.0), rng.uniform(-60.0, 10.0)
    noise = rng.choice((0.0, 1e-6, 1e-3, 0.1, 1.0))
    return xs, [intercept + slope * x + rng.gauss(0.0, noise) for x in xs]


def test_line_fit_matches_exact_least_squares():
    rng = random.Random(20261019)
    for _ in range(2000):
        xs, ys = random_window(rng)
        got, want = line_fit(xs, ys), exact_line(xs, ys)
        for g, w in zip(got, want):
            assert abs(Fraction(g) - w) <= Fraction(1e-12) * abs(w), (xs, ys, got)


def test_line_fit_is_exact_on_collinear_integer_data():
    # the means are exact (a run of consecutive xs, or a power-of-two count), so
    # every difference, product and fsum is exact and the fit returns (b, a)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-1000, 1000)
        if rng.random() < 0.5:
            start = rng.randint(-1000, 1000)
            xs = list(range(start, start + rng.randint(2, 64)))
        else:
            xs = [rng.randint(-1000, 1000) for _ in range(2 ** rng.randint(1, 6))]
            if len(set(xs)) < 2:
                continue
        ys = [a + b * x for x in xs]
        assert line_fit(xs, ys) == (b, a), (xs, a, b)


def test_the_gates_read_the_fit():
    # a line of slope -1 in log-log, and a flat run of blocks (np.polyfit read
    # -5.8e-19 for the flat run)
    assert numerics.slope_certified_decay([1.0 / j for j in range(1, 17)])
    assert not numerics.slope_certified_decay([1.0 / math.sqrt(math.log(j + 2.0))
                                               for j in range(1, 17)])
    assert numerics.fitted_block_slope([2.0 ** -j for j in range(12)]) == -1.0
    assert numerics.fitted_block_slope([3.0] * 12) == 0.0
    assert numerics.fitted_block_slope([1.0] * (numerics.FLAT_RUN - 1)) is None


# a fresh interpreter evaluates both gates on seeded random inputs and prints
# the SHA-256 of every slope's bits and every certificate
GATE_HASH = """
import hashlib, math, random
from llnlab.numerics import fitted_block_slope, slope_certified_decay
rng, h = random.Random(5), hashlib.sha256()
for _ in range(1000):
    s, n = rng.uniform(-3.0, 0.5), rng.randint(10, 20)
    blocks = [2.0 ** (s * j + rng.gauss(0.0, 0.3)) for j in range(n)]
    h.update(fitted_block_slope(blocks).hex().encode())
    v = sorted((math.exp(-rng.uniform(0.0, 12.0)) for _ in range(rng.randint(8, 30))),
               reverse=True)
    h.update(b"1" if slope_certified_decay(v) else b"0")
print(h.hexdigest())
"""


def gate_hash(**env):
    src = str(Path(numerics.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", GATE_HASH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", **env),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_gate_bits_do_not_depend_on_the_blas_core_type():
    # np.polyfit's LAPACK path hashed three ways across OpenBLAS core types
    default = gate_hash()
    assert len(default) == 64
    assert gate_hash(OPENBLAS_CORETYPE="Haswell") == default

