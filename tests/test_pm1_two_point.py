"""+-1 is the two-point law (1.0, 1.0).

``tail_of``, ``quantile_of``, ``step_law``, ``cell_moment`` and
``cell_transformed_tail_mass`` once had a branch of their own for a +-1 law.
Those branches are kept here as the reference: ``SymmetricTwoPoint(1.0)``
must give their bits through each function.
"""

import math

import numpy as np
import pytest

from llnlab import model, moments
from llnlab.moments import MomentFunction

PM1 = model.SymmetricTwoPoint(1.0)
XS = (-1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, math.nan, math.inf, 2**60)
US = np.array([0.0, 0.25, 0.5 - 2**-53, 0.5, 0.75, 1.0 - 2**-53])
FUNCS = (MomentFunction(power=1.5), MomentFunction(power=0.5, log_factor_nu=2),
         lambda x: x * x + 0.25)
LEVELS = (-1.0, 0.0, 0.5, 1.0, 1.25, 2.0, math.nan)


def ref_tail(x):
    return 1.0 if x < 1.0 else 0.0


def ref_quantile(u):
    return np.where(np.asarray(u) < 0.5, -1.0, 1.0)


def ref_cell_moment(g):
    g_eval = g.eval if hasattr(g, "eval") else g
    return g_eval(1.0)


def ref_cell_transformed_tail_mass(t, a):
    t_eval = t.eval if hasattr(t, "eval") else t
    v = t_eval(1.0)
    return v if v > a else 0.0


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_tail():
    tail = model.tail_of(PM1)
    assert tail.atoms == ((1.0, 1.0),)
    for x in XS:
        assert same_bits(tail.fn(x), ref_tail(x)), x
    assert tail.knots_in(0.0, 2.0) == (1.0,) and tail.knots_in(1.0, 2.0) == ()


def test_quantile():
    got, want = model.quantile_of(PM1)(US), ref_quantile(US)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert same_bits(float(model.quantile_of(PM1)(0.5)), float(ref_quantile(0.5)))


def test_step_law():
    assert model.step_law(PM1) == (1.0, 1.0)


@pytest.mark.parametrize("g", FUNCS, ids=["power", "log-factor", "callable"])
def test_moments(g):
    assert same_bits(moments.cell_moment(PM1, g), ref_cell_moment(g))
    if getattr(g, "log_factor_nu", None) is not None:  # a ui transform is a power
        with pytest.raises(ValueError):
            moments.cell_transformed_tail_mass(PM1, g, 0.5)
        return
    for a in LEVELS:
        assert same_bits(moments.cell_transformed_tail_mass(PM1, g, a),
                         ref_cell_transformed_tail_mass(g, a)), a
