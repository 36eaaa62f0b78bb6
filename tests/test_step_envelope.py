"""Scanned step envelopes: the chandra-ghosal integral summed piece by piece.

A row table whose every law is a step law has a sup that is constant between
its step magnitudes, so ``chandra_ghosal_integral`` integrates it exactly,
piece by piece, with no quadrature of G.  The reference here is the integral
the scan was checked by before: adaptive quadrature of x^(p-1) L^p(x) G(x),
now split at every knot of the table.  It lives in this file only.
"""

import dataclasses
import functools
import math

import pytest

from llnlab import conditions, domination, fixtures, model, numerics, svf
from llnlab.numerics import QUAD_ABS_TOL, finite_integral
from llnlab.specio import load_spec_obj

# blocks holding more knots than this are left out of the 10^4-row
# reference: quad reads the scan 21 times per piece there
KNOT_CAP = 128


@functools.lru_cache(maxsize=None)
def scanned(p: float, nu: int, n_sup: int, sv=None):
    """example-4.1's scanned Cesaro envelope and its chandra-ghosal verdict."""
    fx = fixtures.load("example-4.1", p=p, nu=nu)
    src = conditions._cesaro_source(fx, n_sup)
    return src, conditions.chandra_ghosal_integral(src, p, sv)


def smooth(p, sv):
    return (lambda t: 1.0) if sv is None else (lambda t: sv.eval(t) ** p)


def quad_head(src, p, sv) -> float:
    """int_0^1 with t = u^(1/p), split at every knot."""
    L = smooth(p, sv)
    inv = 1.0 / p
    return finite_integral(lambda u: src.fn(u**inv) * L(u**inv) / p, 0.0, 1.0,
                           breakpoints=[k**p for k in src.knots_in(0.0, 1.0)])


def quad_block(src, p, sv, lo, hi) -> float:
    L = smooth(p, sv)
    return finite_integral(lambda t: t ** (p - 1.0) * src.fn(t) * L(t), lo, hi,
                           breakpoints=src.knots_in(lo, hi))


CASES = [pytest.param(p, nu, n_sup, None, id=f"p{p}-nu{nu}-n{n_sup}")
         for p in (0.5, 1.0, 1.5) for nu in (1, 2) for n_sup in (64, 10_000)]
CASES.append(pytest.param(1.0, 1, 64, svf.log_power(2.0), id="p1.0-nu1-n64-log-power"))


@pytest.mark.parametrize("p,nu,n_sup,sv", CASES)
def test_exact_blocks_match_quad_split_at_every_knot(p, nu, n_sup, sv):
    src, v = scanned(p, nu, n_sup, sv)
    assert src.step
    assert v.evidence["head"] == pytest.approx(quad_head(src, p, sv), rel=0, abs=QUAD_ABS_TOL)
    compared = 0
    for j, block in enumerate(v.evidence["blocks"]):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        if len(src.knots_in(lo, hi)) > KNOT_CAP:
            continue
        assert block == pytest.approx(quad_block(src, p, sv, lo, hi), rel=0,
                                      abs=QUAD_ABS_TOL), (j, lo)
        compared += 1
    assert compared >= min(4, len(v.evidence["blocks"]))


def test_block_14_at_the_default_scan_is_exact():
    # blocks[13] is [2^13, 2^14], with 37 knots; plain quad over the knotless
    # sup missed this block by 5.5e-8
    src, v = scanned(0.5, 1, model.DEFAULT_N_SUP, None)
    lo, hi = 2.0**13, 2.0**14
    assert len(src.knots_in(lo, hi)) == 37
    assert abs(v.evidence["blocks"][13] - quad_block(src, 0.5, None, lo, hi)) < 1e-12


# outcomes recorded from the quadrature path before the exact sums replaced it
PARITY = {(p, nu, n_sup): "fails" if (p, n_sup) == (0.5, 10_000) else "holds"
          for p in (0.5, 1.0, 1.5) for nu in (1, 2) for n_sup in (64, 200, 10_000)}


@pytest.mark.parametrize("p,nu,n_sup", sorted(PARITY), ids=lambda v: str(v))
def test_verdict_parity_with_the_quadrature_path(p, nu, n_sup):
    _, v = scanned(p, nu, n_sup, None)
    assert v.verdict == PARITY[p, nu, n_sup]


def test_step_envelope_makes_no_quad_call_and_one_read_per_piece(monkeypatch):
    # before: 15 quad calls and 13,503 sup reads for this integral
    calls = {"quad": 0, "sup": 0}
    real_quad = numerics.quad

    def counting_quad(*args, **kwargs):
        calls["quad"] += 1
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(numerics, "quad", counting_quad)
    fx = fixtures.load("example-4.1")
    src = domination.cesaro_sup_fn(fx.arr, n_sup=64)

    def counting_sup(x):
        calls["sup"] += 1
        return src.fn(x)

    v = conditions.chandra_ghosal_integral(dataclasses.replace(src, fn=counting_sup), fx.p)
    edges = [0.0] + [2.0**j for j in range(len(v.evidence["blocks"]) + 1)]
    pieces = sum(len(src.knots_in(lo, hi)) + 1 for lo, hi in zip(edges[:-1], edges[1:]))
    assert v.holds and v.value == 5.214481569842493
    assert v.evidence["blocks"][-1] == 0.0
    assert calls["quad"] == 0
    assert 0 < calls["sup"] <= pieces


def test_step_mark_is_explicit_not_read_off_knots():
    # wlln-counterexample's closed Cesaro sup has knots but is not marked a step
    # envelope: its knot list gives up where the steps grow too dense to list
    fx = fixtures.load("wlln-counterexample")
    tail = fx.cesaro_tail()
    assert tail.knots_in(1.0, 100.0) and not tail.step


def _sequence_spec(dists):
    cells = [{"n": n, "i": i, "dist": dists[i - 1]}
             for n in range(1, len(dists) + 1) for i in range(1, n + 1)]
    return load_spec_obj({"rows": {"k": "n"}, "p": 1.0, "sequence": True, "cells": cells})


def two_point(m, q=1.0):
    return {"kind": "symmetric-two-point", "magnitude": m, "prob": q}


def test_row_table_knots_are_the_distinct_magnitudes_in_the_open_interval():
    sp = _sequence_spec([two_point(3.0, 0.5), two_point(3.0), {"kind": "symmetric-pm1"},
                         two_point(6.5, 0.25), two_point(2.5)])
    table = model.RowTable(sp.arr, model.uniform_weights())
    assert table.knots_in(0.0, 10.0) == (1.0, 2.5, 3.0, 6.5)
    assert table.knots_in(1.0, 3.0) == (2.5,)
    assert table.knots_in(7.0, 8.0) == ()
    # no other laws: the sup is constant between the knots
    for a, b in zip((0.0, 1.0, 2.5, 3.0, 6.5), (1.0, 2.5, 3.0, 6.5, 10.0)):
        xs = [a + (b - a) * t for t in (1e-9, 0.5, 1 - 1e-9)]
        assert len({table.sup(x) for x in xs}) == 1


def test_a_table_with_other_laws_keeps_its_knots_but_is_not_a_step_envelope():
    steps = _sequence_spec([two_point(3.0, 0.5), two_point(2.5)])
    mixed = _sequence_spec([two_point(3.0, 0.5), {"kind": "pareto", "alpha": 3.0}])
    step_sup = domination.cesaro_sup_fn(steps.arr)
    mixed_sup = domination.cesaro_sup_fn(mixed.arr)
    assert step_sup.step and step_sup.knots_in(0.0, 4.0) == (2.5, 3.0)
    assert not mixed_sup.step and mixed_sup.knots_in(0.0, 4.0) == (3.0,)
    v = conditions.chandra_ghosal_integral(step_sup, 1.0)
    # rows 0.5 and (0.5 + 1) / 2 below 2.5, then 0.5 and 0.25 up to 3
    assert v.holds and v.value == math.fsum([0.75 * 2.5, 0.5 * 0.5])
