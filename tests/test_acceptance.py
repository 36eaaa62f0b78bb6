"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is deferred to
runtime calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from llnlab import conditions, domination, model, moments, simulate, svf
from llnlab.cli import main as cli_main
from llnlab.fixtures import load
from llnlab.moments import MomentFunction
from llnlab.numerics import decay_gate, slope_certified_decay
from llnlab.simulate import SimPlan
from builders import identical_array
from sim_reference import sequence_paths


def report(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


# ---------------------------------------------------------------------------
# 1. two-block array exactness
# ---------------------------------------------------------------------------


def test_criterion_01_two_block_exactness():
    start = time.monotonic()
    fx = load("example-2.1")
    grid = [2.0**j for j in range(0, 61)]
    above_half = all(domination.cesaro_tail_sup(fx.arr, x) >= 0.5 for x in grid)
    rep_c = domination.dominating_cdf(fx.arr, model.uniform_weights())
    rep_w = domination.dominating_cdf(fx.arr, fx.weights)
    c0, at_row = fx.weights.c0(10_000)
    elapsed = time.monotonic() - start
    ok = (
        above_half
        and not rep_c.valid
        and rep_w.valid
        and c0 == 1.25
        and at_row == 2
        and 1.0 < c0 <= 2.0
        and elapsed < 1.0
    )
    report(1, "two-block array: row-average sup >= 1/2, domination verdicts, C0 = 5/4",
           ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. dominant-cell counterexample exactness
# ---------------------------------------------------------------------------


def test_criterion_02_dominant_cell_exactness():
    start = time.monotonic()
    fx = load("wlln-counterexample")
    ui_vals = moments.ui_check(
        fx.arr, model.uniform_weights(), MomentFunction(power=fx.p), fx.ui_grid,
        closed_sup=fx.closed["ui_cesaro_pow_p"],
    )
    ui_ok = decay_gate(ui_vals)
    kg = conditions.count_tail_vanishes(fx.weights.closed_weighted_sup, fx.b, fx.kg_grid)
    kg_exact = kg.evidence["values"] == [float(k) for k in fx.kg_grid]
    stats = []
    for n in (16, 256):
        row = model.sample_row(fx.arr, n, seed=0)
        c = np.array([fx.c_fn(n, i) for i in range(1, n + 1)])
        stats.append(simulate.max_partial_sums(row, c) / float(fx.b(n)))
    elapsed = time.monotonic() - start
    ok = (
        ui_ok
        and kg.fails
        and kg_exact
        and stats[0] == 1.0
        and stats[1] == 4.0
        and elapsed < 1.0
    )
    report(2, "dominant-cell rows: Cesaro UI decays, k*tail grows as k exactly, "
              "blow-up statistic exact", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. power-of-two spikes: series, integral, count-tail, weak law by MC
# ---------------------------------------------------------------------------


def test_criterion_03_power_spike_conclusions():
    start = time.monotonic()
    fx = load("x2m-example")
    series = conditions.exceedance_series(fx.arr, fx.p, N=2**14)
    series_ok = series.holds and series.evidence["partial_sum"] == 0.0

    eps0, p = 0.25, fx.p

    def envelope(x):
        return 1.0 if x <= 1.0 else min(1.0, eps0 / (x**p * math.log2(max(2.0, x))))

    integral_env = conditions.chandra_ghosal_integral(envelope, p)
    integral_exact = conditions.chandra_ghosal_integral(fx.cesaro_tail(), p)
    integral_ok = integral_env.fails and integral_exact.fails

    kg = conditions.count_tail_vanishes(fx.cesaro_tail(), fx.b, fx.kg_grid)

    plan = SimPlan(
        arr=fx.arr, b=fx.b, rows=tuple(2**j for j in range(6, 15)),
        reps=2000, eps=(0.5,), seed=2024,
    )
    rep = simulate.wlln_estimate(plan)
    phats = [rep.p_hat(n, 0.5) for n in plan.rows]
    ses = [math.sqrt(max(q * (1 - q), 1e-9) / plan.reps) for q in phats]
    trend_ok = all(
        b <= a + 3 * (sa + sb)
        for (a, b, sa, sb) in zip(phats[:-1], phats[1:], ses[:-1], ses[1:])
    )
    final_ok = phats[-1] <= 0.05 + 3 * ses[-1]
    elapsed = time.monotonic() - start
    ok = series_ok and integral_ok and kg.holds and trend_ok and final_ok and elapsed < 120.0
    report(3, "power-of-two spikes: zero series, divergent moment integral, "
              "vanishing count-tail, weak law confirmed by MC", ok,
           f"final p_hat={phats[-1]:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. rare spikes: bounded moments yet divergent series, spike rate by MC
# ---------------------------------------------------------------------------


def test_criterion_04_rare_spike_conclusions():
    start = time.monotonic()
    fx = load("example-4.1")
    g = MomentFunction(power=fx.p, log_factor_nu=fx.nu)
    sup = moments.bounded_moment_condition(fx.arr, fx.weights, g, n_sup=10_000)
    moment_ok = math.isfinite(float(sup))

    series = conditions.exceedance_series(fx.arr, fx.p, N=1_000_000)
    series_ok = series.fails and series.evidence["partial_sum"] > 3.0

    # spike frequency along sampled paths vs the exact occurrence mass
    length, reps = 2**17, 400
    probs = np.array(
        [1.0 / (n * svf.log_nu(n, fx.nu)) for n in range(1, length + 1)]
    )
    thresholds = np.arange(1, length + 1, dtype=float) ** (1.0 / fx.p)
    expected = float(np.sum(probs))
    se = math.sqrt(float(np.sum(probs * (1.0 - probs))) / reps)
    total = 0
    for _rep, path in sequence_paths(fx.arr, length, reps, seed=99):
        total += int(np.sum(np.abs(path) > thresholds))
    mean_count = total / reps
    mc_ok = abs(mean_count - expected) <= 3 * se
    elapsed = time.monotonic() - start
    ok = moment_ok and series_ok and mc_ok and elapsed < 120.0
    report(4, "rare spikes: weighted log-moment bounded, exceedance series "
              "diverges past 3, spike rate matches block mass", ok,
           f"count {mean_count:.3f} vs {expected:.3f} +- {3*se:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. tail-integral expectation engine exactness
# ---------------------------------------------------------------------------


def _discrete_cells_from_fixtures():
    cells = []
    fx21 = load("example-2.1")
    for n in (1, 2, 5, 9):
        for i in (1, n):
            cells.append(fx21.arr.cell(n, i))
    fx41 = load("example-4.1")
    cells += [fx41.arr.cell(6, i) for i in range(1, 7)]
    w = load("wlln-counterexample")
    cells += [w.arr.cell(n, n) for n in (1, 4, 16)]
    x = load("x2m-example")
    cells += [x.arr.cell(16, i) for i in (1, 2, 8, 16)]
    return cells


def test_criterion_05_expectation_engine_exactness():
    h = MomentFunction(power=0.5, log_factor_nu=1)
    worst = 0.0
    for dist in _discrete_cells_from_fixtures():
        tail = model.tail_of(dist)
        for A in (0.0, 2.0):
            got = float(moments.expectation_via_tail(tail, h, A=A))
            direct = sum(h.eval(m) * q for m, q in tail.atoms)
            worst = max(worst, abs(got - direct))
    atoms_ok = worst <= 1e-12

    u01 = model.TailFunction(fn=lambda x: 1.0 if x < 0 else max(0.0, 1.0 - x))
    sq = MomentFunction(power=2.0)
    uniform_ok = abs(float(moments.expectation_via_tail(u01, sq)) - 1.0 / 3.0) <= 1e-9

    inv_worst = 0.0
    for tail in (u01, model.tail_of(model.ParetoTail(alpha=4.0))):
        v0 = float(moments.expectation_via_tail(tail, sq, A=0.0))
        v1 = float(moments.expectation_via_tail(tail, sq, A=1.0))
        inv_worst = max(inv_worst, abs(v0 - v1))
    invariance_ok = inv_worst <= 1e-9
    ok = atoms_ok and uniform_ok and invariance_ok
    report(5, "expectation engine: atom-sum exactness 1e-12, uniform 1/3 at 1e-9, "
              "split-point invariance 1e-9", ok,
           f"atom gap {worst:.2e}, split gap {inv_worst:.2e}")


# ---------------------------------------------------------------------------
# 6. truncated-moment inequalities across the sweep
# ---------------------------------------------------------------------------


def test_criterion_06_truncated_moment_sweep():
    x2m = load("x2m-example")
    wlln = load("wlln-counterexample")
    cases = [
        (identical_array(model.SymmetricTwoPoint(1.0)), model.tail_of(model.SymmetricTwoPoint(1.0))),
        (identical_array(model.ParetoTail(alpha=3.0)),
         model.tail_of(model.ParetoTail(alpha=3.0))),
        (x2m.arr, x2m.cesaro_tail()),
        (wlln.arr, wlln.cesaro_tail()),
    ]
    violations = []
    for j, (arr, y) in enumerate(cases):
        for r in (0.5, 1.0, 2.0):
            for x in [2.0**j for j in range(0, 19, 2)]:
                tb = domination.truncated_moment_bounds(arr, y, r, x, n_sup=150)
                slack_b = 1e-9 * max(1.0, abs(tb.below[1]))
                slack_a = 1e-9 * max(1.0, abs(tb.above[1]))
                if tb.below[0] > tb.below[1] + slack_b:
                    violations.append((j, r, x, "below"))
                if tb.above[0] > tb.above[1] + slack_a:
                    violations.append((j, r, x, "above"))
    report(6, "truncated-moment inequalities: zero violations over the sweep",
           not violations, f"{len(violations)} violations")


# ---------------------------------------------------------------------------
# 7. conjugate machinery and slow variation
# ---------------------------------------------------------------------------


def test_criterion_07_conjugate_and_slow_variation():
    L = svf.log_power(1.0)
    r20 = svf.conjugate_residual(L, [2.0**20])[0]
    r400 = svf.conjugate_residual(L, [2.0**400])[0]
    residual_ok = r400 < 0.03 and r400 < r20

    families = [
        svf.constant_one(),
        svf.log_power(0.5),
        svf.log_power(-0.5),
        svf.loglog_power(1.0),
        svf.loglog_power(-1.0),
    ]
    ratio_ok = True
    for spec in families:
        for lam in (0.5, 2.0, 10.0):
            devs = [
                abs(spec.eval(lam * 2.0**k) / spec.eval(2.0**k) - 1.0)
                for k in range(10, 61)
            ]
            ratio_ok &= devs[-1] < 0.05 and devs[-1] <= devs[0] + 1e-15
    report(7, "conjugate residual < 0.03 at 2^400 and shrinking; slow-variation "
              "ratios settle within 0.05", residual_ok and ratio_ok,
           f"residuals {r20:.4f} -> {r400:.4f}")


# ---------------------------------------------------------------------------
# 8. domination <-> uniform integrability round trip
# ---------------------------------------------------------------------------


def _sequence_decays(values) -> bool:
    return decay_gate(values) or slope_certified_decay(values)


def test_criterion_08_round_trip():
    counterexamples = []

    # direction (i): dominating variable with finite transformed moment
    # implies the transformed cells are weighted uniformly integrable
    fx21 = load("example-2.1")
    x21 = model.TailFunction(
        fn=lambda x: min(1.0, fx21.weights.closed_weighted_sup(x) / 1.25),
        knot_fn=fx21.closed["weighted_knots"],
    )
    half = MomentFunction(power=0.5)
    m21 = moments.expectation_via_tail(x21, half, max_blocks=220)
    if m21.converged:
        ui21 = moments.ui_check(
            fx21.arr, fx21.weights, MomentFunction(power=fx21.p),
            [2.0**j for j in range(0, 22)],
            closed_sup=fx21.closed["ui_weighted_pow_p"],
        )
        if not _sequence_decays(ui21):
            counterexamples.append("two-block: finite moment but UI fails")
    else:
        counterexamples.append("two-block: constructed moment did not converge")

    par_arr = identical_array(model.ParetoTail(alpha=3.0))
    par_tail = model.tail_of(model.ParetoTail(alpha=3.0))
    if math.isfinite(float(moments.expectation_via_tail(par_tail, half))):
        ui_par = moments.ui_check(
            par_arr, model.uniform_weights(), half,
            [2.0**j for j in range(0, 30, 2)], n_sup=5,
        )
        if not _sequence_decays(ui_par):
            counterexamples.append("pareto: finite moment but UI fails")

    # direction (ii): whenever the transformed cells are uniformly integrable,
    # the rescaled tail of the constructed variable vanishes
    wlln = load("wlln-counterexample")
    x2m = load("x2m-example")
    e41 = load("example-4.1")
    g41 = model.TailFunction(
        fn=lambda y: domination.cesaro_tail_sup(e41.arr, y, n_sup=10_000),
    )
    direction_two = [
        ("two-block", x21, fx21.p, [2**j for j in range(0, 41, 2)],
         moments.ui_check(fx21.arr, fx21.weights, MomentFunction(power=fx21.p),
                          [2.0**j for j in range(0, 22)],
                          closed_sup=fx21.closed["ui_weighted_pow_p"])),
        ("dominant-cell", wlln.cesaro_tail(), wlln.p,
         [2.0**j for j in range(0, 491, 10)],
         moments.ui_check(wlln.arr, model.uniform_weights(),
                          MomentFunction(power=wlln.p), wlln.ui_grid,
                          closed_sup=wlln.closed["ui_cesaro_pow_p"])),
        ("power-spikes", x2m.cesaro_tail(), x2m.p,
         [2**j for j in range(0, 1401, 10)],
         moments.ui_check(x2m.arr, x2m.weights, MomentFunction(power=x2m.p),
                          x2m.ui_grid, closed_sup=x2m.closed["ui_cesaro_pow_p"])),
        ("rare-spikes", g41, e41.p, [2.0**j for j in range(0, 12)],
         moments.ui_check(e41.arr, e41.weights, MomentFunction(power=e41.p),
                          [2.0**j for j in range(0, 13)], n_sup=10_000)),
        ("pareto", par_tail, 0.5, [2.0**j for j in range(0, 30, 2)],
         moments.ui_check(par_arr, model.uniform_weights(), half,
                          [2.0**j for j in range(0, 30, 2)], n_sup=5)),
    ]
    for name, tail, p, grid, ui_vals in direction_two:
        if not _sequence_decays(ui_vals):
            continue  # hypothesis empty: nothing to conclude
        decay = conditions.count_tail_vanishes(
            tail, model.power_norming(p), grid).evidence["values"]
        if not _sequence_decays(decay):
            counterexamples.append(f"{name}: UI decays but rescaled tail does not")
    report(8, "uniform-integrability round trip: zero counterexamples",
           not counterexamples, "; ".join(counterexamples) or "all directions verified")


# ---------------------------------------------------------------------------
# 9. norming-sequence regularity checkers
# ---------------------------------------------------------------------------


def test_criterion_09_norming_checkers():
    v_sq = conditions.norming_ratio_bound(model.power_norming(0.5), N=100_000)
    v_lin = conditions.norming_ratio_bound(model.power_norming(1.0), N=100_000)
    v_lin_l2 = conditions.norming_ratio_bound_sq(model.power_norming(1.0), N=100_000)
    v_sqrt_l2 = conditions.norming_ratio_bound_sq(model.power_norming(2.0), N=100_000)
    harmonic_10 = sum(1.0 / i for i in range(1, 11))
    exact_ok = (
        v_sq.evidence["max_ratio"] == 1.0
        and v_lin_l2.evidence["max_ratio"] == 1.0
        and any(
            n == 10 and r == pytest.approx(harmonic_10, abs=1e-12)
            for n, r in zip(v_lin.evidence["checkpoints"],
                            v_lin.evidence["ratio_at_checkpoints"])
        )
    )
    ok = v_sq.holds and v_lin.fails and v_lin_l2.holds and v_sqrt_l2.fails and exact_ok
    report(9, "norming checkers: square/linear and linear/sqrt verdicts with "
              "exact ratio sequences", ok)


# ---------------------------------------------------------------------------
# 10. bitwise-deterministic simulation outputs
# ---------------------------------------------------------------------------


def test_criterion_10_bitwise_determinism(tmp_path):
    base = [
        "simulate", "--fixture", "x2m-example", "--mode", "wlln",
        "--rows", "2^6..2^10", "--reps", "200", "--eps", "0.1,0.5",
        "--seed", "31", "--format", "csv",
    ]
    runs = {}
    for label, extra in {
        "a": ["--threads", "1"],
        "b": ["--threads", "1"],
        "c": ["--threads", "8"],
    }.items():
        out = tmp_path / label
        assert cli_main(base + extra + ["--out", str(out)]) == 0
        runs[label] = out.with_suffix(".csv").read_bytes()
    ok = runs["a"] == runs["b"] == runs["c"]
    report(10, "simulation outputs bitwise identical across reruns and thread "
               "counts {1, 8}", ok)


def test_determinism_outputs_depend_on_draws(tmp_path):
    # criterion 10 runs at p = 1/2, where every p_hat is 0: at p = 1 the
    # estimates lie inside (0, 1), so equal bytes mean equal draws
    base = [
        "simulate", "--fixture", "x2m-example", "--p", "1", "--mode", "wlln",
        "--rows", "2^6..2^10", "--reps", "200", "--eps", "0.1,0.5,1.0",
        "--format", "json",
    ]

    def run(seed, threads):
        out = tmp_path / f"s{seed}-t{threads}"
        assert cli_main(base + ["--seed", str(seed), "--threads", str(threads),
                                "--out", str(out)]) == 0
        return out.with_suffix(".json").read_bytes()

    runs = {t: run(31, t) for t in (1, 2, 8)}
    doc = json.loads(runs[1])
    assert any(0.0 < e["p_hat"] < 1.0 for e in doc["entries"])
    assert runs[1] == runs[2] == runs[8]
    assert run(999, 1) != runs[1]
