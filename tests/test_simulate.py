import dataclasses
import itertools
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from llnlab import model, simulate, specio
from llnlab.fixtures import load
from llnlab.model import power_norming
from llnlab.simulate import SimPlan
from sim_reference import reference_suffix_sups, sequence_paths
from test_sim_golden import NA, mixed_spec


# ---------------------------------------------------------------------------
# prefix maxima
# ---------------------------------------------------------------------------


def test_max_partial_sums_basic():
    assert simulate.max_partial_sums(np.array([1.0, -2.0, 1.0])) == 1.0
    assert simulate.max_partial_sums(np.array([1.0, 1.0]), np.array([0.0, 3.0])) == 3.0


def test_max_partial_sums_shape_mismatch():
    with pytest.raises(ValueError):
        simulate.max_partial_sums(np.ones(3), np.ones(2))


def test_harmonic_is_digamma_bitwise():
    # the cephes psi port must give scipy's digamma bits: every n to 3e5, every
    # power of two to 2^52 and seeded random n below 2^53
    rng = np.random.default_rng(7)
    ns = itertools.chain(range(1, 300_001), (2**k for k in range(53)),
                         rng.integers(1, 2**53, size=20_000).tolist())
    bad = [n for n in ns if simulate.harmonic(n) != float(digamma(n + 1)) + simulate.EULER_GAMMA]
    assert bad == []


def test_counterexample_statistic_exact_values():
    fx = load("wlln-counterexample")
    for n, expected in ((16, 1.0), (256, 4.0)):
        row = model.sample_row(fx.arr, n, seed=0)
        c = np.array([fx.c_fn(n, i) for i in range(1, n + 1)])
        stat = simulate.max_partial_sums(row, c) / float(fx.b(n))
        assert stat == expected  # exact in floats: n / log2(n)^(1/p)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _pm1_plan(**kw):
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1.0))
    defaults = dict(
        arr=arr, b=power_norming(1.0), rows=(64, 128, 256), reps=200,
        eps=(0.5,), seed=11,
    )
    defaults.update(kw)
    return SimPlan(**defaults)


def test_wlln_estimate_bitwise_deterministic():
    plan = _pm1_plan()
    rep1 = simulate.wlln_estimate(plan)
    rep2 = simulate.wlln_estimate(plan)
    assert rep1.to_csv_str() == rep2.to_csv_str()
    assert rep1 == rep2


def test_wlln_estimate_thread_count_invariant():
    plan = _pm1_plan(rows=(64, 128, 256, 512))
    rep1 = simulate.wlln_estimate(plan, threads=1)
    rep8 = simulate.wlln_estimate(plan, threads=8)
    assert rep1.to_csv_str() == rep8.to_csv_str()


@pytest.mark.parametrize("chunk_offset", [None, -1, 1])
def test_reports_byte_equal_across_threads_and_chunks(chunk_offset):
    # rows of 64, 256 and 1024 cells; reps 1 or the largest row's chunk +- 1
    reps = 1 if chunk_offset is None else simulate.TASK_CELLS // 1024 + chunk_offset
    fx = load("x2m-example", p=1.0)
    plan = SimPlan(arr=fx.arr, b=fx.b, rows=(64, 256, 1024), reps=reps,
                   eps=(0.1, 0.5, 1.0), seed=41)
    runs = {
        t: (json.dumps(simulate.wlln_estimate(plan, threads=t).to_json_obj(), sort_keys=True),
            json.dumps(simulate.slln_series_estimate(plan, None, 1.0, threads=t).to_json_obj(),
                       sort_keys=True))
        for t in (1, 2, 8)
    }
    assert runs[1] == runs[2] == runs[8]
    if reps > 1:
        doc = json.loads(runs[1][0])
        assert any(0.0 < e["p_hat"] < 1.0 for e in doc["entries"])
        assert len({m["mean"] for m in doc["ratio_means"]}) == 3


def test_chunks_cover_every_replication_once():
    for k, reps in ((1, 5), (64, 2000), (1 << 14, 2000), (1 << 17, 3), (3000, 22)):
        chunks = simulate._chunks(k, reps)
        assert chunks[0][0] == 0 and chunks[-1][1] == reps
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(0 < (hi - lo) * k <= max(k, simulate.TASK_CELLS) for lo, hi in chunks)


def test_replication_doubling_consistency():
    plan_r = _pm1_plan(rows=(32, 64), eps=(0.1, 0.2), reps=500, seed=3)
    plan_2r = _pm1_plan(rows=(32, 64), eps=(0.1, 0.2), reps=1000, seed=3)
    rep_r = simulate.wlln_estimate(plan_r)
    rep_2r = simulate.wlln_estimate(plan_2r)
    ok = 0
    cells = list(itertools.product((32, 64), (0.1, 0.2)))
    for n, eps in cells:
        p1, p2 = rep_r.p_hat(n, eps), rep_2r.p_hat(n, eps)
        se = math.sqrt(max(p1 * (1 - p1), 1e-6) / 500)
        ok += abs(p1 - p2) <= 4 * se
    assert ok >= 0.95 * len(cells)


# ---------------------------------------------------------------------------
# the replication-span kernel and its worker processes
# ---------------------------------------------------------------------------

FORK = "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_worker_count_is_bounded_without_starting_workers(monkeypatch):
    # the rule alone: nothing here builds a pool
    _usable_cpus(monkeypatch, 4)
    assert simulate._workers(10**20, 2000) == 4
    assert simulate._workers(10**20, 3) == 3
    assert simulate._workers(2, 2000) == 2
    assert simulate._workers(1, 2000) == 1
    _usable_cpus(monkeypatch, 1)
    assert simulate._workers(10**20, 10**20) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity call
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert simulate._workers(10**20, 2000) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._workers(10**20, 2000) == 1


def _x2m_plan():
    fx = load("x2m-example", p=1.0)
    return SimPlan(arr=fx.arr, b=fx.b, rows=(16, 64, 256), reps=37,
                   eps=(0.1, 0.5, 1.0), seed=41)


def _ex41_plan():
    fx = load("example-4.1")
    return SimPlan(arr=fx.arr, b=fx.b, rows=(8, 32, 128), reps=37, eps=(0.5, 1.0), seed=5)


def _na_spec_plan():
    spec = specio.load_spec_obj(mixed_spec(seed=7, n_rows=40, sequence=True, dependence=NA))
    return SimPlan(arr=spec.arr, b=spec.b, rows=(3, 10, 40), reps=37, eps=(0.2, 0.5),
                   seed=17, c=lambda n, i: 1.0 + (i % 3) / n)


KERNEL_PLANS = {"x2m-example": _x2m_plan, "example-4.1": _ex41_plan,
                "gaussian-na-spec": _na_spec_plan}


def _mode_bytes(plan, threads):
    wlln = simulate.wlln_estimate(plan, threads=threads)
    series = simulate.slln_series_estimate(plan, None, 1.0, threads=threads)
    path = simulate.slln_path_diagnostic(plan, threads=threads)
    return (json.dumps(wlln.to_json_obj(), sort_keys=True),
            json.dumps(series.to_json_obj(), sort_keys=True), path.suffix_sups.tobytes())


@pytest.mark.skipif(not FORK, reason="worker processes need the fork start method")
@pytest.mark.parametrize("task_cells", [None, 48])
@pytest.mark.parametrize("case", sorted(KERNEL_PLANS))
def test_every_mode_is_byte_equal_across_workers_and_chunks(monkeypatch, case, task_cells):
    # three workers even on a two-CPU host; 48 cells cut every span into chunks
    # of one to three replications, forked workers inheriting the patch
    _usable_cpus(monkeypatch, 4)
    if task_cells is not None:
        monkeypatch.setattr(simulate, "TASK_CELLS", task_cells)
    plan = KERNEL_PLANS[case]()
    runs = {k: _mode_bytes(plan, k) for k in (1, 2, 3)}
    assert runs[1] == runs[2] == runs[3]
    assert runs[1][2] == reference_suffix_sups(plan).tobytes()
    doc = json.loads(runs[1][0])
    assert any(0.0 < e["p_hat"] < 1.0 for e in doc["entries"])


def test_path_rows_may_repeat():
    plan = dataclasses.replace(_na_spec_plan(), rows=(2, 8, 8, 9, 40, 40))
    rep = simulate.slln_path_diagnostic(plan)
    assert rep.suffix_sups.tobytes() == reference_suffix_sups(plan).tobytes()


# ---------------------------------------------------------------------------
# estimates against exact oracles
# ---------------------------------------------------------------------------


def max_abs_walk_exceedance_exact(n: int, t: int) -> float:
    """P(max_k |S_k| > t) for a +-1 walk by dynamic programming."""
    # state: distribution over S_k restricted to |S| <= t
    probs = {0: 1.0}
    escaped = 0.0
    for _ in range(n):
        nxt: dict[int, float] = {}
        for s, p in probs.items():
            for step in (-1, 1):
                v = s + step
                if abs(v) > t:
                    escaped += 0.5 * p
                else:
                    nxt[v] = nxt.get(v, 0.0) + 0.5 * p
        probs = nxt
    return escaped


def test_wlln_estimate_matches_exact_walk_probability():
    plan = _pm1_plan(rows=(64,), eps=(0.5,), reps=2000, seed=21)
    rep = simulate.wlln_estimate(plan)
    p_hat = rep.p_hat(64, 0.5)
    exact = max_abs_walk_exceedance_exact(64, 32)  # stat > 0.5 means max|S| > 32
    se = math.sqrt(exact * (1 - exact) / 2000) + 1e-9
    assert abs(p_hat - exact) <= 4 * se


def test_wlln_estimate_large_row_exceedance_negligible():
    plan = _pm1_plan(rows=(10_000,), eps=(0.5,), reps=2000, seed=4)
    rep = simulate.wlln_estimate(plan)
    # Hoeffding: P(max|S| > 5000) <= 4 exp(-1250), so 0.001 is generous
    assert rep.p_hat(10_000, 0.5) <= 0.001


def test_wlln_counterexample_exceeds_always():
    fx = load("wlln-counterexample")
    plan = SimPlan(
        arr=fx.arr, b=fx.b, rows=(64, 256, 1024), reps=100, eps=(0.1, 0.5, 1.0),
        seed=5, c=fx.c_fn,
    )
    rep = simulate.wlln_estimate(plan)
    for n in (64, 256, 1024):
        for eps in (0.1, 0.5, 1.0):
            assert rep.p_hat(n, eps) == 1.0


def test_series_estimate_iid_walk_bounded():
    plan = _pm1_plan(rows=tuple(2**j for j in range(4, 11)), reps=400, seed=13)
    rep = simulate.slln_series_estimate(plan, None, 1.0)
    per = rep.series["per_eps"][0]
    assert per["diagnostic"] == "bounded"
    contributions = per["contributions"]
    assert contributions[-1] <= 1e-6
    # sanity of the block estimate at a sampled row vs the exact walk value
    p64 = rep.p_hat(64, 0.5)
    exact = max_abs_walk_exceedance_exact(64, 32)
    assert abs(p64 - exact) <= 4 * math.sqrt(exact * (1 - exact) / 400) + 1e-9


def test_series_estimate_counterexample_unbounded():
    fx = load("wlln-counterexample")
    plan = SimPlan(
        arr=fx.arr, b=fx.b, rows=tuple(2**j for j in range(5, 12)), reps=60,
        eps=(0.5,), seed=2, c=fx.c_fn,
    )
    rep = simulate.slln_series_estimate(plan, None, fx.p)
    assert rep.series["per_eps"][0]["diagnostic"] == "unbounded"


def test_series_estimate_degenerate_cells_zero():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1e-12, 1.0))
    plan = SimPlan(arr=arr, b=power_norming(1.0), rows=(16, 64), reps=20, eps=(0.5,), seed=1)
    rep = simulate.slln_series_estimate(plan, None, 1.0)
    per = rep.series["per_eps"][0]
    assert per["partials"][-1] == 0.0
    assert all(e.p_hat == 0.0 for e in rep.entries)


# ---------------------------------------------------------------------------
# path diagnostics
# ---------------------------------------------------------------------------


def test_path_diagnostic_iid_walk_converges():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1.0))
    plan = SimPlan(
        arr=arr, b=power_norming(1.0), rows=tuple(2**j for j in range(10, 17)),
        reps=50, eps=(0.1,), seed=6,
    )
    rep = simulate.slln_path_diagnostic(plan)
    assert rep.fraction_below(plan.rows[-1], 0.1) == 1.0


def test_path_diagnostic_deterministic_spikes_fail():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(float(i) ** 2, 1.0))
    plan = SimPlan(arr=arr, b=power_norming(0.5), rows=(16, 64, 256), reps=5, eps=(0.5,), seed=1)
    rep = simulate.slln_path_diagnostic(plan)
    assert rep.fraction_below(256, 0.5) == 0.0


def test_path_diagnostic_zero_sequence():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1e-300, 1.0))
    plan = SimPlan(arr=arr, b=power_norming(1.0), rows=(8, 32), reps=4, eps=(0.01,), seed=1)
    rep = simulate.slln_path_diagnostic(plan)
    assert rep.fraction_below(32, 0.01) == 1.0


def test_na_sequence_paths_keep_neighbour_correlation():
    # sign(Z_i) sign(Z_i+1) for Gaussian neighbours with correlation -1/2 has
    # mean (2/pi) arcsin(-1/2) = -1/3; an independent draw would give 0
    arr = model.sequence_array(
        lambda i: model.SymmetricTwoPoint(1.0), dependence=model.GaussianNA(-0.5)
    )
    products = [
        float(np.mean(path[:-1] * path[1:]))
        for _, path in sequence_paths(arr, 400, 50, seed=3)
    ]
    assert np.mean(products) == pytest.approx(-1.0 / 3.0, abs=0.03)


@given(
    rho=st.floats(-0.5, -0.2),
    mag=st.sampled_from([1.0, 2.5]),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=8, deadline=None)
def test_na_sequences_keep_negative_neighbour_correlation(rho, mag, seed):
    # for cells m sign(Z_i), E X_i X_i+1 = m^2 (2/pi) arcsin(rho); on two
    # cells the probe ratio E max(|S_1|, |S_2|)^2 / 2 m^2 is (1 + 3 P(same sign)) / 2
    cell = model.SymmetricTwoPoint(mag)
    arr = model.sequence_array(lambda i: cell, dependence=model.GaussianNA(rho))
    sign_corr = 2.0 / math.pi * math.asin(rho)
    products = np.concatenate(
        [path[:-1] * path[1:] / mag**2 for _, path in sequence_paths(arr, 101, 60, seed)]
    )
    assert products.mean() == pytest.approx(sign_corr, abs=0.05)
    assert products.mean() < -0.05
    reps = 4000
    probe = simulate.condition_h_probe(arr, mag, 2, reps=reps, seed=seed)
    same = 0.5 * (1.0 + sign_corr)
    exact = (1.0 + 3.0 * same) / 2.0
    se = 1.5 * math.sqrt(same * (1.0 - same) / reps)
    assert probe == pytest.approx(exact, abs=5 * se)
    assert probe < 1.25 - 5 * se  # 1.25 is the independent value


def test_path_diagnostic_needs_sequence_array():
    fx = load("example-2.1")
    plan = SimPlan(arr=fx.arr, b=fx.b, rows=(8,), reps=2, eps=(0.5,), seed=1)
    with pytest.raises(ValueError):
        simulate.slln_path_diagnostic(plan)


# ---------------------------------------------------------------------------
# maximal-inequality probe
# ---------------------------------------------------------------------------


def exact_probe_ratio_pm1(n: int) -> float:
    """Enumerate all sign paths: E(max_k |S_k|)^2 / n for +-1 cells, a >= 1."""
    total = 0.0
    for signs in itertools.product((-1, 1), repeat=n):
        s, best = 0, 0
        for x in signs:
            s += x
            best = max(best, abs(s))
        total += best**2
    return (total / 2**n) / n


def test_condition_h_probe_matches_enumeration():
    arr = model.identical_array(model.SymmetricTwoPoint(1.0))
    exact = exact_probe_ratio_pm1(8)
    est = simulate.condition_h_probe(arr, 1.0, 8, reps=3000, seed=17)
    assert est == pytest.approx(exact, rel=0.1)


def test_condition_h_probe_single_cell_bounded_by_one():
    # exact ratio is variance / second moment = 1; allow 4-se sampling slack
    arr = model.identical_array(model.SymmetricTwoPoint(2.0, 0.5))
    reps = 20_000
    est = simulate.condition_h_probe(arr, 3.0, 1, reps=reps, seed=3)
    se = (2.0 / math.sqrt(reps)) / 2.0  # sd(X^2)=2, rhs=2
    assert est <= 1.0 + 4 * se


def test_condition_h_probe_iid_doob_range():
    arr = model.identical_array(model.SymmetricTwoPoint(1.0))
    est = simulate.condition_h_probe(arr, 1.0, 100, reps=800, seed=23)
    assert 0.5 <= est <= 4.5


def test_condition_h_probe_negatively_associated_rows():
    arr = model.ArraySpec(
        row_length=lambda n: n,
        groups_fn=lambda n: (model.CellGroup(n, model.SymmetricTwoPoint(1.0)),),
        dependence=model.GaussianNA(-0.1),
    )
    est = simulate.condition_h_probe(arr, 1.0, 100, reps=400, seed=29)
    assert math.isfinite(est) and est > 0.0


def test_condition_h_probe_degenerate_cells_rejected():
    zero = model.CustomDist(
        tail=model.TailFunction(
            fn=lambda x: 1.0 if x < 0 else 0.0, atoms=((0.0, 1.0),), support_hint=0.0
        ),
        quantile=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    arr = model.identical_array(zero)
    with pytest.raises(ValueError):
        simulate.condition_h_probe(arr, 2.0, 4, reps=10, seed=1)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def test_plan_validation():
    arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1.0))
    with pytest.raises(ValueError):
        SimPlan(arr=arr, b=power_norming(1.0), rows=(), reps=5, eps=(0.5,), seed=0)
    with pytest.raises(ValueError):
        SimPlan(arr=arr, b=power_norming(1.0), rows=(8, 4), reps=5, eps=(0.5,), seed=0)
    with pytest.raises(ValueError):
        SimPlan(arr=arr, b=power_norming(1.0), rows=(4,), reps=0, eps=(0.5,), seed=0)
    with pytest.raises(ValueError):
        SimPlan(arr=arr, b=power_norming(1.0), rows=(4,), reps=5, eps=(0.0,), seed=0)
    with pytest.raises(ValueError):
        SimPlan(arr=arr, b=power_norming(1.0), rows=(0, 4), reps=5, eps=(0.5,), seed=0)
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SimPlan(arr=arr, b=power_norming(1.0), rows=(4,), reps=5, eps=(0.5, eps), seed=0)
