import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, ndtr

from llnlab import model, simulate, specio
from llnlab.cli import main as cli_main
from llnlab.fixtures import load
from llnlab.model import power_norming
from llnlab.simulate import SimPlan
from builders import identical_array
from sim_reference import reference_condition_h_probe, reference_suffix_sups, sequence_paths
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


def _around(edge: float, ulps: int = 200) -> list:
    """``edge`` and the ``ulps`` floats on each side of it, with their negatives."""
    lo = hi = edge
    pts = [edge]
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        pts += [lo, hi]
    return pts + [-x for x in pts]


def test_ndtr_is_scipy_ndtr_bitwise():
    # the cephes ndtr port must give scipy's bits: on the sampler's own mixed
    # normals, across (-40, 40), on both sides of each branch edge (|x| = 1 and
    # 8, the exp underflow at x^2 = MAXLOG) and at the special values
    rng = np.random.default_rng(11)
    inputs = []
    for rho in (-0.5, -0.3, 0.0):
        th = model.GaussianNA(rho).theta()
        w = rng.standard_normal(10**6 + 1)
        u = np.multiply(w[1:], th)
        u += w[:-1]
        u /= math.sqrt(1.0 + th * th)
        inputs.append(u)
    inputs.append(rng.uniform(-40.0, 40.0, 10**6))
    edges = (math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * model._MAXLOG))
    inputs.append(np.array([x for e in edges for x in _around(e)]))
    inputs.append(np.array([0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]))
    for a in inputs:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = model.ndtr(a)
        want = ndtr(a)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        bad = got[~nan].view(np.uint64) != want[~nan].view(np.uint64)
        assert not bad.any(), (a[~nan][bad][:5], got[~nan][bad][:5], want[~nan][bad][:5])
    assert model.ndtr(np.zeros((2, 3))).shape == (2, 3)


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
def test_reports_byte_equal_across_threads_and_chunks(monkeypatch, chunk_offset):
    # rows of 64, 256 and 1024 cells (two slabs); reps 1, or three blocks +- 1,
    # so that 2 and 3 threads fork that many workers on four usable CPUs, the
    # last worker's span ending in a partial block
    reps = 1 if chunk_offset is None else 3 * model.BLOCK_REPS + chunk_offset
    _usable_cpus(monkeypatch, 4)
    if reps > 1:
        assert [simulate._workers(t, reps) for t in (1, 2, 3)] == [1, 2, 3]
    fx = load("x2m-example", p=1.0)
    plan = SimPlan(arr=fx.arr, b=fx.b, rows=(64, 256, 1024), reps=reps,
                   eps=(0.1, 0.5, 1.0), seed=41)
    runs = {
        t: (json.dumps(simulate.wlln_estimate(plan, threads=t).to_json_obj(), sort_keys=True),
            json.dumps(simulate.slln_series_estimate(plan, None, 1.0, threads=t).to_json_obj(),
                       sort_keys=True))
        for t in (1, 2, 3)
    }
    assert runs[1] == runs[2] == runs[3]
    if reps > 1:
        doc = json.loads(runs[1][0])
        assert any(0.0 < e["p_hat"] < 1.0 for e in doc["entries"])
        assert len({m["mean"] for m in doc["ratio_means"]}) == 3


def test_chunks_cover_every_replication_once():
    # the parts _key_blocks gives a kernel: every replication once and in
    # order, each with the keys of exactly the blocks it touches.  Parts of
    # whole blocks that start on a block edge, at most TASK_CELLS cells of a
    # row kernel's slab (or COLUMN_GROUP replications) and at least one
    # block, the span's blocks cut evenly into the fewest parts
    block = model.BLOCK_REPS
    slab = simulate.TASK_CELLS // block
    for k, lo, hi in ((1, 0, 5), (64, 0, 2000), (1 << 14, 0, 2000), (1 << 17, 0, 3),
                      (3000, 0, 22), (12, 64, 7 * block + 3), (64, 3 * block, 9 * block)):
        row = max(block, simulate.TASK_CELLS // min(k, slab))
        for size in (row, simulate.COLUMN_GROUP, block, 3 * block - 1):
            parts = list(simulate._key_blocks(0, k, lo, hi, size))
            assert parts[0][0] == lo and parts[-1][1] == hi
            assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
            assert all(0 < z - a <= size for a, z, _ in parts)
            for a, z, keys in parts:
                blocks = np.arange(a // block, -(-z // block))
                assert keys.tolist() == model.stream_keys(0, (k,), blocks).tolist()
            assert all(a % block == 0 for a, _, _ in parts)
            if size == row:
                assert all((z - a) * min(k, slab) <= simulate.TASK_CELLS for a, z, _ in parts)
            lengths = [-(-(z - a) // block) for a, z, _ in parts]
            assert len(lengths) == -(-sum(lengths) // (size // block))
            assert max(lengths) - min(lengths) <= 1
    with pytest.raises(ValueError, match="does not start a block"):
        next(simulate._key_blocks(0, 4, 5, 100, 64))
    with pytest.raises(ValueError, match="hold no whole block"):
        next(simulate._key_blocks(0, 4, 0, 100, block - 1))


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
    assert simulate._workers(10**20, 3) == 1  # one block of replications
    assert simulate._workers(10**20, 129) == 3
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


def _x2m_block_edges_plan():
    # rows of 1, 63, 64, 65, 130 and 700 sure cells: path ends inside a
    # 64-cell block and on a block edge, and a row of 11 sign words
    fx = load("x2m-example", p=1.0)
    return SimPlan(arr=fx.arr, b=fx.b, rows=(1, 63, 64, 65, 130, 700), reps=37,
                   eps=(0.1, 0.5, 1.0), seed=43)


def _x2m_weighted_plan():
    fx = load("x2m-example", p=1.0)
    return SimPlan(arr=fx.arr, b=fx.b, rows=(65, 130, 300), reps=37, eps=(0.1, 0.5, 1.0),
                   seed=47, c=lambda n, i: 1.0 + (i % 3) / n)


def _ex21_plan():
    # grouped rows: n // 2 cells of +-1, then cells of +-n
    fx = load("example-2.1")
    return SimPlan(arr=fx.arr, b=fx.b, rows=(1, 4, 65, 130), reps=37, eps=(0.5, 1.0), seed=7)


def _counterexample_plan():
    fx = load("wlln-counterexample")
    return SimPlan(arr=fx.arr, b=fx.b, rows=(16, 64, 130), reps=37, eps=(0.5, 1.0), seed=9,
                   c=fx.c_fn)


KERNEL_PLANS = {"x2m-example": _x2m_plan, "example-4.1": _ex41_plan,
                "gaussian-na-spec": _na_spec_plan, "x2m-block-edges": _x2m_block_edges_plan,
                "x2m-weighted": _x2m_weighted_plan, "example-2.1": _ex21_plan,
                "wlln-counterexample": _counterexample_plan}
# its weights put all their mass on a row's last cell: every p_hat is 0 or 1
DETERMINISTIC = {"wlln-counterexample"}


def _mode_bytes(plan, threads):
    wlln = simulate.wlln_estimate(plan, threads=threads)
    series = simulate.slln_series_estimate(plan, None, 1.0, threads=threads)
    path = None  # paths need a sequence-shaped array
    if plan.arr.is_sequence:
        path = simulate.slln_path_diagnostic(plan, threads=threads).suffix_sups.tobytes()
    return (json.dumps(wlln.to_json_obj(), sort_keys=True),
            json.dumps(series.to_json_obj(), sort_keys=True), path)


def _sure_rows(plan) -> set:
    """The rows of ``plan`` whose cells are all sure-magnitude cells."""
    return {n for n in plan.rows
            if (s := model.RowSampler(plan.arr, n)).n_sure == s.k}


def _column_rows(monkeypatch) -> list:
    """Record the row of every span the column kernel sums in this process."""
    rows, inner = [], simulate._Spans._columns

    def spy(self, n, *args):
        rows.append(n)
        return inner(self, n, *args)

    monkeypatch.setattr(simulate._Spans, "_columns", spy)
    return rows


@pytest.mark.skipif(not FORK, reason="worker processes need the fork start method")
@pytest.mark.parametrize("task_cells", [None, 48])
@pytest.mark.parametrize("case", sorted(KERNEL_PLANS))
def test_every_mode_is_byte_equal_across_workers_and_chunks(monkeypatch, case, task_cells):
    # three workers even on a two-CPU host: 150 replications, two full blocks
    # and a partial one, give 2 and 3 threads that many forked workers, which
    # inherit the patches.  48 cells cut every row into one-cell slabs, drawn
    # a block at a time.  150 replications stay below COLUMN_REPS, so every
    # span runs the row kernel; with COLUMN_REPS at 1 every span of sure cells
    # runs the column kernel, in groups of one block (at 48 cells, in passes
    # of one word)
    _usable_cpus(monkeypatch, 4)
    if task_cells is not None:
        monkeypatch.setattr(simulate, "TASK_CELLS", task_cells)
    plan = dataclasses.replace(KERNEL_PLANS[case](), reps=150)
    assert [simulate._workers(t, plan.reps) for t in (1, 2, 3)] == [1, 2, 3]
    assert plan.reps < simulate.COLUMN_REPS
    runs = {k: _mode_bytes(plan, k) for k in (1, 2, 3)}
    assert runs[1] == runs[2] == runs[3]
    monkeypatch.setattr(simulate, "COLUMN_REPS", 1)
    monkeypatch.setattr(simulate, "COLUMN_GROUP", model.BLOCK_REPS)
    assert all(_mode_bytes(plan, k) == runs[1] for k in (1, 2, 3))
    if plan.arr.is_sequence:
        assert runs[1][2] == reference_suffix_sups(plan).tobytes()
    doc = json.loads(runs[1][0])
    assert any(0.0 < e["p_hat"] < 1.0 for e in doc["entries"]) or case in DETERMINISTIC


@pytest.mark.parametrize("case", sorted(KERNEL_PLANS))
def test_key_blocks_do_not_move_the_bytes(monkeypatch, case):
    # 150 replications, two full blocks and a partial one, cut at 48 cells
    # into one-cell slabs, drawn a block at a time
    plan = dataclasses.replace(KERNEL_PLANS[case](), reps=150)
    whole = _mode_bytes(plan, 1)
    inner = model.RowSampler.draw_words
    monkeypatch.setattr(simulate, "TASK_CELLS", 48)
    assert _mode_bytes(plan, 1) == whole
    # and the column kernel at each (TASK_CELLS, COLUMN_GROUP), in passes of
    # TASK_CELLS // COLUMN_GROUP words: of 4 words in groups of one block; of
    # 6, which no Philox counter need start; of 24; all 150 at once in passes
    # of 64 words; and of 128 words in a group of one block, then one of a
    # full block and the partial one
    monkeypatch.setattr(simulate, "COLUMN_REPS", 1)
    columns = _column_rows(monkeypatch)

    def draw_words(keys, gen, out, first_word=0):  # G·W words at most
        assert out.size <= simulate.TASK_CELLS
        inner(keys, gen, out, first_word)

    monkeypatch.setattr(model.RowSampler, "draw_words", staticmethod(draw_words))
    for setting in ((256, 64), (384, 64), (1536, 64), (1 << 15, 512), (1 << 14, 128)):
        for name, value in zip(("TASK_CELLS", "COLUMN_GROUP"), setting):
            monkeypatch.setattr(simulate, name, value)
        columns.clear()
        assert _mode_bytes(plan, 1) == whole, setting
        assert set(columns) == _sure_rows(plan)


def test_column_kernel_runs_from_column_reps_on():
    # a span of COLUMN_REPS replications of a row of sure cells sums across
    # them; one replication fewer, or a row with a two-point cell, does not
    x2m, ex41 = load("x2m-example", p=1.0), load("example-4.1")
    for arr, reps, ran in ((x2m.arr, simulate.COLUMN_REPS, [64]),
                           (x2m.arr, simulate.COLUMN_REPS - 1, []),
                           (ex41.arr, simulate.COLUMN_REPS, [])):
        with pytest.MonkeyPatch.context() as mp:
            columns = _column_rows(mp)
            spans = simulate._Spans(SimPlan(arr=arr, b=power_norming(1.0), rows=(64,),
                                            reps=reps), (64,))
            spans(0, 0, reps)
            assert columns == ran


@pytest.mark.parametrize("reps", [simulate.COLUMN_REPS, 20])
def test_sums_past_float_range_exit_2_through_either_kernel(tmp_path, capsys, monkeypatch, reps):
    # sure cells of magnitude 1e308: two of one sign sum to +-inf.  Weighted
    # by 1e10 every draw is +-inf, and +inf + -inf is NaN.  COLUMN_REPS
    # replications sum across them, 20 run the row kernel
    columns = _column_rows(monkeypatch)
    big = {"kind": "symmetric-two-point", "magnitude": 1e308, "prob": 1.0}
    cells = [{"n": n, "i": i, "dist": big} for n in range(1, 5) for i in range(1, n + 1)]
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "sequence": True, "cells": cells,
                                "b": {"kind": "explicit", "values": [1.0, 2.0, 3.0, 4.0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        for mode in ("wlln", "slln-path"):
            rc = cli_main(["simulate", "--spec", str(spec), "--mode", mode, "--rows", "1..4",
                           "--reps", str(reps), "--out", str(tmp_path / mode)])
            assert rc == 2
            assert "a partial sum leaves float range" in capsys.readouterr().err
            assert not list(tmp_path.glob(mode + ".*"))
        arr = model.sequence_array(lambda i: model.SymmetricTwoPoint(1e300))
        plan = SimPlan(arr=arr, b=power_norming(1.0), rows=(70,), reps=reps, c=lambda n, i: 1e10)
        maxima = simulate._Spans(plan, plan.rows)(0, 0, reps)
        assert np.isnan(maxima).all()  # every row holds both signs within 70 cells
        with pytest.raises(simulate.SamplingError, match="row 70: a partial sum leaves"):
            simulate.wlln_estimate(plan)
    assert bool(columns) == (reps >= simulate.COLUMN_REPS)


def test_path_rows_may_repeat():
    plan = dataclasses.replace(_na_spec_plan(), rows=(2, 8, 8, 9, 40, 40))
    rep = simulate.slln_path_diagnostic(plan)
    assert rep.suffix_sups.tobytes() == reference_suffix_sups(plan).tobytes()


# ---------------------------------------------------------------------------
# estimates against exact oracles
# ---------------------------------------------------------------------------


def walk_exceedance_count(n: int, t: int) -> int:
    """Paths, out of the 2^n of a fair +-1 walk, with max_{j<=n} |S_j| >= t (t >= 1).

    An exact forward pass in integers over the positions -t+1..t-1, absorbing
    at +-t (Feller, vol. 1, ch. III): ``inside[x + t - 1]`` counts the paths
    at x that have not reached +-t.
    """
    inside = np.zeros(2 * t - 1, dtype=object)
    inside[t - 1] = 1
    for _ in range(n):
        step = np.zeros_like(inside)
        step[:-1] += inside[1:]
        step[1:] += inside[:-1]
        inside = step
    return 2**n - int(inside.sum())


def exceedance_level(b: float, eps: float) -> int:
    """The least integer M with M / b > eps in floats, as the estimator compares."""
    m = max(int(eps * b) - 2, 0)
    while not m / b > eps:
        m += 1
    return m


def binomial_region(reps: int, p: float, alpha: float = 1e-9) -> tuple[int, int]:
    """Counts [lo, hi] of Binomial(reps, p) with at most alpha/2 of mass past each end."""
    logs = [math.lgamma(reps + 1) - math.lgamma(c + 1) - math.lgamma(reps - c + 1)
            + c * math.log(p) + (reps - c) * math.log1p(-p) for c in range(reps + 1)]
    pmf = [math.exp(v) for v in logs]
    ends = []
    for order in (range(reps + 1), range(reps, -1, -1)):
        tail = 0.0
        for c in order:
            if tail + pmf[c] > alpha / 2:
                ends.append(c)
                break
            tail += pmf[c]
    return ends[0], ends[1]


def test_walk_exceedance_count_small_cases():
    assert walk_exceedance_count(1, 1) == 2
    assert walk_exceedance_count(3, 2) == 4  # the walks inside (-2, 2) are at 0 at step 2
    assert walk_exceedance_count(4, 3) == 4  # +++ and --- then either step
    # by brute force over every path
    for n, t in ((6, 2), (8, 3), (9, 4)):
        paths = itertools.product((-1, 1), repeat=n)
        want = sum(max(abs(v) for v in itertools.accumulate(path)) >= t for path in paths)
        assert walk_exceedance_count(n, t) == want


def test_wlln_estimate_matches_exact_walk_probability():
    """Counts of max_j |S_j| / sqrt(n) > eps for fair +-1 signs, rows 2^6..2^12,
    inside the binomial regions of the exact walk law (false alarm 1e-9 a cell),
    at one and two worker processes."""
    plan = _pm1_plan(rows=tuple(2**j for j in range(6, 13)), eps=(0.75, 1.25, 2.0),
                     reps=2000, seed=21, b=power_norming(2.0))
    reports = [simulate.wlln_estimate(plan, threads=t) for t in (1, 2)]
    assert reports[0] == reports[1]
    for n in plan.rows:
        for eps in plan.eps:
            t = exceedance_level(float(plan.b(n)), eps)
            p = walk_exceedance_count(n, t) / 2**n
            assert 0.05 < p < 0.95, (n, eps)
            lo, hi = binomial_region(plan.reps, p)
            count = round(reports[0].p_hat(n, eps) * plan.reps)
            assert lo <= count <= hi, (n, eps, count, p * plan.reps)


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
    exact = walk_exceedance_count(64, 33) / 2**64  # stat > 0.5 means max|S| >= 33
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
    arr = dataclasses.replace(model.sequence_array(lambda i: model.SymmetricTwoPoint(1.0)),
                              dependence=model.GaussianNA(-0.5))
    products = [
        float(np.mean(path[:-1] * path[1:]))
        for _, path in sequence_paths(arr, 400, 50, seed=3)
    ]
    assert np.mean(products) == pytest.approx(-1.0 / 3.0, abs=0.03)


# two-sided Student t quantile at 1e-6 for 59 degrees of freedom:
# scipy.stats.t.ppf(1 - 5e-7, 59) = 5.4593
T59_AT_1E6 = 5.46


@given(
    rho=st.floats(-0.5, -0.2),
    mag=st.sampled_from([1.0, 2.5]),
    seed=st.integers(0, 2**20),
)
@example(rho=-0.375, mag=1.0, seed=29604)  # 3.9 standard errors off: failed a fixed 0.05
@settings(max_examples=8, deadline=None)
def test_na_sequences_keep_negative_neighbour_correlation(rho, mag, seed):
    # for cells m sign(Z_i), E X_i X_i+1 = m^2 (2/pi) arcsin(rho); on two
    # cells the probe ratio E max(|S_1|, |S_2|)^2 / 2 m^2 is (1 + 3 P(same sign)) / 2
    cell = model.SymmetricTwoPoint(mag)
    arr = dataclasses.replace(model.sequence_array(lambda i: cell),
                              dependence=model.GaussianNA(rho))
    sign_corr = 2.0 / math.pi * math.asin(rho)
    # the products along a path are dependent (2-dependent), the 60 paths are
    # independent: the path means give a batch-means standard error, and the
    # bound fails a correct sampler with probability at most 1e-6 while the
    # path means (each of 100 bounded products) are normal
    means = np.array([np.mean(path[:-1] * path[1:]) / mag**2
                      for _, path in sequence_paths(arr, 101, 60, seed)])
    mean, se = means.mean(), means.std(ddof=1) / math.sqrt(len(means))
    assert abs(mean - sign_corr) <= T59_AT_1E6 * se
    assert mean < -0.05
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
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    exact = exact_probe_ratio_pm1(8)
    est = simulate.condition_h_probe(arr, 1.0, 8, reps=3000, seed=17)
    assert est == pytest.approx(exact, rel=0.1)


def test_condition_h_probe_single_cell_bounded_by_one():
    # exact ratio is variance / second moment = 1; allow 4-se sampling slack
    arr = identical_array(model.SymmetricTwoPoint(2.0, 0.5))
    reps = 20_000
    est = simulate.condition_h_probe(arr, 3.0, 1, reps=reps, seed=3)
    se = (2.0 / math.sqrt(reps)) / 2.0  # sd(X^2)=2, rhs=2
    assert est <= 1.0 + 4 * se


def test_condition_h_probe_iid_doob_range():
    arr = identical_array(model.SymmetricTwoPoint(1.0))
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


PROBE_ARRAYS = {
    dep: model.ArraySpec(
        row_length=lambda n: n,
        groups_fn=lambda n: (model.CellGroup(n - n // 3, model.SymmetricTwoPoint(1.0)),
                             model.CellGroup(n // 3, model.ParetoTail(3.0))),
        dependence=model.GaussianNA(-0.3) if dep == "gaussian-na" else model.Independent(),
    )
    for dep in ("independent", "gaussian-na")
}


@pytest.mark.parametrize("task_cells", [None, 48])
@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("dep", sorted(PROBE_ARRAYS))
def test_condition_h_probe_equals_the_per_replication_loop(monkeypatch, dep, a, task_cells):
    # 48 cells cut the 21-cell row into one-cell slabs, drawn a block at a time
    if task_cells is not None:
        monkeypatch.setattr(simulate, "TASK_CELLS", task_cells)
    arr = PROBE_ARRAYS[dep]
    got = simulate.condition_h_probe(arr, a, 21, reps=301, seed=12)
    assert got == reference_condition_h_probe(arr, a, 21, reps=301, seed=12)


def test_condition_h_probe_degenerate_cells_rejected():
    # clamped to [0, 0], every cell is 0: sum_i E(clamped X_i)^2 = 0
    arr = identical_array(model.SymmetricTwoPoint(1.0))
    with pytest.raises(ValueError, match="degenerate"):
        simulate.condition_h_probe(arr, 0.0, 4, reps=10, seed=1)


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
