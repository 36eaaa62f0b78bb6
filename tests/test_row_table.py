"""The row-table scan kernel against the scalar row loops it replaced.

The reference functions below are the per-row Python loops that computed
the tail sups, the weighted row values and C0 before ``model.RowTable``.
Both sides add in the same order, so every comparison is exact (``==``).
"""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.random import Generator, Philox

from llnlab import cli, domination, model
from llnlab.fixtures import load
from llnlab.moments import (MomentFunction, cell_moment, cell_transformed_tail_mass,
                            truncated_abs_moment)
from llnlab.specio import load_spec_obj
from spec_reference import reference_problem, spec_docs
from test_row_sampler import assert_same_bits, reference_row


# ---------------------------------------------------------------------------
# scalar reference loops
# ---------------------------------------------------------------------------


def _top(n_sup, *bounds):
    return min([n_sup, *(b for b in bounds if b is not None)])


def ref_cesaro_tail_sup(arr, x, n_sup):
    top = _top(n_sup, arr.n_max)
    if arr.is_sequence:
        best = 0.0
        acc = 0.0
        for i in range(1, top + 1):
            acc += model.tail_of(arr.sequence_cell(i)).fn(x)
            best = max(best, acc / i)
        return best
    best = 0.0
    for n in range(1, top + 1):
        k = arr.k(n)
        acc = 0.0
        for g in arr.row_groups(n):
            acc += g.count * model.tail_of(g.dist).fn(x)
        best = max(best, acc / k)
    return best


def _scanned(arr, w=None):
    """The array (and weights) with their closed-form sups stripped: the scan path."""
    arr = dataclasses.replace(arr, closed_cesaro_sup=None)
    if w is None:
        return arr
    return arr, dataclasses.replace(w, closed_weighted_sup=None)


def ref_weighted_tail_sup(arr, w, x, n_sup):
    if w.kind == "uniform":
        return ref_cesaro_tail_sup(arr, x, n_sup)
    best = 0.0
    for n in range(1, _top(n_sup, arr.n_max, w.n_max) + 1):
        pos = 0
        acc = 0.0
        for g in arr.row_groups(n):
            acc += w.range_sum(n, pos + 1, pos + g.count) * model.tail_of(g.dist).fn(x)
            pos += g.count
        best = max(best, acc)
    return best


def law_row_values(table, cell_value):
    """Row values of ``cell_value``, called once per law: a step column as its
    ``SymmetricTwoPoint``, through ``RowTable.split_row_values``."""
    steps = [cell_value(model.SymmetricTwoPoint(m, q))
             for m, q in zip(table.mag.tolist(), table.prob.tolist())]
    return table.split_row_values(np.array(steps, dtype=float), cell_value)


def ref_row_values(arr, w, cell_value, n_sup):
    top = _top(n_sup, arr.n_max, w.n_max)
    uniform = w.kind == "uniform"
    if arr.is_sequence and uniform:
        vals = np.fromiter(
            (cell_value(arr.sequence_cell(i)) for i in range(1, top + 1)),
            dtype=float,
            count=top,
        )
        return np.cumsum(vals) / np.arange(1, top + 1)
    out = np.empty(top, dtype=float)
    cache = {}
    for n in range(1, top + 1):
        pos = 0
        acc = 0.0
        for g in arr.row_groups(n):
            if g.dist not in cache:
                cache[g.dist] = cell_value(g.dist)
            weight = g.count if uniform else w.range_sum(n, pos + 1, pos + g.count)
            acc += weight * cache[g.dist]
            pos += g.count
        out[n - 1] = acc / arr.k(n) if uniform else acc
    return out


def ref_c0(w, n_sup):
    top = _top(n_sup, w.n_max)
    best, best_n = -math.inf, 0
    for n in range(1, top + 1):
        s = w.range_sum(n, 1, w.row_length(n))
        if s > best:
            best, best_n = s, n
    return best, best_n


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

GRID = (-2.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0, 40.0, 1e3, 1e6, 2**60)


def _random_spec(seed, *, rows=24, sequence=False, flavor="sum"):
    """Explicit cells of +-1, two-point and Pareto laws with c-normalized weights."""
    return load_spec_obj(_random_doc(seed, rows=rows, sequence=sequence, flavor=flavor))


def _random_doc(seed, *, rows=24, sequence=False, flavor="sum"):
    """The spec document of ``_random_spec``."""
    rng = random.Random(seed)
    two_point = [
        {"kind": "symmetric-two-point", "magnitude": rng.uniform(1.5, 4.0),
         "prob": rng.uniform(0.2, 0.9)}
        for _ in range(4)
    ]
    pareto = [{"kind": "pareto", "alpha": rng.uniform(1.5, 3.5), "cutoff": 1.0}
              for _ in range(4)]
    laws = [{"kind": "symmetric-pm1"}] + two_point + pareto
    column = [rng.choice(laws) for _ in range(rows)]
    cells, weights = [], []
    for n in range(1, rows + 1):
        for i in range(1, n + 1):
            dist = column[i - 1] if sequence else rng.choice(laws)
            cells.append({"n": n, "i": i, "dist": dist})
            weights.append({"n": n, "i": i, "c": rng.uniform(0.5, 1.5)})
    doc = {
        "p": 1.0,
        "rows": {"k": "n"},
        "cells": cells,
        "sequence": sequence,
        "weights": {"kind": "c-normalized", "flavor": flavor, "values": weights},
    }
    return doc


def _spike_array():
    """Sequence whose spikes sit at 2**60, where float(2**60 - 1) ties with them."""
    def cell(i):
        if i % 3 == 0:
            return model.SymmetricTwoPoint(2.0**60, 1.0 / i)
        if i % 3 == 1:
            return model.ParetoTail(alpha=1.5)
        return model.SymmetricTwoPoint(1.0)

    return model.sequence_array(cell)


def _array_cases():
    cases = [
        (name, fx.arr, fx.weights, n_sup)
        for name, n_sup in (("example-4.1", 64), ("example-2.1", 150),
                            ("wlln-counterexample", 150))
        for fx in [load(name)]
    ]
    specs = {
        "spec-seed1": _random_spec(1),
        "spec-seed2": _random_spec(2),
        "spec-seed3": _random_spec(3),
        "spec-sequence": _random_spec(4, sequence=True),
        "spec-sum-sq": _random_spec(5, flavor="sum-sq"),
    }
    cases += [(name, sp.arr, sp.weights, 10_000) for name, sp in specs.items()]
    cases.append(("spikes", _spike_array(), model.uniform_weights(), 90))
    return cases


CASES = _array_cases()
IDS = [c[0] for c in CASES]


# ---------------------------------------------------------------------------
# exact equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_cesaro_tail_sup_equals_scalar_loop(name, arr, w, n_sup):
    for x in GRID:
        got = domination.cesaro_tail_sup(_scanned(arr), x, n_sup=n_sup)
        assert got == ref_cesaro_tail_sup(arr, x, n_sup), x


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_weighted_tail_sup_equals_scalar_loop(name, arr, w, n_sup):
    for x in GRID:
        got = domination.weighted_tail_sup(*_scanned(arr, w), x, n_sup=n_sup)
        assert got == ref_weighted_tail_sup(arr, w, x, n_sup), x


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_row_values_equal_scalar_loop(name, arr, w, n_sup):
    g = MomentFunction(power=1.5, log_factor_nu=1)
    t = MomentFunction(power=0.5)
    for weights in (w, model.uniform_weights(arr.row_length)):
        table = model.RowTable(arr, weights, n_sup)
        for cell_value in (
            lambda d: cell_moment(d, g),
            lambda d: cell_transformed_tail_mass(d, t, 1.5),
        ):
            got = law_row_values(table, cell_value)
            want = ref_row_values(arr, weights, cell_value, n_sup)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_truncated_moment_columns_equal_the_per_law_moments(name, arr, w, n_sup):
    # a step law's truncated moment is its atom's m^r q on one side of x: the
    # columns give the bytes of truncated_abs_moment called on each step law
    y = model.tail_of(model.SymmetricTwoPoint(2.0**70))  # 1 wherever the scan looks
    table = model.RowTable(arr, model.uniform_weights(arr.row_length), n_sup)
    for r in (0.5, 1.25):
        for x in (0.0, 1.0, 2.5, 1e3, 2**60 - 1, 2**60):
            tb = domination.truncated_moment_bounds(arr, y, r, x, n_sup=n_sup)
            for side, (lhs, _) in (("below", tb.below), ("above", tb.above)):
                want = law_row_values(table, lambda d: float(
                    truncated_abs_moment(model.tail_of(d), r, x, side)))
                assert lhs == float(np.max(want)), (r, x, side)


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_uniform_row_mean_of_one_is_one(name, arr, w, n_sup):
    # Cesaro rows are (sum of counts) / k_n: exactly 1.0, with no rounding of 1/k_n
    table = model.RowTable(arr, model.uniform_weights(arr.row_length), n_sup)
    assert np.all(table.split_row_values(np.ones(len(table.mag)), lambda d: 1.0) == 1.0)


@pytest.mark.parametrize("name,arr,w,n_sup", CASES, ids=IDS)
def test_c0_equals_scalar_loop(name, arr, w, n_sup):
    assert w.c0(n_sup) == ref_c0(w, n_sup)


def _c0_or_error(w, n_sup):
    """C0, or the message of the ValueError of a table whose rows all sum to 0."""
    try:
        return w.c0(n_sup)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(spec_docs())
def test_spec_columns_equal_the_scalar_loops_on_the_cell_by_cell_spec(doc):
    sp = load_spec_obj(doc)
    ref_arr, ref_w = reference_problem(doc)
    g = MomentFunction(power=0.5, log_factor_nu=1)  # finite for every law of the palette
    for n_sup in (1, 5, 10_000):
        for x in (-1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 7.0, 1e6):
            assert domination.cesaro_tail_sup(sp.arr, x, n_sup=n_sup) == \
                ref_cesaro_tail_sup(ref_arr, x, n_sup)
            assert domination.weighted_tail_sup(sp.arr, sp.weights, x, n_sup=n_sup) == \
                ref_weighted_tail_sup(ref_arr, ref_w, x, n_sup)
        for w, rw in ((sp.weights, ref_w), (model.uniform_weights(sp.arr.row_length),
                                            model.uniform_weights(ref_arr.row_length))):
            got = law_row_values(model.RowTable(sp.arr, w, n_sup), lambda d: cell_moment(d, g))
            want = ref_row_values(ref_arr, rw, lambda d: cell_moment(d, g), n_sup)
            assert got.tobytes() == want.tobytes()
        c0 = _c0_or_error(sp.weights, n_sup)
        assert c0 == _c0_or_error(ref_w, n_sup)
        assert isinstance(c0, str) or c0 == ref_c0(ref_w, n_sup)
    for dep in (model.INDEPENDENT, model.GaussianNA(-0.3)):
        arr, ref = (dataclasses.replace(a, dependence=dep) for a in (sp.arr, ref_arr))
        for n in range(1, arr.n_max + 1):
            sampler = model.RowSampler(arr, n)
            keys = model.stream_keys(3, (n,), np.arange(4))
            got = sampler.draw_rows(keys, Generator(Philox(key=0)), sampler.buffers(4))
            for rep, key in enumerate(keys):
                assert_same_bits(got[rep], reference_row(ref, n, Generator(Philox(key=key))))


def test_example_41_full_scan_range():
    arr = load("example-4.1").arr
    for x in (0.5, 3.0, 40.0, 1e3, 2**40):
        assert domination.cesaro_tail_sup(arr, x, n_sup=10_000) == ref_cesaro_tail_sup(
            arr, x, 10_000
        )
    g = MomentFunction(power=0.5, log_factor_nu=1)
    w = model.uniform_weights()
    got = law_row_values(model.RowTable(arr, w, 10_000), lambda d: cell_moment(d, g))
    want = ref_row_values(arr, w, lambda d: cell_moment(d, g), 10_000)
    assert got.tobytes() == want.tobytes()


def test_negative_argument_gives_one():
    for name, arr, w, n_sup in CASES:
        assert domination.cesaro_tail_sup(_scanned(arr), -0.5, n_sup=n_sup) == 1.0


def test_int_argument_past_float_precision_compares_exactly():
    arr = _spike_array()
    below, above = 2**60 - 1, 2**60 + 1
    assert float(below) == float(above) == 2.0**60
    lo = domination.cesaro_tail_sup(_scanned(arr), below, n_sup=90)
    hi = domination.cesaro_tail_sup(_scanned(arr), above, n_sup=90)
    assert lo == ref_cesaro_tail_sup(arr, below, 90)
    assert hi == ref_cesaro_tail_sup(arr, above, 90)
    assert lo > hi  # the spikes at 2**60 exceed 2**60 - 1 but not 2**60 + 1


# ---------------------------------------------------------------------------
# table shape
# ---------------------------------------------------------------------------


def test_table_lists_each_law_once_steps_first():
    sp = _random_spec(1)
    table = model.RowTable(sp.arr, sp.weights, 10_000)
    pairs = list(zip(table.mag.tolist(), table.prob.tolist()))
    assert pairs == sorted(set(pairs))  # each step law once, as a row of the columns
    assert all(model.step_law(d) is None for d in table.others)
    assert len(set(table.others)) == len(table.others)
    assert len(pairs) + len(table.others) <= 9
    assert table.top == 24


def test_empty_scan_is_zero():
    arr = load("example-4.1").arr
    assert domination.cesaro_tail_sup(_scanned(arr), 1.0, n_sup=0) == 0.0


def test_tail_of_called_once_per_distinct_law(monkeypatch):
    calls = []
    real = model.tail_of
    monkeypatch.setattr(model, "tail_of", lambda d: calls.append(d) or real(d))
    sp = _random_spec(2)
    sup = domination.weighted_sup_fn(*_scanned(sp.arr, sp.weights))
    for x in GRID:
        sup(x)
    assert len(calls) == len(set(calls)) <= 4  # the Pareto laws only


# ---------------------------------------------------------------------------
# the row_table memo: one table per (array, weights, n_sup), the two last kept
# ---------------------------------------------------------------------------


def _count_builds(monkeypatch):
    """The tables laid out from here on, each as its (arr, weights, n_sup).  The
    memo outlives a test, so it starts empty."""
    model.row_table.cache_clear()
    builds = []
    init = model.RowTable.__init__
    monkeypatch.setattr(model.RowTable, "__init__",
                        lambda self, *a: builds.append(a) or init(self, *a))
    return builds


def test_a_command_lays_each_table_out_once(tmp_path, monkeypatch, capsys):
    builds = _count_builds(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_random_doc(3)))
    # five scans: the two weighted ones share the c-normalized table, the three
    # Cesaro ones the uniform table
    rc = cli.main(["check", "--spec", str(spec), "--conditions",
                   "weighted-domination,cesaro-domination,ui,bounded-moment,kG-hat",
                   "--n-sup", "200", "--out", str(tmp_path / "a")])
    assert rc == 0 and len(builds) == 2
    builds.clear()
    rc = cli.main(["check", "--fixture", "example-4.1", "--conditions", "ui,bounded-moment",
                   "--n-sup", "200", "--out", str(tmp_path / "b")])
    assert rc == 0 and len(builds) == 1
    assert model.row_table.cache_info().currsize == 2  # all that outlives the commands


def test_a_fixtures_own_uniform_weights_share_the_runners_table(tmp_path, monkeypatch):
    # example-4.1's weights are the Cesaro weights the runners build on
    # arr.row_length, so its Cesaro and weighted scans are one table
    builds = _count_builds(monkeypatch)
    rc = cli.main(["check", "--fixture", "example-4.1", "--conditions",
                   "cesaro-domination,weighted-domination,kG-hat",
                   "--n-sup", "200", "--out", str(tmp_path / "a")])
    assert rc == 0 and len(builds) == 1


def test_tables_are_shared_by_n_sup_up_to_the_memo_bound(monkeypatch):
    builds = _count_builds(monkeypatch)
    sp = _random_spec(4)  # 24 rows: a scan top is min(n_sup, 24)
    first = model.row_table(sp.arr, sp.weights, 30)
    assert model.row_table(sp.arr, sp.weights, 30) is first
    assert model.row_table(sp.arr, sp.weights, 24) is not first  # keyed by n_sup
    assert model.RowTable(sp.arr, sp.weights, 30) is not first  # the class lays out anew
    model.row_table(sp.arr, sp.weights, 12)
    assert model.row_table(sp.arr, sp.weights, 30) is not first  # the oldest went
    assert len(builds) == 5


def test_the_memo_keeps_the_tables_of_the_two_last_problems(monkeypatch):
    builds = _count_builds(monkeypatch)
    for seed in (5, 6, 7):
        sp = _random_spec(seed)
        domination.weighted_sup_fn(sp.arr, sp.weights, n_sup=30)(1.0)
    assert len(builds) == 3
    assert model.row_table.cache_info().currsize == 2


def _files(d):
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


def test_commands_in_one_process_write_what_fresh_processes_write(tmp_path, monkeypatch,
                                                                  capsys):
    # the memos outlive a command: none may hand a later command another's tables or
    # C0.  One --n-sup throughout, so a memo keyed by less than the problem would.
    spec = tmp_path / "mixed.json"
    spec.write_text(json.dumps(_random_doc(3)))
    first = ["check", "--spec", str(spec), "--conditions", "weighted-domination,kG-hat",
             "--n-sup", "200", "--out", "run"]
    runs = [
        first,
        ["check", "--fixture", "example-4.1", "--conditions", "ui,bounded-moment",
         "--n-sup", "200", "--out", "run"],
        ["verify-fixtures", "--only", "example-2.1", "--n-sup", "200", "--n", "1000"],
        first,
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = {}
    for j, argv in enumerate(runs[:3]):
        cwd = tmp_path / f"fresh{j}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "llnlab.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        fresh[j] = (proc.returncode, proc.stdout, proc.stderr, _files(cwd))
        assert proc.returncode == 0 and len(fresh[j][3]) == (0 if j == 2 else 2), proc.stderr
    for j, argv in enumerate(runs):
        cwd = tmp_path / f"in{j}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err, _files(cwd)) == fresh[j % 3], argv
