"""``model.step_columns``, the one law table behind the scans and the sampler.

``ref_renumbering`` is the law numbering ``RowTable`` built before the table
was shared: each distinct law in entry order, then a stable sort that puts
the +-1 and two-point laws first.  The shared table keeps a step law only as
its (magnitude, prob) pair and orders the pairs, so the checks compare each
entry's law, not the raw index: a step entry must point at its pair in the
``mag``/``prob`` columns, which hold the reference's pairs once each, sorted;
any other entry at its law in ``others``, listed once by its first entry.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from llnlab import conditions, model, specio
from llnlab.fixtures import FIXTURE_NAMES, load
from spec_reference import reference_problem, spec_docs
from test_step_columns import _tie_array, ref_series_evidence


def ref_renumbering(dists):
    ids = {}
    law = [ids.setdefault(d, len(ids)) for d in dists]
    found = list(ids)
    steps = [model.step_law(d) for d in found]
    order = sorted(range(len(found)), key=lambda j: steps[j] is None)
    n_steps = len(found) - steps.count(None)
    rank = np.empty(len(found), dtype=np.intp)
    rank[order] = np.arange(len(found))
    laws = tuple(found[j] for j in order)
    mag = [steps[j][0] for j in order[:n_steps]]
    prob = [steps[j][1] for j in order[:n_steps]]
    return rank[np.array(law, dtype=np.intp)], laws, mag, prob


def entries(arr, lo, hi, by_row):
    """(dist, (row, first cell, count)) of each entry, read cell by cell."""
    if not by_row:
        return [(arr.sequence_cell(i), None) for i in range(lo, hi + 1)]
    out = []
    for n in range(lo, hi + 1):
        pos = 0
        for g in arr.row_groups(n):
            out.append((g.dist, (n, pos + 1, g.count)))
            pos += g.count
    return out


def check_table(arr, lo, hi, by_row=False, ref=None):
    """``step_columns`` of ``arr`` against the old renumbering of the entries of
    ``ref`` (``arr`` itself when None), read cell by cell."""
    law, others, mag, prob, layout = model.step_columns(arr, lo, hi, by_row=by_row)
    want = entries(arr if ref is None else ref, lo, hi, by_row)
    dists = [d for d, _ in want]
    ref_law, ref_laws, ref_mag, ref_prob = ref_renumbering(dists)
    n_steps = len(mag)
    assert law.shape == (len(dists),) and law.dtype == np.intp
    assert all(model.step_law(d) is None for d in others)
    assert len(set(others)) == len(others)  # each other law once
    assert mag.dtype == prob.dtype == np.float64
    for j, d in enumerate(dists):
        assert ref_laws[ref_law[j]] == d
        step = model.step_law(d)
        if step is None:
            assert law[j] >= n_steps and others[law[j] - n_steps] == d
        else:
            assert law[j] < n_steps and (mag[law[j]], prob[law[j]]) == step
    # each step law once, sorted by its pair
    assert list(zip(mag.tolist(), prob.tolist())) == sorted(set(zip(ref_mag, ref_prob)))
    assert len(others) == len(ref_laws) - len(ref_mag)
    # every other law is listed by the first entry that has it
    for i, d in enumerate(others):
        assert dists[int(np.argmax(law == n_steps + i))] == d
    if by_row:
        assert layout.tolist() == [list(span) for _, span in want]
    else:
        assert layout is None
    return law, others, mag, prob


HEAVY = model.ParetoTail(1.0)  # a third Pareto law, with no mean
PALETTE = (
    model.SymmetricTwoPoint(1.0),
    model.SymmetricTwoPoint(1.0, 1.0),  # the +-1 law again, its prob spelled out
    model.SymmetricTwoPoint(2.5, 0.4),
    model.SymmetricTwoPoint(2.5, 0.7),
    model.SymmetricTwoPoint(4.0, 0.4),
    model.ParetoTail(2.5),
    model.ParetoTail(3.0, 1.5),
    HEAVY,
)


def mixed_rows(n_max=30):
    """Grouped rows whose groups repeat laws across rows, equal laws built as
    fresh objects, with a group of several cells now and then."""
    def groups(n):
        out = []
        for i in range(1 + n % 4):
            d = PALETTE[(n * 3 + i * 5) % len(PALETTE)]
            if isinstance(d, model.SymmetricTwoPoint):
                d = model.SymmetricTwoPoint(d.magnitude, d.prob)
            out.append(model.CellGroup(1 + (n + i) % 3, d))
        return tuple(out)

    return model.ArraySpec(row_length=lambda n: sum(g.count for g in groups(n)),
                           groups_fn=groups, n_max=n_max)


def mixed_sequence():
    return model.sequence_array(lambda i: PALETTE[(i * i + i // 3) % len(PALETTE)])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_tables_match_the_old_renumbering(name):
    fx = load(name)
    for weights in (model.uniform_weights(fx.arr.row_length), fx.weights):
        table = model.RowTable(fx.arr, weights, 300)
        law, others, mag, prob = check_table(fx.arr, 1, table.top, by_row=not table._prefix)
        assert table.others == others
        assert np.array_equal(table.mag, mag) and np.array_equal(table.prob, prob)
        assert np.array_equal(table._law, law)


def test_fixture_samplers_and_series_runs_match_the_old_renumbering():
    for name in FIXTURE_NAMES:
        arr = load(name).arr
        for n in (1, 7, 64):
            if arr.is_sequence:
                check_table(arr, 1, arr.k(n))
            check_table(arr, n, n, by_row=True)
    ex41 = load("example-4.1").arr
    for lo, hi in ((1, 1), (2, 3), (512, 1023), (70_000, 70_100)):
        check_table(ex41, lo, hi)


def test_mixed_laws_match_the_old_renumbering():
    rows, seq = mixed_rows(), mixed_sequence()
    law, others, mag, prob = check_table(rows, 1, 30, by_row=True)
    assert len(mag) + len(others) < len(law)  # laws repeat across rows
    assert set(others) == {model.ParetoTail(2.5), model.ParetoTail(3.0, 1.5), HEAVY}
    # +-1 and the two-point (1.0, 1.0) are one law
    assert list(zip(mag.tolist(), prob.tolist())).count((1.0, 1.0)) == 1
    check_table(seq, 1, 200)
    check_table(seq, 1, 12, by_row=True)
    check_table(seq, 57, 57)
    for n in (1, 2, 9, 30):
        check_table(rows, n, n, by_row=True)


def test_empty_run():
    law, others, mag, prob, layout = model.step_columns(mixed_sequence(), 1, 0)
    assert len(law) == len(others) == len(mag) == len(prob) == 0 and layout is None
    law, others, mag, prob, layout = model.step_columns(mixed_rows(), 1, 0, by_row=True)
    assert len(law) == len(others) == len(mag) == 0 and layout.shape == (0, 3)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_series_runs_of_any_length_keep_the_evidence(monkeypatch, chunk):
    monkeypatch.setattr(conditions, "SERIES_CHUNK", chunk)
    cases = ((_tie_array(1.0), 1.0, 1000), (load("example-4.1").arr, 0.5, 777),
             (load("x2m-example").arr, 0.5, 1025), (mixed_sequence(), 1.0, 300))
    for arr, p, N in cases:
        assert repr(conditions.exceedance_series(arr, p, N).evidence) == \
            repr(ref_series_evidence(arr, p, N))


def _counting(monkeypatch, name):
    calls = []
    real = getattr(model, name)
    monkeypatch.setattr(model, name, lambda d: calls.append(d) or real(d))
    return calls


def test_each_other_law_is_looked_up_once_per_table_and_sampler(monkeypatch):
    tails = _counting(monkeypatch, "tail_of")
    quantiles = _counting(monkeypatch, "quantile_of")
    others = {model.ParetoTail(2.5), model.ParetoTail(3.0, 1.5), HEAVY}
    for arr in (mixed_rows(), mixed_sequence()):
        model.RowTable(arr, model.uniform_weights(arr.row_length), 30)
        assert sorted(map(repr, tails)) == sorted(map(repr, others))
        tails.clear()
    for arr, n in ((mixed_rows(), 27), (mixed_sequence(), 40)):
        sampler = model.RowSampler(arr, n)
        assert len(quantiles) == len(set(quantiles)) == len(sampler._others) <= 3
        quantiles.clear()
    assert tails == []


# ---------------------------------------------------------------------------
# explicit-cell specs: law columns against the cells read one by one
# ---------------------------------------------------------------------------


def assert_same_table(got, want):
    (law, others, mag, prob, layout), (rlaw, rothers, rmag, rprob, rlayout) = got, want
    assert law.dtype == rlaw.dtype and np.array_equal(law, rlaw)
    assert others == rothers
    assert mag.tobytes() == rmag.tobytes() and prob.tobytes() == rprob.tobytes()
    if rlayout is None:
        assert layout is None
    else:
        assert layout.dtype == rlayout.dtype and np.array_equal(layout, rlayout)


@settings(max_examples=150, deadline=None)
@given(spec_docs())
def test_spec_columns_match_the_cell_by_cell_tables(doc):
    arr = specio.load_spec_obj(doc).arr
    ref, _ = reference_problem(doc)
    assert arr.law_columns is not None and arr.groups_fn is None
    top = arr.n_max
    runs = [(1, top), (top, top), (1, 1), (2, top), (1, 0)]
    for lo, hi in runs:
        check_table(arr, lo, hi, by_row=True, ref=ref)
        assert_same_table(model.step_columns(arr, lo, hi, by_row=True),
                          model.step_columns(ref, lo, hi, by_row=True))
    if arr.is_sequence:
        for lo, hi in runs:
            check_table(arr, lo, hi, ref=ref)
            assert_same_table(model.step_columns(arr, lo, hi),
                              model.step_columns(ref, lo, hi))
        assert [arr.sequence_cell(i) for i in range(1, top + 1)] == \
            [ref.sequence_cell(i) for i in range(1, top + 1)]
    for n in range(1, top + 1):
        assert arr.row_groups(n) == ref.row_groups(n)


def _specgen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
    spec = importlib.util.spec_from_file_location("specgen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _count(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_a_spec_loads_and_lays_out_with_no_walk_per_cell(tmp_path, monkeypatch):
    # the benchmark's generated spec: 64 rows, 2,080 cells, 17 laws
    path = tmp_path / "spec.json"
    _specgen().write_spec(path, 7)
    dists = {json.dumps(c["dist"]) for c in json.loads(path.read_text())["cells"]}
    calls = {}
    for owner, name in ((specio, "parse_dist"), (model, "CellGroup"), (model, "step_law"),
                        (model.WeightScheme, "range_sum"), (model.WeightColumn, "__call__")):
        _count(monkeypatch, owner, name, calls)
    sp = specio.load_spec(path)
    assert calls == {"parse_dist": len(dists)} and len(dists) == 17
    calls.clear()
    for weights in (model.uniform_weights(sp.arr.row_length), sp.weights):
        model.RowTable(sp.arr, weights, 10_000)
    assert calls == {"step_law": 2 * len(sp.arr.law_columns.laws)}
    calls.clear()
    assert sp.weights.c0(10_000)[1] >= 1  # one math.fsum of a column slice per row
    assert calls == {"__call__": sp.arr.n_max}
    calls.clear()
    model.RowSampler(sp.arr, 64)
    assert calls == {"step_law": len(sp.arr.law_columns.laws)}
