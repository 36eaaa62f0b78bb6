import functools
import json
import math
import random
import re

import pytest

from llnlab import fixtures, model, specio
from llnlab.errors import SpecError


def explicit_doc():
    return {
        "rows": {"k": "n"},
        "p": 1.0,
        "cells": [
            {"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}},
            {"n": 2, "i": 1, "dist": {"kind": "symmetric-pm1"}},
            {"n": 2, "i": 2, "dist": {"kind": "symmetric-two-point",
                                      "magnitude": 2.0, "prob": 0.5}},
        ],
        "weights": {"kind": "uniform"},
        "b": {"kind": "power", "p": 1.0},
    }


def test_fixture_reference_loads():
    spec = specio.load_spec_obj({"fixture": "example-2.1"})
    fx = fixtures.load("example-2.1")  # the fixture's closed forms, grids and answers
    assert (spec.label, spec.expected, spec.kg_grid, spec.ui_grid, spec.closed.keys()) == \
        (fx.label, fx.expected, fx.kg_grid, fx.ui_grid, fx.closed.keys())
    assert spec.sv is None and spec.expected["c0"] == 1.25
    assert spec.p == 0.5
    assert spec.arr.k(3) == 3


def test_fixture_reference_with_overrides():
    spec = specio.load_spec_obj({"fixture": "x2m-example", "p": 1.0})
    assert spec.p == 1.0
    assert spec.arr.cell(8, 8).magnitude == pytest.approx(8.0 / 3.0)


def test_explicit_cells_document():
    spec = specio.load_spec_obj(explicit_doc())
    assert spec.arr.n_max == 2
    assert isinstance(spec.arr.cell(2, 2), model.SymmetricTwoPoint)
    assert spec.weights.range_sum(2, 1, 2) == pytest.approx(1.0)
    assert spec.b(4) == pytest.approx(4.0)


def test_missing_cell_is_an_error():
    doc = explicit_doc()
    del doc["cells"][1]
    with pytest.raises(SpecError):
        specio.load_spec_obj(doc)


def test_unknown_dist_kind():
    doc = explicit_doc()
    doc["cells"][0]["dist"] = {"kind": "cauchy"}
    with pytest.raises(SpecError):
        specio.load_spec_obj(doc)


def test_bad_dist_params():
    with pytest.raises(SpecError):
        specio.parse_dist({"kind": "symmetric-two-point", "prob": 0.5})
    with pytest.raises(SpecError):
        specio.parse_dist({"kind": "pareto", "alpha": "wide"})


@pytest.mark.parametrize("dist", [
    {"kind": "symmetric-two-point", "magnitude": "2.0"},
    {"kind": "symmetric-two-point", "magnitude": True},
    {"kind": "symmetric-two-point", "magnitude": 2.0, "prob": "0.5"},
    {"kind": "symmetric-two-point", "magnitude": 2.0, "prob": True},
    {"kind": "pareto", "alpha": "3"},
    {"kind": "pareto", "alpha": True},
    {"kind": "pareto", "alpha": 3.0, "cutoff": "1.5"},
    {"kind": "pareto", "alpha": 3.0, "cutoff": False},
    {"kind": "pareto", "alpha": 3.0, "cutoff": None},
], ids=["magnitude-string", "magnitude-bool", "prob-string", "prob-bool", "alpha-string",
        "alpha-bool", "cutoff-string", "cutoff-bool", "cutoff-null"])
def test_dist_numbers_must_be_numbers(dist):
    # float() would take "2.0" and true; a spec states numbers as JSON numbers
    key = [k for k in dist if k != "kind"][-1]
    with pytest.raises(SpecError, match=f"'{key}' must be a number"):
        specio.parse_dist(dist)


def test_dist_numbers_accept_ints_and_floats():
    assert specio.parse_dist({"kind": "symmetric-two-point", "magnitude": 2, "prob": 1}) \
        == specio.parse_dist({"kind": "symmetric-two-point", "magnitude": 2.0})
    assert specio.parse_dist({"kind": "pareto", "alpha": 3}) \
        == specio.parse_dist({"kind": "pareto", "alpha": 3.0, "cutoff": 1.0})


def test_pareto_and_dependence_parsing():
    doc = explicit_doc()
    doc["cells"][0]["dist"] = {"kind": "pareto", "alpha": 3.0}
    doc["dependence"] = {"kind": "gaussian-na", "correlation": -0.2}
    spec = specio.load_spec_obj(doc)
    assert isinstance(spec.arr.dependence, model.GaussianNA)
    assert isinstance(spec.arr.cell(1, 1), model.ParetoTail)


@pytest.mark.parametrize("value", ["-0.3", False, True, None, [-0.3]],
                         ids=["string", "false", "true", "null", "list"])
def test_gaussian_na_correlation_must_be_a_number(value):
    # float() would take "-0.3" and false; a spec states numbers as JSON numbers
    doc = explicit_doc()
    doc["dependence"] = {"kind": "gaussian-na", "correlation": value}
    with pytest.raises(SpecError, match="'correlation' must be a number"):
        specio.load_spec_obj(doc)


def test_gaussian_na_correlation_accepts_ints_and_floats():
    doc = explicit_doc()
    for value in (0, -0.5):
        doc["dependence"] = {"kind": "gaussian-na", "correlation": value}
        assert specio.load_spec_obj(doc).arr.dependence == model.GaussianNA(float(value))
    doc["dependence"] = {"kind": "gaussian-na", "correlation": -0.6}
    with pytest.raises(SpecError, match="correlation must lie in"):
        specio.load_spec_obj(doc)


def test_explicit_weights_parsing():
    doc = explicit_doc()
    doc["weights"] = {
        "kind": "explicit",
        "values": [
            {"n": 1, "i": 1, "a": 1.0},
            {"n": 2, "i": 1, "a": 0.25},
            {"n": 2, "i": 2, "a": 0.75},
        ],
    }
    spec = specio.load_spec_obj(doc)
    assert spec.weights.range_sum(2, 1, 1) == 0.25
    assert spec.weights.range_sum(2, 1, 2) == pytest.approx(1.0)


def test_c_normalized_weights_parsing():
    doc = explicit_doc()
    doc["weights"] = {
        "kind": "c-normalized",
        "flavor": "sum",
        "values": [
            {"n": 1, "i": 1, "c": 2.0},
            {"n": 2, "i": 1, "c": 1.0},
            {"n": 2, "i": 2, "c": 3.0},
        ],
    }
    spec = specio.load_spec_obj(doc)
    assert spec.weights.range_sum(2, 2, 2) == pytest.approx(0.75)
    assert spec.weights.range_sum(2, 1, 2) == pytest.approx(1.0, abs=1e-12)


PM1 = {"kind": "symmetric-pm1"}


def _rows_to_4(cells=(), values=None, kind="explicit"):
    """Complete rows 1..4 of +-1 cells (k_n = n), then ``cells``; with ``values``
    appended to complete weights of that kind."""
    full = [{"n": n, "i": i} for n in range(1, 5) for i in range(1, n + 1)]
    doc = {"rows": {"k": "n"}, "cells": [{**c, "dist": PM1} for c in full] + list(cells)}
    if values is not None:
        field = "a" if kind == "explicit" else "c"
        doc["weights"] = {"kind": kind, "values": [{**c, field: 0.25} for c in full] + values}
    return doc


# each doc and the one entry of it that lies outside the rows or repeats a cell
BAD_ENTRY_CASES = {
    "cell-row-negative": ({"cells": [{"n": -1, "i": 1, "dist": PM1}]}, "cell"),
    "cell-row-zero": ({"cells": [{"n": 0, "i": 1, "dist": PM1}]}, "cell"),
    "cell-index-zero": (_rows_to_4([{"n": 3, "i": 0, "dist": PM1}]), "cell"),
    "cell-past-its-row": (_rows_to_4([{"n": 2, "i": 7, "dist": {
        "kind": "symmetric-two-point", "magnitude": 100.0}}]), "cell"),
    "cell-repeated": (_rows_to_4([{"n": 2, "i": 1, "dist": {
        "kind": "symmetric-two-point", "magnitude": 100.0}}]), "cell"),
    "weight-past-its-row": (_rows_to_4(values=[{"n": 2, "i": 9, "a": 1.0}]), "weight"),
    "weight-past-the-rows": (_rows_to_4(values=[{"n": 5, "i": 1, "a": 1.0}]), "weight"),
    "weight-repeated": (_rows_to_4(values=[{"n": 3, "i": 2, "a": 1.0}]), "weight"),
    "c-weight-past-its-row": (
        _rows_to_4(values=[{"n": 2, "i": 9, "c": 1.0}], kind="c-normalized"), "weight"),
}


@pytest.mark.parametrize("doc,what", BAD_ENTRY_CASES.values(), ids=BAD_ENTRY_CASES.keys())
def test_entries_outside_the_rows_or_repeated_are_errors(doc, what):
    entries = doc["cells"] if what == "cell" else doc["weights"]["values"]
    bad = entries[-1]
    with pytest.raises(SpecError, match=f"^{what} entry {re.escape(repr(bad))} "):
        specio.load_spec_obj(doc)


def _with_entry(doc, what, cell, **change):
    """``doc`` with the entry for ``cell`` (n, i) changed and moved to the end."""
    entries = doc["cells"] if what == "cell" else doc["weights"]["values"]
    j = next(j for j, e in enumerate(entries) if (e["n"], e["i"]) == cell)
    entries.append({**entries.pop(j), **change})
    return doc


# each doc and the kind of its last entry, which names its cell by a value
# that is not a JSON integer; int() would have read each as a cell of the rows
BAD_INDEX_CASES = {
    "cell-row-fraction": (_with_entry(_rows_to_4(), "cell", (2, 1), n=2.7), "cell"),
    "cell-row-integral-float": (_with_entry(_rows_to_4(), "cell", (2, 1), n=2.0), "cell"),
    "cell-row-string": (_with_entry(_rows_to_4(), "cell", (2, 1), n="2"), "cell"),
    "cell-row-true": (_with_entry(_rows_to_4(), "cell", (1, 1), n=True), "cell"),
    "cell-index-fraction": (_with_entry(_rows_to_4(), "cell", (3, 1), i=1.7), "cell"),
    "cell-index-true": (_with_entry(_rows_to_4(), "cell", (3, 1), i=True), "cell"),
    "weight-row-string": (
        _with_entry(_rows_to_4(values=[]), "weight", (4, 2), n="4"), "weight"),
    "weight-index-fraction": (
        _with_entry(_rows_to_4(values=[]), "weight", (4, 2), i=2.5), "weight"),
    "c-weight-index-true": (_with_entry(_rows_to_4(values=[], kind="c-normalized"),
                                        "weight", (2, 1), i=True), "weight"),
}

NAN, INF = float("nan"), float("inf")

# each doc and its last weight entry, whose value a(n, i) may not take
BAD_WEIGHT_CASES = {
    "a-negative": _with_entry(_rows_to_4(values=[]), "weight", (2, 1), a=-1.0),
    "a-infinite": _with_entry(_rows_to_4(values=[]), "weight", (2, 1), a=INF),
    "a-nan": _with_entry(_rows_to_4(values=[]), "weight", (2, 1), a=NAN),
    "a-string": _with_entry(_rows_to_4(values=[]), "weight", (2, 1), a="0.25"),
    "a-true": _with_entry(_rows_to_4(values=[]), "weight", (2, 1), a=True),
    "c-sum-negative": _with_entry(_rows_to_4(values=[], kind="c-normalized"),
                                  "weight", (3, 1), c=-0.1),
    "c-sum-infinite": _with_entry(_rows_to_4(values=[], kind="c-normalized"),
                                  "weight", (3, 1), c=INF),
    "c-sum-sq-nan": _with_entry(_rows_to_4(values=[], kind="c-normalized"),
                                "weight", (3, 1), c=NAN),
}
BAD_WEIGHT_CASES["c-sum-sq-nan"]["weights"]["flavor"] = "sum-sq"


@pytest.mark.parametrize("doc,what", BAD_INDEX_CASES.values(), ids=BAD_INDEX_CASES.keys())
def test_entry_indices_must_be_integers(doc, what):
    entries = doc["cells"] if what == "cell" else doc["weights"]["values"]
    bad = entries[-1]
    with pytest.raises(SpecError, match=f"^bad {what} entry {re.escape(repr(bad))}: "
                                        "'n' and 'i' must be integers"):
        specio.load_spec_obj(doc)


@pytest.mark.parametrize("doc", BAD_WEIGHT_CASES.values(), ids=BAD_WEIGHT_CASES.keys())
def test_weights_must_be_finite_nonnegative_numbers(doc):
    bad = doc["weights"]["values"][-1]
    with pytest.raises(SpecError, match=f"^bad weight entry {re.escape(repr(bad))}: "
                                        "'[ac]' must be a (finite )?number"):
        specio.load_spec_obj(doc)


def test_negative_c_is_a_weight_under_sum_sq():
    # a(n, i) = c^2 / A_n: the sign of c is lost
    doc = _with_entry(_rows_to_4(values=[], kind="c-normalized"), "weight", (3, 1), c=-0.25)
    doc["weights"]["flavor"] = "sum-sq"
    w = specio.load_spec_obj(doc).weights
    assert w.range_sum(3, 1, 3) == 1.0 and w.range_sum(3, 1, 1) == w.range_sum(3, 2, 2)


def _lazy_c_normalized(c_fn, row_length, flavor, n_max):
    """The normaliser ``c-normalized`` weights had before they were normalised at
    load: A_n of a row on its first read, each range summed from the raw c."""

    @functools.cache
    def a_norm(n):
        cs = [c_fn(n, i) for i in range(1, row_length(n) + 1)]
        norm = math.fsum(cs) if flavor == "sum" else math.fsum(c ** 2 for c in cs)
        if not norm > 0.0:
            raise ValueError(f"A_{n} = {norm} must be positive")
        return norm

    def range_sum(n, lo, hi):
        norm = a_norm(n)
        cs = (c_fn(n, i) for i in range(lo, hi + 1))
        return math.fsum((c if flavor == "sum" else c * c) / norm for c in cs)

    return model.explicit_weights(range_sum, row_length, n_max=n_max)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("flavor", ["sum", "sum-sq"])
def test_c_normalized_table_matches_the_lazy_normaliser(flavor, seed):
    # random c of mixed magnitudes, a third of the entries missing (c = 0.0)
    rng = random.Random(seed)
    k = rng.choice(["n", 1, 5])
    n_max = rng.randint(1, 30)
    row_length = (lambda n: n) if k == "n" else (lambda n: k)
    full = [(n, i) for n in range(1, n_max + 1) for i in range(1, row_length(n) + 1)]
    table = {}
    for n, i in full:
        if i == 1 or rng.random() < 2 / 3:  # i = 1 keeps every A_n > 0
            c = rng.uniform(0.5, 10.0) * 10.0 ** rng.randint(-3, 3)
            table[(n, i)] = -c if flavor == "sum-sq" and rng.random() < 0.5 else c
    loaded = specio.load_spec_obj({
        "rows": {"k": k},
        "cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}} for n, i in full],
        "weights": {"kind": "c-normalized", "flavor": flavor,
                    "values": [{"n": n, "i": i, "c": c} for (n, i), c in table.items()]},
    }).weights
    lazy = _lazy_c_normalized(lambda n, i: table.get((n, i), 0.0), row_length, flavor, n_max)
    for n in range(1, n_max + 1):
        for lo in range(1, row_length(n) + 1):
            for hi in range(lo, row_length(n) + 1):
                assert loaded.range_sum(n, lo, hi).hex() == lazy.range_sum(n, lo, hi).hex()
    for n_sup in (1, 7, 64):
        assert loaded.c0(n_sup) == lazy.c0(n_sup)


@pytest.mark.parametrize("weights, message", [
    ({"flavor": "sum", "values": [{"n": 1, "i": 1, "c": 1.0}, {"n": 2, "i": 2, "c": 0}]},
     "A_2 = 0.0 must be positive"),
    ({"flavor": "sum-sq", "values": [{"n": 1, "i": 1, "c": 1.0}, {"n": 2, "i": 2, "c": 1e300}]},
     "A_2 leaves float range"),
    ({"flavor": "sum", "growth_constant": 1.0,
      "values": [{"n": 2, "i": 1, "c": 3.0}, {"n": 1, "i": 1, "c": 1.0}]},
     r"A_2 = 3.0 exceeds declared bound 1.0\*n"),
    ({"flavor": "sum-of-squares", "values": [{"n": 1, "i": 1, "c": 1.0}]},
     "flavor must be 'sum' or 'sum-sq'"),
], ids=["zero-row", "overflow", "growth-bound", "unknown-flavor"])
def test_bad_c_normalized_table_fails_at_load(weights, message):
    # checked when the spec loads, though no weight is ever read
    doc = {"cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
                     for n in (1, 2) for i in range(1, n + 1)],
           "weights": {"kind": "c-normalized", **weights}}
    with pytest.raises(SpecError, match=message):
        specio.load_spec_obj(doc)


def test_b_value_literal_past_float_range_is_a_spec_error(tmp_path):
    # JSON reads 1e999 as inf
    (tmp_path / "s.json").write_text('{"cells": [{"n": 1, "i": 1, "dist": {"kind": '
                                     '"symmetric-pm1"}}], "b": {"kind": "explicit", '
                                     '"values": [1, 1e999]}}')
    with pytest.raises(SpecError, match="'b.values' entry must be a finite number, got inf"):
        specio.load_spec(tmp_path / "s.json")


def test_complete_entry_tables_load():
    for kind in ("explicit", "c-normalized"):
        spec = specio.load_spec_obj(_rows_to_4(values=[], kind=kind))
        assert spec.arr.n_max == 4 and spec.weights.n_max == 4


def _without(doc, *cells):
    doc["weights"]["values"] = [v for v in doc["weights"]["values"]
                                if (v["n"], v["i"]) not in cells]
    return doc


def test_explicit_weight_table_is_complete_at_load():
    # a gap fails when the spec loads, not when a scan first reads the entry
    with pytest.raises(SpecError, match=r"^weight \(n=3, i=2\) missing$"):
        specio.load_spec_obj(_without(_rows_to_4(values=[]), (3, 2)))
    # rows 1..2 are complete, and the table ends there
    short = _without(_rows_to_4(values=[]), (3, 1), (3, 2), (3, 3), *((4, i) for i in range(1, 5)))
    assert specio.load_spec_obj(short).weights.n_max == 2
    # a c of a c-normalized table that is left out is 0
    spec = specio.load_spec_obj(_without(_rows_to_4(values=[], kind="c-normalized"), (3, 2)))
    assert spec.weights.range_sum(3, 2, 2) == 0.0 and spec.weights.range_sum(3, 1, 3) == 1.0


def test_svf_parsing():
    assert specio.parse_svf(None) is None
    assert specio.parse_svf({"family": "constant"}).family == "constant"
    assert specio.parse_svf({"family": "log-power", "gamma": 2.0}).gamma == 2.0
    with pytest.raises(SpecError):
        specio.parse_svf({"family": "mystery"})


def test_file_roundtrip_and_malformed(tmp_path):
    good = tmp_path / "spec.json"
    good.write_text(json.dumps(explicit_doc()))
    spec = specio.load_spec(good)
    assert spec.arr.n_max == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        specio.load_spec(bad)
    with pytest.raises(SpecError):
        specio.load_spec(tmp_path / "missing.json")


def test_top_level_validation():
    with pytest.raises(SpecError):
        specio.load_spec_obj(["not", "an", "object"])
    with pytest.raises(SpecError):
        specio.load_spec_obj({"p": 1.0})


SECTION_AND_NUMBER_CASES = {
    "p-null": {"p": None},
    "nu-null": {"nu": None},
    "p-string": {"p": "1.0"},
    "p-bool": {"p": True},
    "rows-int": {"rows": 5},
    "dependence-string": {"dependence": "independent"},
    "weights-string": {"weights": "uniform"},
    "b-int": {"b": 3},
    "svf-string": {"svf": "constant"},
    "svf-gamma-null": {"svf": {"family": "log-power", "gamma": None}},
    # json reads 1e999 as inf and -1e999 as -inf
    "svf-gamma-infinite": {"svf": {"family": "log-power", "gamma": float("inf")}},
    "svf-gamma-negative-infinite": {"svf": {"family": "loglog-power", "gamma": float("-inf")}},
    "svf-gamma-nan": {"svf": {"family": "log-power", "gamma": float("nan")}},
    "b-p-null": {"b": {"kind": "power", "p": None}},
    "b-values-null": {"b": {"kind": "explicit", "values": [1, None]}},
    "b-values-bool": {"b": {"kind": "explicit", "values": [1, True]}},
    "p-zero": {"p": 0},
    "p-negative": {"p": -0.5},
    "p-nan": {"p": float("nan")},
    "p-infinite": {"p": float("inf")},
    "b-p-zero": {"b": {"kind": "power", "p": 0.0}},
    "b-p-infinite": {"b": {"kind": "power", "p": float("-inf")}},
    "nu-half": {"nu": 1.5},
    "nu-zero": {"nu": 0},
    "nu-negative": {"nu": -2},
    "nu-bool": {"nu": True},
    "nu-nan": {"nu": float("nan")},
    "nu-infinite": {"nu": float("inf")},
    # b_n > 0, finite laws and a finite growth constant: each of these loaded, and
    # simulate then wrote p-hat 0.0 (nan or negative b) or 1.0 (b = 0) on every row
    "b-values-nan": {"b": {"kind": "explicit", "values": [float("nan")]}},
    "b-values-infinite": {"b": {"kind": "explicit", "values": [float("inf")]}},
    "b-values-past-float-range": {"b": {"kind": "explicit", "values": [10**999]}},
    "b-values-zero": {"b": {"kind": "explicit", "values": [0]}},
    "b-values-negative": {"b": {"kind": "explicit", "values": [-1]}},
    "pareto-alpha-infinite": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "pareto", "alpha": float("inf")}}]},
    "pareto-cutoff-infinite": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "pareto", "alpha": 3.0, "cutoff": float("inf")}}]},
    "growth-constant-nan": {"weights": {"kind": "c-normalized", "growth_constant": float("nan"),
                                        "values": [{"n": 1, "i": 1, "c": 1.0}]}},
    "growth-constant-infinite": {"weights": {"kind": "c-normalized",
                                             "growth_constant": float("inf"),
                                             "values": [{"n": 1, "i": 1, "c": 1.0}]}},
    "sequence-string": {"sequence": "false"},
    "sequence-int": {"sequence": 1},
    "sequence-null": {"sequence": None},
    "rows-k-bool": {"rows": {"k": True}},
    "rows-k-float": {"rows": {"k": 1.0}},
    "rows-k-zero": {"rows": {"k": 0}},
    "label-int": {"label": 5},
    "label-null": {"label": None},
}


@pytest.mark.parametrize("extra", SECTION_AND_NUMBER_CASES.values(),
                         ids=SECTION_AND_NUMBER_CASES.keys())
def test_sections_and_numbers_are_checked(extra):
    doc = {"cells": [{"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}}], **extra}
    with pytest.raises(SpecError, match="must be a"):
        specio.load_spec_obj(doc)


@pytest.mark.parametrize("extra", [{"p": None}, {"nu": "2"}, {"svf": "constant"}],
                         ids=["p-null", "nu-string", "svf-string"])
def test_fixture_reference_checks_its_numbers_and_svf(extra):
    with pytest.raises(SpecError, match="must be a"):
        specio.load_spec_obj({"fixture": "example-2.1", **extra})


@pytest.mark.parametrize("fixture", ["example-4.1", "x2m-example"])
@pytest.mark.parametrize("nu", [1.5, 0, 0.0, -1, float("nan"), float("inf"), True],
                         ids=["half", "zero", "zero-float", "negative", "nan", "inf", "bool"])
def test_fixture_reference_checks_its_nu(fixture, nu):
    with pytest.raises(SpecError, match="must be a"):
        specio.load_spec_obj({"fixture": fixture, "nu": nu})


def test_nu_literal_past_float_range_is_a_spec_error(tmp_path):
    for doc in ('{"fixture": "x2m-example", "nu": 1e999}',
                '{"cells": [{"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}}], "nu": 1e999}'):
        (tmp_path / "s.json").write_text(doc)
        with pytest.raises(SpecError, match="nu must be an integer >= 1"):
            specio.load_spec(tmp_path / "s.json")


def test_integral_nu_is_kept_as_an_int():
    for nu in (2, 2.0):
        spec = specio.load_spec_obj({"fixture": "example-4.1", "nu": nu})
        assert spec.nu == 2 and type(spec.nu) is int and spec.label == "example-4.1"
        cells = [{"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}}]
        spec = specio.load_spec_obj({"cells": cells, "nu": nu})
        assert spec.nu == 2 and type(spec.nu) is int


def test_fixture_reference_keeps_its_svf():
    spec = specio.load_spec_obj({"fixture": "example-2.1", "svf": {"family": "constant"}})
    assert spec.sv is not None and spec.label == "example-2.1"
    assert spec.expected == fixtures.load("example-2.1").expected
    assert fixtures.load("example-2.1").sv is None


def test_pm1_is_the_two_point_law_one_one():
    pm1 = {"kind": "symmetric-pm1"}
    two_point = {"kind": "symmetric-two-point", "magnitude": 1.0, "prob": 1.0}
    assert specio.parse_dist(pm1) == specio.parse_dist(two_point) == \
        model.SymmetricTwoPoint(1.0)
    # a sequence column may spell the one law both ways
    cells = [{"n": n, "i": i, "dist": two_point if (n + i) % 2 else pm1}
             for n in (1, 2, 3) for i in range(1, n + 1)]
    arr = specio.load_spec_obj({"sequence": True, "cells": cells}).arr
    assert [arr.sequence_cell(i) for i in (1, 2, 3)] == [model.SymmetricTwoPoint(1.0)] * 3


def test_sequence_needs_rows_of_n_cells():
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in (1, 2, 3) for i in (1, 2)]
    with pytest.raises(SpecError, match="k_n = n"):
        specio.load_spec_obj({"sequence": True, "rows": {"k": 2}, "cells": cells})
