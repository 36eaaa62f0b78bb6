"""Loading problem descriptions (arrays, weights, norming, svf) from JSON.

Every spec loads as a ``fixtures.Problem``; one that names a fixture is that
fixture's problem (closed forms, expectations, grids) with the spec's ``svf``.

Schema sketch (full documentation in the repository README):

    {
      "fixture": "example-2.1",          # named generator, OR explicit below
      "p": 0.5, "nu": 1,
      "rows": {"k": "n"} | {"k": 5},
      "cells": [
        {"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}},
        {"n": 2, "i": 1, "dist": {"kind": "symmetric-two-point",
                                  "magnitude": 2.0, "prob": 0.5}},
        {"n": 2, "i": 2, "dist": {"kind": "pareto", "alpha": 3.0, "cutoff": 1.0}}
      ],
      "dependence": {"kind": "independent"}
                    | {"kind": "gaussian-na", "correlation": -0.1},
      "weights": {"kind": "uniform"}
                 | {"kind": "explicit", "values": [{"n":1,"i":1,"a":1.0}, ...]}
                 | {"kind": "c-normalized", "flavor": "sum" | "sum-sq",
                    "values": [{"n":1,"i":1,"c":1.0}, ...],
                    "growth_constant": 2.0},
      "b": {"kind": "power", "p": 0.5} | {"kind": "explicit", "values": [1,2,3]},
      "svf": {"family": "constant"}
             | {"family": "log-power", "gamma": 1.0}
             | {"family": "loglog-power", "gamma": -1.0}
    }

Explicit cells must cover every (n, i) with 1 <= i <= k_n for the declared
rows; the largest declared n becomes the array's row bound.  An ``explicit``
weight table must cover every (n, i) of rows 1 through its last row.  A cell
or weight entry outside those rows, a second entry for one (n, i), an ``n``
or ``i`` that is not a JSON integer, and a weight that (an ``a``, or a ``c``
of flavor ``sum``) is negative are each a SpecError naming the entry; each
entry list is read in one pass, so the first bad entry is the one named.

Explicit cells load as columns, cell j counted in (n, i) order: a tuple of
distinct laws, a law-index column and row offsets (``model.LawColumns``).
Each spelling of a ``dist`` is parsed once, its values kept apart by JSON
type (``1`` and ``1.0`` are two spellings of one law; ``true`` is no number),
and equal laws are one law however spelled.

Every number of a spec is a JSON number that is not a bool and is finite
(:func:`_as_number`); ``nu`` is an integer >= 1, ``rows.k`` an integer >= 1
(not a bool) or ``"n"``, ``sequence`` a JSON bool and ``label`` a string.  A
``c-normalized`` table is normalised here, at load, into the same weight
column (``model.WeightColumn``, on the cells' offsets) an ``explicit`` one
fills, for rows 1 through its last row; a row whose A_n is not > 0 or
exceeds ``growth_constant`` * n is a SpecError.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import fixtures as fixtures_mod
from .errors import SpecError
from .model import (
    ArraySpec,
    DistSpec,
    GaussianNA,
    INDEPENDENT,
    LawColumns,
    NormalizingSequence,
    ParetoTail,
    SymmetricTwoPoint,
    WeightColumn,
    WeightScheme,
    explicit_norming,
    explicit_weights,
    power_norming,
    uniform_weights,
)
from .svf import SlowlyVaryingSpec, constant_one, log_power, loglog_power


def _section(doc: dict, key: str) -> Optional[dict]:
    """The JSON object under ``key``; None when the key is absent."""
    obj = doc.get(key)
    if obj is not None and not isinstance(obj, dict):
        raise SpecError(f"'{key}' must be a JSON object, got {obj!r}")
    return obj


def _as_number(value, what: str) -> float:
    """A JSON number that is not a bool and is finite, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for nan, inf and ints past float range
        raise SpecError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _number(doc: dict, key: str, default=None):
    """The number under ``key``; ``default`` when the key is absent."""
    return _as_number(doc[key], f"'{key}'") if key in doc else default


def _exponent(doc: dict, key: str, default: float) -> float:
    """The number under ``key`` (an exponent p), which must be > 0 with 1/p finite."""
    value = _number(doc, key, default)
    if not (value > 0 and math.isfinite(1.0 / value)):  # b_n = n^(1/p)
        raise SpecError(f"'{key}' must be a number > 0 with 1/{key} finite, got {value!r}")
    return value


_PM1 = SymmetricTwoPoint(1.0)  # frozen, so one object serves every +-1 cell


def parse_dist(obj: dict) -> DistSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"distribution spec needs a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "symmetric-pm1":  # shorthand for the two-point law (1, 1)
            return _PM1
        if kind == "symmetric-two-point":
            return SymmetricTwoPoint(
                magnitude=_as_number(obj["magnitude"], "'magnitude'"),
                prob=_number(obj, "prob", 1.0),
            )
        if kind == "pareto":
            return ParetoTail(
                alpha=_as_number(obj["alpha"], "'alpha'"),
                cutoff=_number(obj, "cutoff", 1.0),
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecError(f"bad distribution spec {obj!r}: {exc}") from exc
    raise SpecError(f"unknown distribution kind {kind!r}")


def parse_svf(obj: Optional[dict]) -> Optional[SlowlyVaryingSpec]:
    if obj is None:
        return None
    fam = obj.get("family")
    if fam == "constant":
        return constant_one()
    if fam == "log-power":
        return log_power(_number(obj, "gamma", 1.0))
    if fam == "loglog-power":
        return loglog_power(_number(obj, "gamma", 1.0))
    raise SpecError(f"unknown svf family {fam!r}")


def _parse_rows(obj: Optional[dict]) -> Optional[int]:
    """``rows.k``: the row length k, or None for k_n = n."""
    k = "n" if obj is None else obj.get("k", "n")
    if k == "n":
        return None
    if type(k) is int and k >= 1:  # a bool or a float is no row length
        return k
    raise SpecError(f"rows.k must be a positive integer or 'n', got {k!r}")


def _first_cell(k: Optional[int], n):
    """The index of cell (n, 1) among the cells in (n, i) order, for an int or
    an int array n; row n is cells ``_first_cell(k, n)`` to ``_first_cell(k, n + 1) - 1``."""
    return n * (n - 1) // 2 if k is None else (n - 1) * k


def _entries(entries, what: str, field: str, parse, k: Optional[int],
             n_max: float = math.inf) -> tuple[dict, int]:
    """The {j: parse(entry[field])} table of a nonempty list of cell or weight
    entries, j the index of the entry's cell in (n, i) order, and its last row.

    Each entry names one cell of the spec's rows by integers, 1 <= n <=
    ``n_max`` and 1 <= i <= k_n.  An entry that lies outside them, names a
    cell an earlier entry named, or whose value ``parse`` refuses, is a
    SpecError.  The entries are read in one pass, so the first bad one is
    the one named.
    """
    if not isinstance(entries, list) or not entries:
        raise SpecError(f"{what} entries must be a nonempty list")
    table, last = {}, 0
    for e in entries:
        try:
            n, i = e["n"], e["i"]
            if type(n) is not int or type(i) is not int:  # a bool, float or str is no index
                raise TypeError("'n' and 'i' must be integers")
            value = parse(e[field])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad {what} entry {e!r}: {exc}") from exc
        if not (1 <= n <= n_max and 1 <= i <= (n if k is None else k)):
            raise SpecError(f"{what} entry {e!r} lies outside the rows")
        j = _first_cell(k, n) + i - 1
        if j in table:
            raise SpecError(f"{what} entry {e!r} repeats (n={n}, i={i})")
        table[j] = value
        if n > last:
            last = n
    return table, last


def _first_gap(table: dict, n_max: int, k: Optional[int]) -> Optional[tuple[int, int]]:
    """The first (n, i) of rows 1..``n_max`` that ``table`` lacks; None if none."""
    if len(table) == _first_cell(k, n_max + 1):  # the keys are distinct cells of the rows
        return None
    return next((n, i) for n in range(1, n_max + 1) for i in range(1, (n if k is None else k) + 1)
                if _first_cell(k, n) + i - 1 not in table)


def _column(table: dict, size: int, dtype) -> np.ndarray:
    """The values of ``table`` at their keys, in an array of ``size`` zeros."""
    col = np.zeros(size, dtype=dtype)
    col[np.fromiter(table, dtype=np.intp, count=len(table))] = np.fromiter(
        table.values(), dtype=dtype, count=len(table))
    return col


def _law_numbers():
    """A parser of cell ``dist`` objects to law numbers, and the laws it numbered.

    Each distinct law is numbered once, in order of first parse; each spelling
    of a ``dist`` is parsed once.  A spelling is its keys and values with their
    JSON types, so ``1`` and ``1.0`` are two spellings of one law, while
    ``true`` is no number and fails as ``parse_dist`` fails it.
    """
    laws: dict[DistSpec, int] = {}
    spellings: dict = {}

    def number(obj) -> int:
        try:
            key = (tuple(obj.items()), tuple(map(type, obj.values())))
            return spellings[key]
        except (AttributeError, TypeError):  # no object, or a list or object among its values
            key = None
        except KeyError:
            pass
        j = laws.setdefault(parse_dist(obj), len(laws))
        if key is not None:
            spellings[key] = j
        return j

    return number, laws


def _parse_dependence(obj):
    if obj is None or obj.get("kind", "independent") == "independent":
        return INDEPENDENT
    if obj.get("kind") == "gaussian-na":
        try:
            return GaussianNA(correlation=_as_number(obj["correlation"], "'correlation'"))
        except (KeyError, ValueError) as exc:
            raise SpecError(f"bad gaussian-na dependence: {exc}") from exc
    raise SpecError(f"unknown dependence kind {obj.get('kind')!r}")


def _array_from_cells(doc: dict, k: Optional[int]) -> ArraySpec:
    number, found = _law_numbers()
    table, n_max = _entries(doc["cells"], "cell", "dist", number, k)
    gap = _first_gap(table, n_max, k)
    if gap is not None:
        raise SpecError("cell (n={}, i={}) missing from 'cells'".format(*gap))
    off = _first_cell(k, np.arange(1, n_max + 2, dtype=np.int64))
    law, laws = _column(table, len(table), np.intp), tuple(found)

    sequence = doc.get("sequence", False)
    if not isinstance(sequence, bool):
        raise SpecError(f"'sequence' must be a JSON bool, got {sequence!r}")
    sequence_cell = None
    if sequence:
        if k is not None and any(k != n for n in range(1, n_max + 1)):
            raise SpecError("'sequence': true needs rows of k_n = n cells (rows.k = 'n')")
        # X[n,i] = X_i: every column must be constant below the diagonal, that is
        # each cell's law that of the cell of the last row in its column
        column = np.arange(len(law)) - np.repeat(off[:-1], np.diff(off))  # i - 1
        bad = np.flatnonzero(law != law[off[-2] + column])
        if len(bad):
            j = int(bad[0])
            n = int(np.searchsorted(off, j, side="right"))
            i = j - int(off[n - 1]) + 1
            raise SpecError(f"'sequence': true but cell (n={n}, i={i}) differs from "
                            f"(n={n_max}, i={i})")
        last = law[off[-2]:].tolist()

        def sequence_cell(i: int) -> DistSpec:
            return laws[last[i - 1]]

    return ArraySpec(
        row_length=(lambda n: n) if k is None else (lambda n: k),
        sequence_cell=sequence_cell,
        dependence=_parse_dependence(_section(doc, "dependence")),
        n_max=n_max,
        law_columns=LawColumns(laws, law, off),
    )


def _weights_from_doc(doc: Optional[dict], arr: ArraySpec, k: Optional[int]) -> WeightScheme:
    if doc is None or doc.get("kind", "uniform") == "uniform":
        return uniform_weights(arr.row_length)
    kind = doc.get("kind")
    if kind not in ("explicit", "c-normalized"):
        raise SpecError(f"unknown weights kind {kind!r}")
    flavor = doc.get("flavor", "sum")
    if kind == "c-normalized" and flavor not in ("sum", "sum-sq"):
        raise SpecError(f"c-normalized flavor must be 'sum' or 'sum-sq', got {flavor!r}")
    field = "a" if kind == "explicit" else "c"
    signed = flavor == "sum-sq" and kind == "c-normalized"  # a(n, i) = c^2 / A_n
    what = f"'{field}'"

    def weight(value) -> float:
        w = _as_number(value, what)
        if not (signed or w >= 0.0):
            raise ValueError(f"'{field}' must be a finite number >= 0, got {value!r}")
        return w

    table, n_max = _entries(doc.get("values"), "weight", field, weight, k, arr.n_max)
    off = arr.law_columns.offsets[:n_max + 1]
    if kind == "explicit":  # complete at load, as the cells are
        gap = _first_gap(table, n_max, k)
        if gap is not None:
            raise SpecError("weight (n={}, i={}) missing".format(*gap))
    values = _column(table, int(off[-1]), float)
    if kind == "c-normalized":  # a(n, i) = c/A_n or c^2/A_n; a missing c is 0.0
        gc = _number(doc, "growth_constant")
        cs, bounds, norms = values.tolist(), off.tolist(), []
        for n in range(1, n_max + 1):
            row = cs[bounds[n - 1]:bounds[n]]
            try:
                norm = math.fsum(row) if flavor == "sum" else math.fsum(c ** 2 for c in row)
            except OverflowError as exc:  # a c^2 or a partial sum past float range
                raise SpecError(f"A_{n} leaves float range: {exc}") from None
            if not norm > 0.0:
                raise SpecError(f"A_{n} = {norm} must be positive")
            if gc is not None and norm > gc * n:
                raise SpecError(f"A_{n} = {norm} exceeds declared bound {gc}*n")
            norms.append(norm)
        if flavor == "sum-sq":
            values *= values
        values /= np.repeat(norms, np.diff(off))
    return explicit_weights(WeightColumn(values, off), arr.row_length, n_max=n_max)


def _norming_from_doc(doc: Optional[dict], p: float) -> Optional[NormalizingSequence]:
    if doc is None:
        return power_norming(p)
    kind = doc.get("kind", "power")
    if kind == "power":
        return power_norming(_exponent(doc, "p", p))
    if kind == "explicit":
        vals = doc.get("values")
        if not isinstance(vals, list) or not vals:
            raise SpecError("explicit norming needs a nonempty 'values' list")
        values = [_as_number(v, "'b.values' entry") for v in vals]
        bad = [v for v in values if not v > 0.0]
        if bad:
            raise SpecError(f"'b.values' entry must be a finite number > 0, got {bad[0]!r}")
        return explicit_norming(values)
    raise SpecError(f"unknown norming kind {kind!r}")


def load_spec_obj(doc: dict) -> fixtures_mod.Problem:
    if not isinstance(doc, dict):
        raise SpecError("top-level spec must be a JSON object")
    nu = fixtures_mod.iterated_log_order(doc.get("nu", 1))  # its own rule: an integer >= 1
    if "fixture" in doc:
        fx = fixtures_mod.load(doc["fixture"], p=_number(doc, "p"), nu=nu)
        return dataclasses.replace(fx, sv=parse_svf(_section(doc, "svf")))
    if "cells" not in doc:
        raise SpecError("spec needs a 'fixture' name or explicit 'cells'")
    p = _exponent(doc, "p", 1.0)
    label = doc.get("label", "explicit")
    if not isinstance(label, str):
        raise SpecError(f"'label' must be a string, got {label!r}")
    k = _parse_rows(_section(doc, "rows"))
    arr = _array_from_cells(doc, k)
    return fixtures_mod.Problem(
        label=label,
        arr=arr,
        weights=_weights_from_doc(_section(doc, "weights"), arr, k),
        p=p,
        nu=nu,
        b=_norming_from_doc(_section(doc, "b"), p),
        sv=parse_svf(_section(doc, "svf")),
    )


def load_spec(path: str | Path) -> fixtures_mod.Problem:
    """Parse a JSON problem description; SpecError on any malformation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    return load_spec_obj(doc)
