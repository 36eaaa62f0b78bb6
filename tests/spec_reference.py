"""Small explicit-cell specs drawn by hypothesis, and the loader they are checked against.

``reference_problem`` builds a spec's array and weights the way ``specio``
did before explicit cells were held as law and weight columns: an (n, i)
dict of parsed laws read one cell group per cell, and an (n, i) dict of
weights whose ranges are summed with ``math.fsum``.  ``spec_docs`` draws grid
and sequence specs under uniform, explicit and ``c-normalized`` weights, each
law spelled in several ways, the entries in a shuffled order.
"""

import math

from hypothesis import strategies as st

from llnlab import model, specio

# each law of the palette, as the spellings a spec may give it
SPELLINGS = (
    ({"kind": "symmetric-pm1"},
     {"kind": "symmetric-two-point", "magnitude": 1, "prob": 1},
     {"kind": "symmetric-two-point", "magnitude": 1.0}),
    ({"kind": "symmetric-two-point", "magnitude": 2.5, "prob": 0.4},),
    ({"kind": "symmetric-two-point", "magnitude": 2, "prob": 0.5},
     {"kind": "symmetric-two-point", "prob": 0.5, "magnitude": 2.0}),
    ({"kind": "symmetric-two-point", "magnitude": 2.5, "prob": 0.7},),
    ({"kind": "pareto", "alpha": 3},
     {"kind": "pareto", "alpha": 3.0, "cutoff": 1.0}),
    ({"kind": "pareto", "alpha": 2.5, "cutoff": 1.5},),
    ({"kind": "pareto", "alpha": 1, "cutoff": 2},),
)
WEIGHT_VALUES = (0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 0.1, 3.0)


@st.composite
def spec_docs(draw):
    """A valid spec of 1..7 rows, its entries shuffled."""
    sequence = draw(st.booleans())
    k = "n" if sequence else draw(st.sampled_from(["n", 1, 2, 4]))
    n_max = draw(st.integers(1, 7))
    row_length = (lambda n: n) if k == "n" else (lambda n: k)
    full = [(n, i) for n in range(1, n_max + 1) for i in range(1, row_length(n) + 1)]
    law = st.integers(0, len(SPELLINGS) - 1)
    column = draw(st.lists(law, min_size=n_max, max_size=n_max))
    laws = [column[i - 1] if sequence else draw(law) for _, i in full]
    cells = [{"n": n, "i": i, "dist": draw(st.sampled_from(SPELLINGS[j]))}
             for (n, i), j in zip(full, laws)]
    doc = {"rows": {"k": k}, "sequence": sequence,
           "cells": draw(st.permutations(cells))}
    kind = draw(st.sampled_from(["uniform", "explicit", "c-normalized"]))
    if kind != "uniform":
        last = draw(st.integers(1, n_max))  # a table may end before the rows do
        flavor = draw(st.sampled_from(["sum", "sum-sq"]))
        field = "a" if kind == "explicit" else "c"
        values = []
        for n, i in full:
            if n > last or (kind == "c-normalized" and i > 1 and draw(st.booleans())):
                continue  # a c left out is 0
            c = draw(st.sampled_from(WEIGHT_VALUES))
            if kind == "c-normalized" and i == 1:
                c = c or 1.0  # every A_n > 0
            if flavor == "sum-sq" and kind == "c-normalized" and draw(st.booleans()):
                c = -c
            values.append({"n": n, "i": i, field: c})
        doc["weights"] = {"kind": kind, "values": draw(st.permutations(values))}
        if kind == "c-normalized":
            doc["weights"]["flavor"] = flavor
    return doc


def reference_problem(doc):
    """(array, weights) of a valid spec document, laid out cell by cell in dicts."""
    k = doc["rows"]["k"]
    row_length = (lambda n: n) if k == "n" else (lambda n: k)
    table = {(e["n"], e["i"]): specio.parse_dist(e["dist"]) for e in doc["cells"]}
    n_max = max(n for n, _ in table)
    if doc.get("sequence"):
        arr = model.ArraySpec(row_length=row_length, n_max=n_max,
                              sequence_cell=lambda i: table[(n_max, i)])
    else:
        arr = model.ArraySpec(row_length=row_length, n_max=n_max, groups_fn=lambda n: tuple(
            model.CellGroup(1, table[(n, i)]) for i in range(1, row_length(n) + 1)))
    w = doc.get("weights", {"kind": "uniform"})
    if w["kind"] == "uniform":
        return arr, model.uniform_weights(row_length)
    field = "a" if w["kind"] == "explicit" else "c"
    a = {(e["n"], e["i"]): float(e[field]) for e in w["values"]}
    last = max(n for n, _ in a)
    if w["kind"] == "c-normalized":
        for n in range(1, last + 1):
            cs = [a.get((n, i), 0.0) for i in range(1, row_length(n) + 1)]
            sq = w["flavor"] == "sum-sq"
            norm = math.fsum(c ** 2 for c in cs) if sq else math.fsum(cs)
            for i, c in enumerate(cs, start=1):
                a[(n, i)] = (c * c if sq else c) / norm

    def range_sum(n, lo, hi):
        return math.fsum(a[(n, i)] for i in range(lo, hi + 1))

    return arr, model.explicit_weights(range_sum, row_length, n_max=last)
