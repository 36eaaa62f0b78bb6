"""Metamorphic relation: scaling every magnitude and b_n by 2^k.

A generated spec (``perfbench/specgen.py``, seeds 7 and 11, 16 rows) is read
as it is, with an explicit b_n = n.  Its scaled copy multiplies every
two-point magnitude (+-1 becomes +-2^k), every Pareto cutoff and every b_n by
2^k.  A power of two scales a float exactly, and each law's tail and quantile
commute with it: P(|2^k X| > 2^k x) = P(|X| > x) and 2^k X is drawn from the
same uniforms.  So:

* ``simulate --mode wlln`` writes the same bytes: every row sum is scaled
  exactly, and compared with a b_n scaled the same way;
* the conditions that read the sup at b_n, or decide a limit on a scale-free
  gate, keep their outcomes;
* the chandra-ghosal integral of x^(p-1) S(x) at p = 1 scales by 2^k.

Only k >= 0 applies, because a Pareto cutoff must be >= 1.  ``specgen``
shares one dict among the cells of a law, so each scaled cell gets its own.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from llnlab import cli, conditions
from llnlab.specio import load_spec_obj

ROWS = 16
SEEDS = (7, 11)
POWERS = (1, 3, 8)
KEPT = ("weighted-domination", "cesaro-domination", "ui", "bounded-moment", "kG-hat")


def _specgen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
    spec = importlib.util.spec_from_file_location("specgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scaled_doc(seed: int, k: int) -> dict:
    """The generated spec with b_n = n, every magnitude, cutoff and b_n times 2^k."""
    doc = _specgen().generate(seed, ROWS)
    f = 2.0**k

    def dist(d: dict) -> dict:
        if d["kind"] == "symmetric-pm1":
            return {"kind": "symmetric-two-point", "magnitude": f}
        if d["kind"] == "symmetric-two-point":
            return {**d, "magnitude": d["magnitude"] * f}
        return {**d, "cutoff": d["cutoff"] * f}  # pareto

    return {**doc, "cells": [{**c, "dist": dist(c["dist"])} for c in doc["cells"]],
            "b": {"kind": "explicit", "values": [f * n for n in range(1, ROWS + 1)]}}


def _run(seed: int, k: int, name: str) -> dict:
    return conditions.run_condition(name, load_spec_obj(scaled_doc(seed, k)), 10_000, 1000)


def _simulate(tmp_path: Path, seed: int, k: int) -> tuple[bytes, bytes]:
    spec, out = tmp_path / f"s{seed}-{k}.json", tmp_path / f"o{seed}-{k}"
    spec.write_text(json.dumps(scaled_doc(seed, k)))
    rows = ",".join(map(str, range(1, ROWS + 1)))
    assert cli.main(["simulate", "--spec", str(spec), "--mode", "wlln", "--rows", rows,
                     "--reps", "400", "--seed", str(seed), "--out", str(out)]) == 0
    return (out.with_name(out.name + ".json").read_bytes(),
            out.with_name(out.name + ".csv").read_bytes())


def test_the_scaled_spec_is_read_as_generated():
    # at k = 0 only b changes: +-1 is the two-point law (1, 1)
    base = load_spec_obj({**_specgen().generate(7, ROWS),
                          "b": {"kind": "explicit", "values": list(range(1, ROWS + 1))}})
    same = load_spec_obj(scaled_doc(7, 0))
    assert same.arr.law_columns.laws == base.arr.law_columns.laws
    assert (same.arr.law_columns.law == base.arr.law_columns.law).all()


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_writes_the_same_bytes(tmp_path, seed, k):
    assert _simulate(tmp_path, seed, k) == _simulate(tmp_path, seed, 0)


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_the_conditions_keep_their_outcomes(seed, k):
    for name in KEPT:
        assert _run(seed, k, name)["outcome"] == _run(seed, 0, name)["outcome"], name
    # k * S(b_k) reads S at the scaled b_k: the same values, exactly
    assert _run(seed, k, "kG-hat")["detail"] == _run(seed, 0, "kG-hat")["detail"]


CHANDRA_GHOSAL_FLIP = pytest.mark.xfail(
    strict=True,
    reason="FOUND (CHANGES.md): from 2^6 on the fitted-slope gate reads the scaled-out "
           "head blocks 1, 2, 4, ... as divergence")


@pytest.mark.parametrize("k", [1, 3, pytest.param(8, marks=CHANDRA_GHOSAL_FLIP)])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_chandra_ghosal_value_scales_by_2_to_the_k(seed, k):
    base, got = _run(seed, 0, "chandra-ghosal"), _run(seed, k, "chandra-ghosal")
    assert base["outcome"] == "holds"
    assert got["outcome"] == "holds", got["detail"]["rule"]
    assert got["detail"]["value"] == pytest.approx(2.0**k * base["detail"]["value"], rel=1e-9)
