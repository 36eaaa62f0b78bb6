"""Golden output digests of small simulate runs, one per mode and sampler shape.

The digests were recorded with the per-group quantile sampler and the
two-point shortcut that ``model.RowSampler`` replaced, on numpy 2.4.6 and
scipy 1.17.1.  The runs with independent sure-magnitude cells (prob 1) were
re-recorded once when each such cell came to take one fair bit of a raw
Philox word in place of a uniform, and every run once more when one Philox
key came to serve 64 replications; ``counterexample-wlln`` kept its digest
both times, as its weights put all their mass on the row's last cell.  Any
change in the draws, their order or the report formatting shows up as a
different SHA-256.  The runs cover independent and negatively associated
sequences, grouped arrays, explicit cells with Pareto laws, weights and every
simulate mode.  The ``-blocks`` runs cross block edges in both layouts: 200
replications are three full blocks and a partial one, and x2m-example's 300
go through the column kernel at one thread and the row kernel at two.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from llnlab import model, simulate
from llnlab.cli import main as cli_main


def mixed_spec(seed: int, n_rows: int, *, sequence: bool, dependence: dict) -> dict:
    """Explicit cells of +-1, two-point and Pareto laws in seeded positions."""
    rng = random.Random(seed)
    two_point = [{"kind": "symmetric-two-point", "magnitude": round(rng.uniform(1.5, 4.0), 6),
                  "prob": round(rng.uniform(0.2, 0.9), 6)} for _ in range(3)]
    pareto = [{"kind": "pareto", "alpha": round(rng.uniform(2.5, 3.5), 6), "cutoff": 1.0}
              for _ in range(3)]

    def pick(kind):
        if kind == 0:
            return {"kind": "symmetric-pm1"}
        return rng.choice(two_point if kind == 1 else pareto)

    if sequence:
        column = [pick(rng.randrange(3)) for _ in range(n_rows)]
        cells = [{"n": n, "i": i, "dist": column[i - 1]}
                 for n in range(1, n_rows + 1) for i in range(1, n + 1)]
    else:
        cells = []
        for n in range(1, n_rows + 1):
            kinds = [i % 3 for i in range(n)]
            rng.shuffle(kinds)
            cells += [{"n": n, "i": i, "dist": pick(kind)}
                      for i, kind in enumerate(kinds, start=1)]
    return {"rows": {"k": "n"}, "p": 1.0, "sequence": sequence, "cells": cells,
            "dependence": dependence, "b": {"kind": "power", "p": 1.0}}


NA = {"kind": "gaussian-na", "correlation": -0.35}
IND = {"kind": "independent"}

SPECS = {
    "grid-na": dict(seed=5, n_rows=24, sequence=False, dependence=NA),
    "seq-ind": dict(seed=6, n_rows=40, sequence=True, dependence=IND),
    "seq-na": dict(seed=7, n_rows=40, sequence=True, dependence=NA),
}

RUNS = {
    "x2m-wlln": (["--fixture", "x2m-example", "--p", "1", "--mode", "wlln",
                  "--rows", "2^4..2^9", "--reps", "70", "--eps", "0.1,0.5,1.0",
                  "--threads", "2"],
                 "07024fe0c96dca503d8224aaaecdb75973229ae0bc52b5743dc2019b21b735b7"),
    "ex41-series": (["--fixture", "example-4.1", "--mode", "slln-series",
                     "--rows", "2^3..2^8", "--reps", "60"],
                    "42ee7d08e151fef057377746aa0fa06da12ab8f214a9c0cf035cf08b6c9f1b1e"),
    "x2m-path": (["--fixture", "x2m-example", "--p", "1", "--mode", "slln-path",
                  "--rows", "2^4..2^9", "--reps", "30", "--eps", "0.05,0.1,0.2"],
                 "d573d82bab295d28fb0e757db8067e9e85dbaa2ad6f7642c5f6028e839f407bd"),
    "ex21-wlln": (["--fixture", "example-2.1", "--mode", "wlln",
                   "--rows", "2^2..2^7", "--reps", "50", "--eps", "0.5,1.0"],
                  "a6fefbadf6e13de6028671eb8a4e7605c5e0186d6621dac90da2ee931486ee2e"),
    "counterexample-wlln": (["--fixture", "wlln-counterexample", "--mode", "wlln",
                             "--rows", "2^4..2^8", "--reps", "20"],
                            "c91354943c51abafa6608a8317678eacc058cbb4b2d5ec8eb33aedc2b680628d"),
    "grid-na-wlln": (["--spec", "{grid-na}", "--mode", "wlln", "--rows", "1..24",
                      "--reps", "90", "--eps", "0.2,0.5"],
                     "b880848dcbbe95639dd2a9705b3fa7228bdf4663325b0cb6d1448b2a31ac3aea"),
    "seq-ind-wlln": (["--spec", "{seq-ind}", "--mode", "wlln", "--rows", "3..40",
                      "--reps", "90", "--eps", "0.2,0.5"],
                     "58e24f4ae39ca0f830b36b5956528d6370acf8fdbfa59f7788fdf58f6952534e"),
    "seq-na-series": (["--spec", "{seq-na}", "--mode", "slln-series", "--rows", "1..32",
                       "--reps", "80", "--eps", "0.2,0.5"],
                      "82e8b82d9d072dc3636ca14c3dee6ce7eb771e3d454193f1b94542a215eec7d7"),
    "seq-na-path": (["--spec", "{seq-na}", "--mode", "slln-path", "--rows", "2..40",
                     "--reps", "40", "--eps", "0.2,0.5"],
                    "4b0b879908da55b63531ddedc75cf193abacaeddcd9c8e2238bd859fabc30f48"),
    "seq-na-wlln-blocks": (["--spec", "{seq-na}", "--mode", "wlln", "--rows", "3..40",
                            "--reps", "200", "--eps", "0.2,0.5"],
                           "e90985b7331ee4377ada4964b98962bc8c0f2306655440c6a34b35da41f155da"),
    "x2m-wlln-blocks": (["--fixture", "x2m-example", "--p", "1", "--mode", "wlln",
                         "--rows", "2^4..2^10", "--reps", "300", "--eps", "0.1,0.5,1.0"],
                        "ce5340ba44f7e454a470f6b99b6635599702110092082ec94f2c2cf31f552691"),
}
BLOCK_RUNS = sorted(name for name in RUNS if name.endswith("-blocks"))


def run_digest(tmp_path, name: str, *extra: str) -> str:
    """SHA-256 over the CSV and JSON outputs of one recorded run, its argv
    followed by ``extra``."""
    specs = {}
    for key, kw in SPECS.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(mixed_spec(**kw)))
        specs[key] = str(path)
    argv, _ = RUNS[name]
    out = tmp_path / name
    argv = [a.format(**specs) for a in (*argv, *extra)]
    assert cli_main(["simulate", *argv, "--seed", "17", "--out", str(out)]) == 0
    h = hashlib.sha256()
    for suffix in (".csv", ".json"):
        path = out.with_suffix(suffix)
        if path.exists():
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_golden_digest(tmp_path, name):
    assert run_digest(tmp_path, name) == RUNS[name][1]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_golden_digest_through_the_column_kernel(tmp_path, monkeypatch, name):
    # every span of a row of sure cells sums across its replications, in
    # forked workers too: the digests recorded through the row kernel hold
    monkeypatch.setattr(simulate, "COLUMN_REPS", 1)
    assert run_digest(tmp_path, name) == RUNS[name][1]


@pytest.mark.parametrize("name", BLOCK_RUNS)
def test_block_edge_golden_digest_at_two_threads(tmp_path, name):
    # spans cut on block edges: 128 + 72 and 128 + 172 replications
    assert run_digest(tmp_path, name, "--threads", "2") == RUNS[name][1]


def test_condition_h_probe_golden_values():
    na_rows = model.ArraySpec(
        row_length=lambda n: n,
        groups_fn=lambda n: (model.CellGroup(n - n // 3, model.SymmetricTwoPoint(1.0)),
                             model.CellGroup(n // 3, model.ParetoTail(3.0))),
        dependence=model.GaussianNA(-0.2),
    )
    na_seq = dataclasses.replace(model.sequence_array(
        lambda i: model.SymmetricTwoPoint(2.0, 0.5) if i % 2 else model.SymmetricTwoPoint(1.0),
    ), dependence=model.GaussianNA(-0.4))
    got = (simulate.condition_h_probe(na_rows, 2.0, 30, reps=200, seed=4),
           simulate.condition_h_probe(na_seq, 1.5, 33, reps=200, seed=8))
    assert got == (float.fromhex("0x1.4a52ebb45ddf1p+0"),
                   float.fromhex("0x1.b8853ab4f7a7bp-1"))
