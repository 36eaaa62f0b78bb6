"""Seeded generator for the explicit-cell array used by mc-spec and check-scan.

The array has ``rows.k = n`` for n = 1..n_rows.  Each row holds a fixed
share of symmetric +-1, symmetric two-point and symmetric Pareto cells; the
seed chooses where each kind sits in the row and the parameters of a small
palette of two-point and Pareto laws.  Fixed shares and palette sizes keep
the cost of a command the same from seed to seed, so seeds change the
outputs but not the amount of work.

Dependence is ``gaussian-na`` and the weights are ``c-normalized``, so
sampling goes through the generic row sampler and weighted scans go through
the explicit weight tables.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

PALETTE = 8  # distinct two-point and Pareto laws per spec


def generate(seed: int, n_rows: int = 64) -> dict:
    rng = random.Random(seed)
    two_point = [
        {
            "kind": "symmetric-two-point",
            "magnitude": round(rng.uniform(1.5, 4.0), 6),
            "prob": round(rng.uniform(0.2, 0.9), 6),
        }
        for _ in range(PALETTE)
    ]
    pareto = [
        {"kind": "pareto", "alpha": round(rng.uniform(2.5, 3.5), 6), "cutoff": 1.0}
        for _ in range(PALETTE)
    ]
    cells, weights = [], []
    for n in range(1, n_rows + 1):
        kinds = [i % 3 for i in range(n)]
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds, start=1):
            if kind == 0:
                dist = {"kind": "symmetric-pm1"}
            elif kind == 1:
                dist = rng.choice(two_point)
            else:
                dist = rng.choice(pareto)
            cells.append({"n": n, "i": i, "dist": dist})
            weights.append({"n": n, "i": i, "c": round(rng.uniform(0.5, 1.5), 6)})
    return {
        "label": "perfbench-spec",
        "p": 1.0,
        "nu": 1,
        "rows": {"k": "n"},
        "cells": cells,
        "dependence": {
            "kind": "gaussian-na",
            "correlation": round(rng.uniform(-0.45, -0.1), 6),
        },
        "mean_zero": True,
        "weights": {
            "kind": "c-normalized",
            "flavor": "sum",
            "values": weights,
            "growth_constant": 2.0,
        },
        "b": {"kind": "power", "p": 1.0},
    }


def write_spec(path: Path, seed: int, n_rows: int = 64) -> str:
    """Write the spec for ``seed`` to ``path``; return the SHA-256 of its bytes."""
    data = (json.dumps(generate(seed, n_rows), sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
