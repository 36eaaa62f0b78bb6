"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_selftest.py

Runs each workload once at the ``tiny`` size, untraced and traced, and checks
that the result line matches BENCHMARK.json and that the full record carries
every end-to-end metric of the workload with its unit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run_all import run_workload  # noqa: E402
from run import record_path, unit_of  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COMMON = {"setup_s": "s", "pass_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}
EXPECTED = {
    "mc-fixture": {"draws_per_s": "1/s", "sim_s.wlln": "s", "sim_s.wlln-t2": "s",
                   "sim_s.slln-series": "s", "sim_s.slln-path": "s"},
    "mc-spec": {"draws_per_s": "1/s", "sim_s.wlln": "s"},
    "check-scan": {"check_s.cesaro-domination": "s", "check_s.kG": "s",
                   "check_s.ui-bounded-moment": "s", "check_s.chandra-ghosal": "s",
                   "check_s.spec": "s", "verify_s": "s"},
}
SEED = 5


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_workload(workload, SEED, 0, 0, "tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    shown = {k: v["unit"] for k, v in result["metrics"].items()}
    assert shown == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads(record_path(workload, SEED, 0, "tiny").read_text())
    metrics = record["metrics"]
    for name, unit in {**COMMON, **EXPECTED[workload]}.items():
        assert name in metrics, name
        assert unit_of(name) == unit
    assert metrics["fail_ratio"] == 0
    assert record["spec_sha256"] and record["digests"]
    env = record["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "seed",
                "loadavg_1m_before", "loadavg_1m_after"):
        assert key in env, key


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run_workload(workload, SEED, 0, 1, "tiny")
    assert result["correct"] and result["failed"] == 0
    shown = {k: v["unit"] for k, v in result["metrics"].items()}
    assert shown == declared("per_layer")
    spans = record_path(workload, SEED, 1, "tiny").with_suffix(".spans.json")
    assert json.loads(spans.read_text())["spans"]


def test_same_seed_gives_same_digests():
    run_workload("mc-spec", SEED + 1, 0, 0, "tiny")
    first = json.loads(record_path("mc-spec", SEED + 1, 0, "tiny").read_text())
    run_workload("mc-spec", SEED + 1, 0, 0, "tiny")
    second = json.loads(record_path("mc-spec", SEED + 1, 0, "tiny").read_text())
    assert first["digests"] == second["digests"]
    assert first["spec_sha256"] == second["spec_sha256"]
