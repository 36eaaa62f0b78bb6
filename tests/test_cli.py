import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from llnlab import cli
from llnlab.conditions import MAX_N
from llnlab.fixtures import FIXTURE_NAMES
from test_check_golden import reject_constant


def run(args):
    return cli.main(args)


def test_check_power_spikes_conditions_match(tmp_path):
    out = tmp_path / "chk"
    rc = run([
        "check", "--fixture", "x2m-example",
        "--conditions", "kG,chandra-ghosal", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    by_name = {r["condition"]: r["outcome"] for r in doc["results"]}
    assert by_name == {"kG": "holds", "chandra-ghosal": "fails"}


def test_kg_grid_stops_at_the_end_of_an_explicit_b_table(tmp_path):
    # b_1..b_100 are declared; the grid 1, 2, 4, ... stops at k = 128, as it does
    # where b_k leaves float range, and the verdict reads k = 1..64
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in range(1, 9) for i in range(1, n + 1)]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "p": 1.0, "cells": cells,
                                "b": {"kind": "explicit", "values": list(range(1, 101))}}))
    out = tmp_path / "kg"
    rc = run(["check", "--spec", str(spec), "--conditions", "kG,kG-hat", "--out", str(out)])
    assert rc == 0
    results = json.loads(out.with_suffix(".json").read_text())["results"]
    assert [r["detail"]["grid_stop"] for r in results] == [128, 128]


def test_check_two_block_cesaro_domination(tmp_path):
    rc = run([
        "check", "--fixture", "example-2.1",
        "--conditions", "cesaro-domination", "--out", str(tmp_path / "c"),
    ])
    assert rc == 0  # invalid matches the attached expectation


def test_check_malformed_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = run(["check", "--spec", str(bad), "--conditions", "series",
              "--out", str(tmp_path / "x")])
    assert rc == 2


def test_check_unknown_condition_exits_2(tmp_path):
    rc = run(["check", "--fixture", "x2m-example", "--conditions", "sorcery",
              "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_deterministic_outputs(tmp_path):
    args = [
        "simulate", "--fixture", "x2m-example", "--mode", "wlln",
        "--rows", "2^6..2^9", "--reps", "60", "--eps", "0.5",
        "--seed", "7", "--format", "both",
    ]
    rc1 = run(args + ["--out", str(tmp_path / "a")])
    rc2 = run(args + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    csv_a = (tmp_path / "a.csv").read_bytes()
    csv_b = (tmp_path / "b.csv").read_bytes()
    assert csv_a == csv_b
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_simulate_thread_count_invariance(tmp_path):
    base = [
        "simulate", "--fixture", "x2m-example", "--mode", "wlln",
        "--rows", "64,128,256", "--reps", "60", "--eps", "0.5", "--seed", "3",
        "--format", "csv",
    ]
    run(base + ["--threads", "1", "--out", str(tmp_path / "t1")])
    run(base + ["--threads", "8", "--out", str(tmp_path / "t8")])
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t8.csv").read_bytes()


@pytest.mark.parametrize("mode", ["wlln", "slln-path", "slln-series"])
def test_simulate_modes_are_worker_count_invariant(tmp_path, mode):
    base = ["simulate", "--fixture", "x2m-example", "--p", "1", "--mode", mode,
            "--rows", "2^4..2^8", "--reps", "50", "--seed", "3", "--format", "json"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert run(base + ["--threads", threads, "--out", str(out)]) == 0
        outs.append(out.with_suffix(".json").read_bytes())
    assert outs[0] == outs[1]
    assert ("series" in json.loads(outs[0])) == (mode == "slln-series")


def test_wlln_reads_every_b_before_drawing(tmp_path, monkeypatch, capsys):
    # a b table of 2 ends before row 16: the command stops before any row is drawn
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in range(1, 17) for i in range(1, n + 1)]
    spec = tmp_path / "short-b.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "sequence": True, "cells": cells,
                                "b": {"kind": "explicit", "values": [1.0, 2.0]}}))

    def drawn(*args):
        raise AssertionError("rows drawn before b_n was read")

    monkeypatch.setattr("llnlab.simulate._replication_maxima", drawn)
    rc = run(["simulate", "--spec", str(spec), "--mode", "wlln", "--rows", "2^4..2^4",
              "--reps", "20", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "b_16 beyond declared table of 2" in capsys.readouterr().err


def test_simulate_writes_manifest_and_replay_reproduces(tmp_path):
    out = tmp_path / "sim"
    args = [
        "simulate", "--fixture", "x2m-example", "--mode", "wlln",
        "--rows", "64,128", "--reps", "40", "--eps", "0.5", "--seed", "9",
        "--format", "csv", "--out", str(out),
    ]
    assert run(args) == 0
    first = out.with_suffix(".csv").read_bytes()
    manifest = out.with_suffix(".manifest.json")
    assert manifest.exists()
    out.with_suffix(".csv").unlink()
    assert run(["replay", str(manifest)]) == 0
    assert out.with_suffix(".csv").read_bytes() == first


# a fresh interpreter runs each argv through ``cli.main`` in turn and prints the
# manifests, with whether a scipy module had loaded after each run
MANIFEST_PROBE = """
import json, sys
from llnlab import cli
done = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) in (0, 1)
    manifest = json.loads(open(argv[-1] + ".manifest.json").read())
    done.append([manifest, "scipy" in sys.modules])
print(json.dumps(done))
"""


def test_manifest_records_versions(tmp_path):
    # the installed packages' versions, whatever the process ran before: a
    # scipy-free check records scipy's without loading it, and the same check
    # records the same manifest after a Pareto-spec chandra-ghosal run in the
    # same process has loaded scipy.integrate
    import numpy
    import scipy

    spec = tmp_path / "pareto.json"
    spec.write_text(json.dumps(PARETO_SPEC))
    free = ["check", "--fixture", "example-2.1", "--conditions", "kG", "--n-sup", "64",
            "--out", str(tmp_path / "free")]
    quad = ["check", "--spec", str(spec), "--conditions", "chandra-ghosal", "--n-sup", "64",
            "--out", str(tmp_path / "quad")]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", MANIFEST_PROBE, json.dumps([free, quad, free])],
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (first, first_scipy), (after, after_scipy), (again, _) = json.loads(proc.stdout.splitlines()[-1])
    assert (first_scipy, after_scipy) == (False, True)
    for manifest in (first, after):
        assert manifest["python"] == sys.version.split()[0]
        assert (manifest["numpy"], manifest["scipy"]) == (numpy.__version__, scipy.__version__)
    assert again == first


OUT_COMMANDS = {
    "check": ["check", "--fixture", "example-2.1", "--conditions", "kG", "--n-sup", "64"],
    "simulate": ["simulate", "--fixture", "x2m-example", "--rows", "64,128", "--reps", "20",
                 "--eps", "0.5", "--seed", "4"],
}


@pytest.mark.parametrize("name", list(OUT_COMMANDS))
def test_out_keeps_a_dotted_base_whole(tmp_path, name):
    # --out run.v2 writes run.v2.json (and .csv), not run.json
    base = tmp_path / "run.v2"
    rc = run(OUT_COMMANDS[name] + ["--out", str(base)])
    assert rc in (0, 1)
    paths = [Path(f"{base}{s}") for s in ((".json",) if name == "check" else (".csv", ".json"))]
    first = [p.read_bytes() for p in paths]
    manifest = Path(f"{base}.manifest.json")
    assert json.loads(manifest.read_text())["outputs"] == [str(p) for p in paths]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [p.name for p in paths] + [manifest.name])
    for p in paths:
        p.unlink()
    assert run(["replay", str(manifest)]) == rc
    assert [p.read_bytes() for p in paths] == first


@pytest.mark.parametrize("name", list(OUT_COMMANDS))
def test_unwritable_out_exits_2(tmp_path, capsys, name):
    blocker = tmp_path / "file"  # a file where --out needs a directory
    blocker.write_text("")
    for base in (str(blocker / "x"), ""):  # "" names no file at all
        assert run(OUT_COMMANDS[name] + ["--out", base]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write outputs" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [blocker]


def test_simulate_slln_series_mode(tmp_path):
    out = tmp_path / "ser"
    rc = run([
        "simulate", "--fixture", "x2m-example", "--mode", "slln-series",
        "--rows", "2^5..2^9", "--reps", "40", "--eps", "0.5", "--seed", "2",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["series"]["per_eps"][0]["diagnostic"] == "bounded"


def test_simulate_slln_series_norms_rows_as_wlln_does(tmp_path):
    # both modes take b_n from model.power_norming: at integral 1/p >= 3 that is
    # the exact int n**3, which float(n) ** 3.0 misses in the last bit here
    docs = []
    for mode in ("slln-series", "wlln"):
        out = tmp_path / mode
        assert run(["simulate", "--fixture", "x2m-example", "--p", "0.3333333333333333",
                    "--mode", mode, "--rows", "416142", "--reps", "3", "--seed", "1",
                    "--format", "json", "--out", str(out)]) == 0
        docs.append(json.loads(out.with_suffix(".json").read_text()))
    series, wlln = docs
    assert series["entries"] == wlln["entries"]
    assert series["ratio_means"] == wlln["ratio_means"]


def test_simulate_slln_path_mode(tmp_path):
    out = tmp_path / "path"
    rc = run([
        "simulate", "--fixture", "x2m-example", "--mode", "slln-path",
        "--rows", "2^8..2^12", "--reps", "20", "--eps", "0.5", "--seed", "2",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["fraction_below"]["0.5"][-1] == 1.0


def test_verify_fixtures_all_green():
    assert run(["verify-fixtures"]) == 0


def test_verify_fixtures_subset():
    assert run(["verify-fixtures", "--only", "example-4.1"]) == 0


def test_verify_fixtures_tampered_expectation_fails(monkeypatch, capsys):
    from llnlab import fixtures as fixtures_mod
    import dataclasses

    real_load = fixtures_mod.load

    def tampered(name, **kw):
        fx = real_load(name, **kw)
        if name == "example-2.1":
            bad = dict(fx.expected)
            bad["c0"] = 1.5  # edited expectation must be caught and named
            fx = dataclasses.replace(fx, expected=bad)
        return fx

    monkeypatch.setattr(cli, "load_fixture", tampered)
    rc = run(["verify-fixtures", "--only", "example-2.1"])
    assert rc == 1
    assert "example-2.1:c0" in capsys.readouterr().err


def test_explicit_spec_through_cli(tmp_path):
    doc = {
        "rows": {"k": "n"},
        "p": 1.0,
        "sequence": True,
        "cells": [
            {"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}},
            {"n": 2, "i": 1, "dist": {"kind": "symmetric-pm1"}},
            {"n": 2, "i": 2, "dist": {"kind": "symmetric-pm1"}},
        ],
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    rc = run(["check", "--spec", str(spec), "--conditions", "series",
              "--n", "1000", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = json.loads((tmp_path / "o.json").read_text())
    assert out["results"][0]["outcome"] == "holds"


def _pareto_pm1_results(tmp_path, alpha, nu, conditions):
    """``check`` results of a sequence spec at p = 1: Pareto(alpha, cutoff 1) in the
    odd columns, +-1 in the even ones."""
    cells = [{"n": n, "i": i, "dist": {"kind": "pareto", "alpha": alpha, "cutoff": 1.0}
              if i % 2 else {"kind": "symmetric-pm1"}} for n in range(1, 9) for i in range(1, n + 1)]
    spec = tmp_path / "pareto.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "p": 1.0, "nu": nu, "sequence": True,
                                "cells": cells}))
    out = tmp_path / "o"
    assert run(["check", "--spec", str(spec), "--conditions", conditions, "--n-sup", "64",
                "--out", str(out)]) == 0
    return json.loads(out.with_suffix(".json").read_text(),
                      parse_constant=reject_constant)["results"]


def test_ui_of_a_pareto_cell_without_its_p_th_moment_diverges(tmp_path):
    # alpha = 0.8 <= p: every level's mass is inf, so the ui limit is not 0; the
    # growth gate reads inf - inf = NaN, so the infinite last value decides
    results = _pareto_pm1_results(tmp_path, 0.8, 1, "ui,bounded-moment")
    assert [r["outcome"] for r in results] == ["diverges", "growing"]
    assert results[1]["detail"]["sup"] == "inf"  # standard JSON has no Infinity token


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("alpha", [1.2, 1.5])
def test_bounded_moment_whose_blocks_do_not_settle_is_inconclusive(tmp_path, alpha, nu):
    # E|X| log_nu|X| is finite for alpha > 1, but the dyadic blocks fall like
    # 2^((1 - alpha) j) and never certify it: not growing, and no value either
    (result,) = _pareto_pm1_results(tmp_path, alpha, nu, "bounded-moment")
    assert result["outcome"] == "inconclusive"
    assert "did not settle" in result["detail"]["rule"]
    assert 1.0 < result["detail"]["sup"] < math.inf  # the partial sums: a lower bound


def test_bounded_moment_of_pareto_cells_keeps_growing_and_finite(tmp_path):
    (grows,) = _pareto_pm1_results(tmp_path, 0.8, 2, "bounded-moment")
    assert grows["outcome"] == "growing" and grows["detail"]["sup"] == "inf"
    (finite,) = _pareto_pm1_results(tmp_path, 3.0, 2, "bounded-moment")
    assert finite["outcome"] == "finite"
    # row 1 is the Pareto(3) cell alone: E|X| log|X| loglog|X| by the tail form
    # int h'(t) P(|X| > t) dt, which the density integral meets within 1e-13
    assert finite["detail"]["sup"] == pytest.approx(1.895327872851141, rel=1e-13)


def test_sequence_spec_mixing_pm1_and_its_two_point_form_runs(tmp_path):
    # symmetric-pm1 is shorthand for the two-point law (1, 1), so a column
    # that spells the same law both ways is one constant column
    pm1 = {"kind": "symmetric-pm1"}
    two_point = {"kind": "symmetric-two-point", "magnitude": 1.0, "prob": 1.0}
    cells = [{"n": n, "i": i, "dist": pm1 if n == 3 else two_point}
             for n in range(1, 4) for i in range(1, n + 1)]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "p": 1.0, "sequence": True,
                                "cells": cells}))
    assert run(["check", "--spec", str(spec), "--conditions", "series",
                "--n", "1000", "--out", str(tmp_path / "o")]) == 0
    out = json.loads((tmp_path / "o.json").read_text())
    assert out["results"][0]["outcome"] == "holds"
    assert run(["simulate", "--spec", str(spec), "--mode", "slln-path", "--rows", "1..3",
                "--reps", "3", "--out", str(tmp_path / "s")]) == 0


def _check_example_41(tmp_path, nu):
    """``check`` of example-4.1 at ``nu`` in a subprocess: (process, JSON bytes)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / f"nu{nu}"
    proc = subprocess.run(
        [sys.executable, "-m", "llnlab.cli", "check", "--fixture", "example-4.1",
         "--nu", str(nu), "--conditions", "kG,bounded-moment", "--n-sup", "64",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc, out.with_suffix(".json").read_bytes()


def test_example_41_huge_nu_finishes_with_the_bytes_of_nu_8(tmp_path):
    # the log_nu chain of every cell is clamped after a few factors, so nu = 10^9
    # must not loop 10^9 times per value
    big, big_json = _check_example_41(tmp_path, 10**9)
    small, small_json = _check_example_41(tmp_path, 8)
    assert big.returncode == small.returncode == 0, big.stderr
    assert big_json == small_json


def _limit_memory():
    # a regression back to an endless row loop must fail, not exhaust memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_capped(argv, timeout=60):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "llnlab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=_limit_memory,
    )


def _simulate_capped(tmp_path, rows):
    return _cli_capped(["simulate", "--fixture", "x2m-example", f"--rows={rows}",
                        "--reps", "2", "--out", str(tmp_path / "s")])


@pytest.mark.parametrize("rows", ["0..8", "-4..8", "8..4"])
def test_simulate_bad_row_range_exits_2(tmp_path, rows):
    proc = _simulate_capped(tmp_path, rows)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rows", ["2^1000000000", "10^100000000", "2^10000000000",
                                  "3..2^1000000000"])
def test_simulate_rows_past_2_to_the_63_exit_2_before_the_power(tmp_path, rows):
    # each power would take seconds to minutes and its digits or doubling list
    # gigabytes: it is refused from its exponent, before it is worked out
    proc = _cli_capped(["simulate", "--fixture", "x2m-example", "--rows", rows,
                        "--reps", "5", "--out", str(tmp_path / "s")], timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "error: --rows" in proc.stderr and "Traceback" not in proc.stderr


def test_simulate_row_too_large_to_hold_exits_2(tmp_path):
    proc = _simulate_capped(tmp_path, "2^40")
    assert proc.returncode == 2, proc.stderr
    assert "error: row too large to hold" in proc.stderr
    assert "Traceback" not in proc.stderr


BAD_MANIFESTS = {
    "argv-int": {"argv": 5},
    "argv-null": {"argv": None},
    "argv-ints": {"argv": [1, 2]},
    "argv-string": {"argv": "check"},  # not to be split into characters
    "list": [],
    "replay-itself": None,  # argv: replay of this manifest
}


@pytest.mark.parametrize("name", list(BAD_MANIFESTS))
def test_replay_of_a_malformed_manifest_exits_2(tmp_path, name):
    manifest = tmp_path / "m.manifest.json"
    doc = BAD_MANIFESTS[name]
    if doc is None:
        doc = {"argv": ["replay", str(manifest)]}
    manifest.write_text(json.dumps(doc))
    proc = _cli_capped(["replay", str(manifest)])
    assert proc.returncode == 2, proc.stderr
    assert f"error: cannot replay manifest {manifest}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_of_a_spec_with_a_cell_outside_its_rows_exits_2(tmp_path):
    # the +-100 cell at (2, 7) lies past row 2's two cells: it is no cell of the array
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in range(1, 5) for i in range(1, n + 1)]
    spike = {"n": 2, "i": 7, "dist": {"kind": "symmetric-two-point", "magnitude": 100.0}}
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "cells": cells + [spike]}))
    proc = _cli_capped(["check", "--spec", str(spec), "--conditions", "cesaro-domination",
                        "--n-sup", "64", "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert f"error: cell entry {spike!r} lies outside the rows" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_reps_past_the_key_word_exits_2(tmp_path):
    # a replication index is one 32-bit key word: 2^32 replications at most
    proc = _cli_capped(["simulate", "--fixture", "x2m-example", "--rows", "1..8",
                        "--reps", "5000000000", "--out", str(tmp_path / "s")])
    assert proc.returncode == 2, proc.stderr
    assert "error: --reps must be at most 2^32" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_reps_too_large_to_hold_exits_2(tmp_path):
    # 2^32 replications are allowed, but not their 32 GiB of maxima under the cap;
    # their keys are derived a chunk at a time, so the maxima are what fails
    proc = _cli_capped(["simulate", "--fixture", "x2m-example", "--rows", "1",
                        "--reps", str(2**32), "--out", str(tmp_path / "s")])
    assert proc.returncode == 2, proc.stderr
    assert f"error: --reps {2**32} too large to hold in memory" in proc.stderr
    assert "Traceback" not in proc.stderr


# run with two usable CPUs; the span starting past replication 0 only ever
# runs in a worker process, which the patch makes die or run out of memory
_WORKER_FAULT = """
import os, sys
import numpy as np
from llnlab import cli, simulate
real = simulate._Spans.__call__
def span(self, i, lo, hi):
    if lo > 0:
        if sys.argv[1] == "die":
            os._exit(3)
        np.empty(1 << 42)
    return real(self, i, lo, hi)
simulate._Spans.__call__ = span
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="worker processes need the fork start method")
@pytest.mark.parametrize("fault,message", [
    ("die", "error: a simulation worker process died"),
    ("memory", "error: row too large to hold in memory"),
])
@pytest.mark.parametrize("mode", ["wlln", "slln-path"])
def test_simulate_worker_fault_exits_2(tmp_path, fault, message, mode):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_FAULT, fault, "simulate", "--fixture", "x2m-example",
         "--mode", mode, "--rows", "2^4..2^8", "--reps", "50", "--threads", "2",
         "--out", str(tmp_path / "s")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["check", "--fixture", "example-4.1", "--conditions", "kG",
      "--n-sup", "100000000000"], "too large to hold in memory"),
    (["verify-fixtures", "--only", "example-4.1", "--n-sup", "100000000000",
      "--n", "1000"], "too large to hold in memory"),
    (["check", "--fixture", "example-4.1", "--p", "1e-300", "--conditions", "kG",
      "--n-sup", "64"], "leaves float range"),
    (["check", "--fixture", "x2m-example", "--p", "0.001", "--conditions", "series",
      "--n", "100"], "leaves float range"),
    (["simulate", "--fixture", "example-4.1", "--p", "0.001", "--rows", "4",
      "--reps", "2"], "leaves float range"),
    (["check", "--fixture", "example-4.1", "--p", "0.01", "--conditions",
      "b-regularity-wlln,b-regularity-l2", "--n", "100000"], "leaves float range"),
    # b_n = n^32 is in range, but its square is not from n = 2^16
    (["check", "--fixture", "x2m-example", "--p", "0.03125", "--conditions",
      "b-regularity-l2", "--n", "100000"], "b_n^2 is past the largest float from n = 65536"),
], ids=["check-scan-too-large", "verify-scan-too-large", "check-kG-spikes-overflow",
        "check-series-spikes-overflow", "simulate-spikes-overflow", "check-norming-overflow",
        "check-norming-square-overflow"])
def test_scan_too_large_or_past_float_range_exits_2(tmp_path, argv, message):
    # the spike magnitudes (i+1)^(1/p), or b_n, leave float range at these p
    if argv[0] != "verify-fixtures":
        argv = argv + ["--out", str(tmp_path / "o")]
    proc = _cli_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert "error: " in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o.json").exists()


def test_a_condition_that_does_not_apply_keeps_the_other_verdicts(tmp_path, capsys):
    # example-2.1 has grouped rows, so the series does not apply to it
    rc = run(["check", "--fixture", "example-2.1", "--conditions", "cesaro-domination,series",
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 0, err
    assert "check example-2.1 series: n/a" in err
    results = json.loads((tmp_path / "o.json").read_text())["results"]
    assert [r["outcome"] for r in results] == ["invalid", "n/a"]
    assert results[1]["detail"] == {"reason": "series condition needs a sequence-shaped array"}
    assert results[1]["match"] is True and results[1]["expected"] is None


@pytest.mark.parametrize("fixture", ["example-2.1", "wlln-counterexample"])
def test_no_requested_condition_applies_exits_2(tmp_path, capsys, fixture):
    rc = run(["check", "--fixture", fixture, "--conditions", "series,series",
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: series condition needs a sequence-shaped array\n"
    assert not (tmp_path / "o.json").exists()


def test_ratio_checks_at_2_to_the_25_run_in_bounded_memory(tmp_path):
    # the ratio scan reads b in chunks: 2^25 terms fit under the 1 GiB cap (the
    # whole-array check held about nine arrays of 2^25 floats and ran out)
    proc = _cli_capped(["check", "--fixture", "example-4.1", "--conditions",
                        "b-regularity-wlln,b-regularity-l2", "--n", str(2**25),
                        "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    for result in json.loads((tmp_path / "o.json").read_text())["results"]:
        assert result["outcome"] == "holds"
        assert result["detail"]["N"] == 2**25 and result["detail"]["checkpoints"][-1] == 2**25


def test_check_c0_past_any_scan_ends_valid(tmp_path):
    # example-2.1's C0 and weighted sup are closed: 10^11 rows are never read
    proc = _cli_capped(["check", "--fixture", "example-2.1", "--conditions",
                        "weighted-domination", "--n-sup", "100000000000",
                        "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert "weighted-domination: valid (expected valid)" in proc.stderr
    detail = json.loads((tmp_path / "o.json").read_text())["results"][0]["detail"]
    assert detail["c0"] == 1.25 and detail["closed_form"] is True


def _tiny_p_spec(tmp_path):
    """p = 1e-300 (1/p an integral float) over +-1 cells in rows 1..2."""
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in (1, 2) for i in range(1, n + 1)]
    path = tmp_path / "tiny-p.json"
    path.write_text(json.dumps({"rows": {"k": "n"}, "p": 1e-300, "nu": 1, "cells": cells}))
    return str(path)


@pytest.mark.parametrize("argv,rc", [
    (["check", "--fixture", "x2m-example", "--p", "1.52587890625e-05", "--conditions", "kG",
      "--n-sup", "64"], 1),
    (["check", "--spec", "{spec}", "--conditions", "b-regularity-wlln", "--n", "100"], 2),
    (["simulate", "--spec", "{spec}", "--rows", "1..2", "--reps", "3"], 2),
], ids=["check-kG-fixture", "check-ratio-spec", "simulate-spec"])
def test_an_integral_huge_1_over_p_ends_at_once(tmp_path, argv, rc):
    # b_n = n^(1/p) is an exact int power when 1/p is an integral float, 2^16 or 1e300
    # here: the kG grid stops where the power has too many bits, b_2 leaves float range
    spec = _tiny_p_spec(tmp_path)
    argv = [a.format(spec=spec) for a in argv] + ["--out", str(tmp_path / "o")]
    start = time.perf_counter()
    proc = _cli_capped(argv)
    assert time.perf_counter() - start < 20.0
    assert proc.returncode == rc, proc.stderr
    assert rc == 1 or "error: a value leaves float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_exact_power_within_the_bit_bound_still_decides_kG(tmp_path):
    # 1/p = 1024: x2m-example's kG grid up to 2^1300 takes powers of 1.3M bits
    proc = _cli_capped(["check", "--fixture", "x2m-example", "--p", "0.0009765625",
                        "--conditions", "kG", "--n-sup", "64", "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert "check x2m-example kG: holds" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["check", "--fixture", "example-4.1", "--conditions", "series", "--n", "1000000000000"],
    ["check", "--fixture", "example-4.1", "--conditions", "b-regularity-wlln",
     "--n", str(MAX_N + 1)],
    ["verify-fixtures", "--n", "1000000000000"],
], ids=["check-series", "check-ratio-past-the-bound", "verify-fixtures"])
def test_budget_past_max_n_exits_2_before_reading(tmp_path, argv):
    # a series scan of 10^12 cells would run for days in bounded memory
    if argv[0] == "check":
        argv = argv + ["--out", str(tmp_path / "o")]
    proc = _cli_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert f"argument --n: must be at most {MAX_N}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("mode", ["wlln", "slln-path"])
def test_simulate_negative_seed_exits_2(tmp_path, capsys, mode):
    rc = run(["simulate", "--fixture", "x2m-example", "--mode", mode,
              "--rows", "2^4..2^5", "--reps", "3", "--seed", "-1",
              "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("dependence", [
    {"kind": "independent"},
    {"kind": "gaussian-na", "correlation": -0.3},
])
@pytest.mark.parametrize("mode", ["wlln", "slln-path"])
def test_simulate_sequence_spec_rows_past_cells_exit_2(tmp_path, dependence, mode):
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in range(1, 5) for i in range(1, n + 1)]
    spec = tmp_path / "seq.json"
    spec.write_text(json.dumps({
        "rows": {"k": "n"}, "p": 1.0, "sequence": True, "cells": cells,
        "dependence": dependence,
    }))
    rc = run(["simulate", "--spec", str(spec), "--mode", mode, "--rows", "1..8",
              "--reps", "3", "--out", str(tmp_path / "s")])
    assert rc == 2


@pytest.mark.parametrize("extra", [
    ["--fixture", "example-2.1", "--mode", "slln-path"],  # grouped rows have no paths
    ["--fixture", "x2m-example", "--eps", "0.5,nan"],
    ["--fixture", "x2m-example", "--eps", "inf"],
    ["--fixture", "x2m-example", "--threads", "0"],
    ["--fixture", "x2m-example", "--threads", "-3"],
], ids=["path-on-grouped-rows", "eps-nan", "eps-inf", "threads-0", "threads-negative"])
def test_simulate_unusable_input_exits_2(tmp_path, capsys, extra):
    rc = run(["simulate", *extra, "--rows", "8,16", "--reps", "3",
              "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode", ["wlln", "slln-series", "slln-path"])
def test_simulate_partial_sums_past_float_range_exit_2(tmp_path, mode, threads):
    # every Pareto(1e-300) draw is +-inf: a row holding both sums to NaN, which
    # is above no epsilon and would read as no exceedance.  A subprocess, so
    # stderr holds what the workers print too: the error line and no numpy warning
    cells = [{"n": n, "i": i, "dist": {"kind": "pareto", "alpha": 1e-300, "cutoff": 1.0}}
             for n in range(1, 5) for i in range(1, n + 1)]
    spec = tmp_path / "tiny-alpha.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "sequence": True, "cells": cells}))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "llnlab.cli", "simulate", "--spec", str(spec), "--mode", mode,
         "--rows", "1..4", "--reps", "20", "--threads", threads, "--out", str(tmp_path / "s")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error: row " in proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert not list(tmp_path.glob("s.*"))


@pytest.mark.parametrize("argv", [
    ["check", "--fixture", "example-4.1", "--conditions", "series", "--n", "0"],
    ["check", "--fixture", "example-4.1", "--conditions", "series", "--n", "-5"],
    ["check", "--fixture", "example-4.1", "--conditions", "kG", "--n-sup", "0"],
    ["verify-fixtures", "--n", "0"],
    ["verify-fixtures", "--only", "example-2.1", "--n-sup", "-1"],
    ["verify-fixtures", "--only", "example-4.1", "--n", "1"],
], ids=["check-n-0", "check-n-negative", "check-n-sup-0", "verify-n-0",
        "verify-n-sup-negative", "verify-n-1-ratio-needs-2"])
def test_unusable_budgets_exit_2(tmp_path, capsys, argv):
    if argv[0] == "check":
        argv = argv + ["--out", str(tmp_path / "c")]
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("condition", ["kG", "kG-hat"])
@pytest.mark.parametrize("p", ["0.7", "1.5", "1.9"])
def test_x2m_count_tail_past_float_range_keeps_exit_contract(tmp_path, capsys, p, condition):
    # the kG grid reaches 2^1300, where b_k = k^(1/p) leaves float range
    rc = run(["check", "--fixture", "x2m-example", "--p", p, "--conditions", condition,
              "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert rc in (0, 1), err
    assert "Traceback" not in err
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["results"][0]["outcome"] in ("holds", "fails", "inconclusive")


SPEC_CASES = {
    "p-null": {"p": None},
    "nu-null": {"nu": None},
    "rows-int": {"rows": 5},
    "dependence-string": {"dependence": "independent"},
    "weights-string": {"weights": "uniform"},
    "b-int": {"b": 3},
    "svf-string": {"svf": "constant"},
    "svf-gamma-infinite": {"svf": {"family": "log-power", "gamma": float("inf")}},
    "b-values-null": {"b": {"kind": "explicit", "values": [1, None]}},
    "b-values-string": {"b": {"kind": "explicit", "values": [1, "2"]}},
    "p-zero": {"p": 0},
    "p-negative": {"p": -1.0},
    "p-nan": {"p": float("nan")},
    "p-infinite": {"p": float("inf")},
    "b-p-zero": {"b": {"kind": "power", "p": 0}},
    "nu-half": {"nu": 1.5},
    "nu-zero": {"nu": 0},
    "nu-infinite": {"nu": float("inf")},
    "fixture-nu-half": {"fixture": "example-4.1", "nu": 1.5},
    "fixture-nu-infinite": {"fixture": "x2m-example", "nu": float("inf")},
    # JSON reads a magnitude of 1e999 as inf, which a step law must not carry
    "two-point-magnitude-infinite": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "symmetric-two-point", "magnitude": float("inf")}}]},
    "two-point-magnitude-nan": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "symmetric-two-point", "magnitude": float("nan"), "prob": 0.5}}]},
    # a(n, i) >= 0 and finite; so is c, but for its sign under flavor sum-sq
    "weight-a-negative": {"weights": {"kind": "explicit",
                                      "values": [{"n": 1, "i": 1, "a": -1.0}]}},
    "weight-a-infinite": {"weights": {"kind": "explicit",
                                      "values": [{"n": 1, "i": 1, "a": float("inf")}]}},
    "weight-c-nan": {"weights": {"kind": "c-normalized",
                                 "values": [{"n": 1, "i": 1, "c": float("nan")}]}},
    "weight-c-negative": {"cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
                                    for n in (1, 2) for i in range(1, n + 1)],
                          "weights": {"kind": "c-normalized", "values": [
                              {"n": 1, "i": 1, "c": 1.0}, {"n": 2, "i": 1, "c": -1.0},
                              {"n": 2, "i": 2, "c": 3.0}]}},
    # float() would read these as 2.0, 0.5, 3.0 and 1.0
    "two-point-magnitude-string": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "symmetric-two-point", "magnitude": "2.0"}}]},
    "two-point-prob-string": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "symmetric-two-point", "magnitude": 2.0, "prob": "0.5"}}]},
    "pareto-alpha-string": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "pareto", "alpha": "3"}}]},
    "pareto-cutoff-bool": {"cells": [{"n": 1, "i": 1, "dist": {
        "kind": "pareto", "alpha": 3.0, "cutoff": True}}]},
    "cell-row-fraction": {"cells": [{"n": 1.7, "i": 1, "dist": {"kind": "symmetric-pm1"}}]},
    "cell-index-string": {"cells": [{"n": 1, "i": "1", "dist": {"kind": "symmetric-pm1"}}]},
    "na-correlation-string": {"dependence": {"kind": "gaussian-na", "correlation": "-0.3"}},
    "na-correlation-bool": {"dependence": {"kind": "gaussian-na", "correlation": False}},
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
    # a flag is a JSON bool, a row length an integer and a label a string: "false"
    # and 1 each loaded as a sequence array, and k_n = True as one cell a row
    "sequence-string": {"sequence": "false"},
    "sequence-int": {"sequence": 1},
    "rows-k-bool": {"rows": {"k": True}},
    "rows-k-float": {"rows": {"k": 1.0}},
    "label-int": {"label": 5},
    # an explicit weight table is complete at load: cesaro-domination and simulate
    # never read the missing entry, and exited 0
    "weight-a-missing": {"cells": [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
                                   for n in range(1, 5) for i in range(1, n + 1)],
                         "weights": {"kind": "explicit", "values": [
                             {"n": n, "i": i, "a": 1.0 / n} for n in range(1, 5)
                             for i in range(1, n + 1) if (n, i) != (3, 2)]}},
}


@pytest.mark.parametrize("command", [
    ["check", "--conditions", "cesaro-domination"],
    ["simulate", "--rows", "1", "--reps", "2"],
], ids=["check", "simulate"])
@pytest.mark.parametrize("extra", SPEC_CASES.values(), ids=SPEC_CASES.keys())
def test_malformed_spec_sections_exit_2(tmp_path, capsys, recwarn, command, extra):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"cells": [{"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}}], **extra}))
    rc = run([command[0], "--spec", str(spec), *command[1:], "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err and "Traceback" not in err
    assert not recwarn.list, [str(w.message) for w in recwarn]  # e.g. numpy's divide by zero
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("conditions", [",", " , ,", ""], ids=["comma", "blanks", "empty"])
def test_check_without_conditions_exits_2(tmp_path, capsys, conditions):
    rc = run(["check", "--fixture", "x2m-example", "--conditions", conditions,
              "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("command", [
    ["check", "--conditions", "b-regularity-wlln"],
    ["simulate", "--rows", "1", "--reps", "2"],
], ids=["check", "simulate"])
@pytest.mark.parametrize("flag", [["--p", "1.5"], ["--nu", "2"]], ids=["p", "nu"])
def test_fixture_parameters_with_spec_exit_2(tmp_path, capsys, command, flag):
    # --p/--nu override --fixture parameters only; a spec states its own
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"fixture": "example-4.1"}))
    rc = run([command[0], "--spec", str(spec), *flag, *command[1:],
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error: --p/--nu apply to --fixture only" in err
    assert not (tmp_path / "o.json").exists()


# a fresh interpreter runs ``cli.main(argv)`` (or only imports the CLI when argv
# is empty) and prints the modules it loaded of the named packages (a package
# and its submodules: "numpy.random" names numpy.random and numpy.random.*); the
# test process itself has imported them already
MODULE_PROBE = """
import json, sys
from llnlab import cli
from llnlab.conditions import MAX_N
from llnlab.fixtures import FIXTURE_NAMES
packages = tuple(sys.argv[1].split(","))
rc = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in packages or m.startswith(tuple(p + "." for p in packages)))))
sys.exit(rc)
"""


def _modules_loaded_by(argv, packages="scipy"):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, packages, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_scipy():
    assert _modules_loaded_by([]) == set()


@pytest.mark.parametrize("argv", [[], ["--threads", "1"]], ids=["import", "threads-1"])
def test_no_process_pool_without_workers(tmp_path, argv):
    # the pool modules load only when --threads starts worker processes
    if argv:
        argv = ["simulate", "--fixture", "x2m-example", "--mode", "slln-path", "--rows",
                "2^4..2^5", "--reps", "4", *argv, "--out", str(tmp_path / "o")]
    assert _modules_loaded_by(argv, "multiprocessing,concurrent") == set()


# a sequence of +-1 and Pareto cells (alpha 3, p = 1, nu = 1): its moments are closed forms
PARETO_SPEC = {"rows": {"k": "n"}, "p": 1.0, "nu": 1, "sequence": True, "cells": [
    {"n": n, "i": i, "dist": {"kind": "pareto", "alpha": 3.0, "cutoff": 1.5} if i % 2
     else {"kind": "symmetric-pm1"}} for n in range(1, 9) for i in range(1, n + 1)]}

SCIPY_FREE = {
    "chandra-ghosal": ["check", "--fixture", "example-4.1", "--conditions", "chandra-ghosal",
                       "--n-sup", "64"],
    "wlln": ["simulate", "--fixture", "x2m-example", "--mode", "wlln"],
    "slln-path": ["simulate", "--fixture", "x2m-example", "--mode", "slln-path"],
    "slln-series": ["simulate", "--fixture", "example-4.1", "--mode", "slln-series"],
    **{f"verify-fixtures-{name}": ["verify-fixtures", "--only", name, "--n-sup", "64",
                                   "--n", "1000"] for name in FIXTURE_NAMES},
    **{f"chandra-ghosal-{name}": ["check", "--fixture", name, "--conditions", "chandra-ghosal",
                                  "--n-sup", "64"] for name in ("example-2.1", "x2m-example")},
    "pareto-spec-ui-bounded-moment": ["check", "--spec", "{spec}", "--conditions",
                                      "ui,bounded-moment", "--n-sup", "64"],
}


def _probe_argv(tmp_path, name):
    """``SCIPY_FREE[name]`` with its spec written, a simulate grid and an --out base."""
    spec = tmp_path / "pareto.json"
    spec.write_text(json.dumps(PARETO_SPEC))
    argv = [str(spec) if a == "{spec}" else a for a in SCIPY_FREE[name]]
    if argv[0] == "simulate":
        argv = argv + ["--rows", "2^4..2^5", "--reps", "4", "--eps", "0.5"]
    if argv[0] != "verify-fixtures":
        argv = argv + ["--out", str(tmp_path / "o")]
    return argv


@pytest.mark.parametrize("name", list(SCIPY_FREE))
def test_step_law_runs_load_no_quadrature_or_special_functions(tmp_path, name):
    loaded = _modules_loaded_by(_probe_argv(tmp_path, name))
    assert not loaded & {"scipy.integrate", "scipy.special"}, sorted(loaded)


# the sampler's numpy.random loads only when a sampler is built, and the
# manifest's versions come from the loaded modules, not a metadata scan
NOT_DRAWING = ["import", *(name for name, argv in SCIPY_FREE.items() if argv[0] != "simulate")]


@pytest.mark.parametrize("name", NOT_DRAWING)
def test_condition_runs_load_no_sampler_or_metadata(tmp_path, name):
    argv = [] if name == "import" else _probe_argv(tmp_path, name)
    assert _modules_loaded_by(argv, "numpy.random,importlib.metadata") == set()


def test_simulate_loads_the_sampler(tmp_path):
    # the probe sees the deferred import: a run that draws loads numpy.random
    loaded = _modules_loaded_by(_probe_argv(tmp_path, "wlln"), "numpy.random,importlib.metadata")
    assert "numpy.random" in loaded and "importlib.metadata" not in loaded, sorted(loaded)


@pytest.mark.parametrize("mode", ["wlln", "slln-path", "replay"])
def test_gaussian_na_runs_load_no_scipy(tmp_path, mode):
    # a gaussian-na row maps its normals through the cephes ndtr port, not scipy's
    spec = tmp_path / "na.json"
    spec.write_text(json.dumps(dict(PARETO_SPEC, dependence={"kind": "gaussian-na",
                                                             "correlation": -0.3})))
    argv = ["simulate", "--spec", str(spec), "--mode", "wlln" if mode == "replay" else mode,
            "--rows", "1..8", "--reps", "20", "--out", str(tmp_path / "o")]
    if mode == "replay":
        assert run(argv) == 0
        argv = ["replay", str(tmp_path / "o.manifest.json")]
    assert _modules_loaded_by(argv) == set()


def test_quadrature_loads_scipy_integrate_on_first_use(tmp_path):
    # the probe sees a deferred import: wlln-counterexample's closed sup is no
    # step source, so its chandra-ghosal integral goes through quadrature
    loaded = _modules_loaded_by(["check", "--fixture", "wlln-counterexample", "--conditions",
                                 "chandra-ghosal", "--n-sup", "64",
                                 "--out", str(tmp_path / "o")])
    assert "scipy.integrate" in loaded


def _pm1_spec_args(tmp_path, **keys):
    cells = [{"n": n, "i": i, "dist": {"kind": "symmetric-pm1"}}
             for n in range(1, 9) for i in range(1, n + 1)]
    spec = tmp_path / "pm1.json"
    spec.write_text(json.dumps({"rows": {"k": "n"}, "cells": cells, **keys}))
    return ["--spec", str(spec)]


@pytest.mark.parametrize("case", ["fixture", "spec-p", "spec-b-p"])
def test_a_p_whose_inverse_overflows_exits_2(tmp_path, case):
    # 1/5e-324 is inf and 2.0 ** inf is inf, so b_n would be inf: NaN ratios,
    # or a p-hat of 0.0 on every row
    src = {"fixture": lambda: ["--fixture", "example-4.1", "--p", "5e-324"],
           "spec-p": lambda: _pm1_spec_args(tmp_path, p=5e-324),
           "spec-b-p": lambda: _pm1_spec_args(tmp_path, b={"kind": "power", "p": 5e-324})}[case]()
    check = _cli_capped(["check", *src, "--conditions",
                         "b-regularity-wlln,b-regularity-l2,kG,series,ui",
                         "--n-sup", "64", "--n", "100", "--out", str(tmp_path / "c")])
    sim = _cli_capped(["simulate", *src, "--rows", "2..8", "--reps", "5",
                       "--out", str(tmp_path / "s")])
    for proc in (check, sim):
        assert proc.returncode == 2, proc.stderr
        assert "with 1/p finite" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
