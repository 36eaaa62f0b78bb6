import json
import multiprocessing
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from llnlab import cli


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


@pytest.mark.parametrize("mode", ["wlln", "slln-path"])
def test_simulate_modes_are_worker_count_invariant(tmp_path, mode):
    base = ["simulate", "--fixture", "x2m-example", "--p", "1", "--mode", mode,
            "--rows", "2^4..2^8", "--reps", "50", "--seed", "3", "--format", "json"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert run(base + ["--threads", threads, "--out", str(out)]) == 0
        outs.append(out.with_suffix(".json").read_bytes())
    assert outs[0] == outs[1]


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


def test_manifest_records_versions(tmp_path):
    import numpy
    import scipy

    out = tmp_path / "chk"
    assert run(["check", "--fixture", "example-2.1", "--conditions", "kG", "--n-sup", "64",
                "--out", str(out)]) in (0, 1)
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["python"] == sys.version.split()[0]
    assert (manifest["numpy"], manifest["scipy"]) == (numpy.__version__, scipy.__version__)


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


def _cli_capped(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "llnlab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
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


def test_simulate_row_too_large_to_hold_exits_2(tmp_path):
    proc = _simulate_capped(tmp_path, "2^40")
    assert proc.returncode == 2, proc.stderr
    assert "error: row too large to hold" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_reps_past_the_key_word_exits_2(tmp_path):
    # a replication index is one 32-bit key word: 2^32 replications at most
    proc = _cli_capped(["simulate", "--fixture", "x2m-example", "--rows", "1..8",
                        "--reps", "5000000000", "--out", str(tmp_path / "s")])
    assert proc.returncode == 2, proc.stderr
    assert "error: --reps must be at most 2^32" in proc.stderr
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
    (["check", "--fixture", "example-2.1", "--conditions", "weighted-domination",
      "--n-sup", "100000000000"], "too large to hold in memory"),
    (["check", "--fixture", "example-4.1", "--p", "1e-300", "--conditions", "kG",
      "--n-sup", "64"], "leaves float range"),
    (["check", "--fixture", "x2m-example", "--p", "0.001", "--conditions", "series",
      "--n", "100"], "leaves float range"),
    (["simulate", "--fixture", "example-4.1", "--p", "0.001", "--rows", "4",
      "--reps", "2"], "leaves float range"),
], ids=["check-scan-too-large", "verify-scan-too-large", "check-c0-too-large",
        "check-kG-spikes-overflow", "check-series-spikes-overflow",
        "simulate-spikes-overflow"])
def test_scan_too_large_or_past_float_range_exits_2(tmp_path, argv, message):
    # the spike magnitudes (i+1)^(1/p) leave float range at these p
    if argv[0] != "verify-fixtures":
        argv = argv + ["--out", str(tmp_path / "o")]
    proc = _cli_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert "error: " in proc.stderr and message in proc.stderr
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
}


@pytest.mark.parametrize("command", [
    ["check", "--conditions", "cesaro-domination"],
    ["simulate", "--rows", "1", "--reps", "2"],
], ids=["check", "simulate"])
@pytest.mark.parametrize("extra", SPEC_CASES.values(), ids=SPEC_CASES.keys())
def test_malformed_spec_sections_exit_2(tmp_path, capsys, command, extra):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"cells": [{"n": 1, "i": 1, "dist": {"kind": "symmetric-pm1"}}], **extra}))
    rc = run([command[0], "--spec", str(spec), *command[1:], "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err and "Traceback" not in err
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
# is empty) and prints the modules of the named packages it loaded; the test
# process itself has imported them already
MODULE_PROBE = """
import json, sys
from llnlab import cli
packages = sys.argv[1].split(",")
rc = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in packages)))
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


SCIPY_FREE = {
    "chandra-ghosal": ["check", "--fixture", "example-4.1", "--conditions", "chandra-ghosal",
                       "--n-sup", "64"],
    "wlln": ["simulate", "--fixture", "x2m-example", "--mode", "wlln"],
    "slln-path": ["simulate", "--fixture", "x2m-example", "--mode", "slln-path"],
    "slln-series": ["simulate", "--fixture", "example-4.1", "--mode", "slln-series"],
}


@pytest.mark.parametrize("name", list(SCIPY_FREE))
def test_step_law_runs_load_no_quadrature_or_special_functions(tmp_path, name):
    argv = SCIPY_FREE[name]
    if argv[0] == "simulate":
        argv = argv + ["--rows", "2^4..2^5", "--reps", "4", "--eps", "0.5"]
    loaded = _modules_loaded_by(argv + ["--out", str(tmp_path / "o")])
    assert not loaded & {"scipy.integrate", "scipy.special"}, sorted(loaded)


def test_quadrature_loads_scipy_integrate_on_first_use(tmp_path):
    # the probe sees a deferred import: closed forms of example-2.1 integrate
    loaded = _modules_loaded_by(["verify-fixtures", "--only", "example-2.1", "--n-sup", "64",
                               "--n", "1000"])
    assert "scipy.integrate" in loaded
