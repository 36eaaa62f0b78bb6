"""Run one llnlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-fixture --seed 1 --seconds 10 --trace 0

One client sends the workload's fixed list of CLI commands through
``llnlab.cli.main(argv)`` in this process, each after the previous one
returns (a closed loop), and repeats the list while the next pass still ends
within ``--seconds`` (always at least one pass).
Outputs are checked and hashed on every pass.  ``--trace 1`` adds one traced
pass after the untraced ones and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record (the
environment, every sample, every output digest) is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` and, for a traced
run, the spans to ``perfbench/out/<workload>-seed<seed>-trace1.spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from specgen import write_spec  # noqa: E402
from workloads import SIZES, WORKLOADS, cells_drawn, commands  # noqa: E402

# metrics named in BENCHMARK.json; everything else goes to the full record
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
SETUP_RUNS = 4


def record_path(workload: str, seed: int, trace: int, size: str = "full") -> Path:
    tag = "" if size == "full" else f"-{size}"
    return OUT / f"{workload}-seed{seed}-trace{trace}{tag}.json"


def unit_of(name: str) -> str:
    if name == "draws_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_ratio", "thread_speedup", "overhead")):
        return "ratio"
    if name.endswith((".s", "_s")) or name.startswith(("sim_s.", "check_s.")):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------


def load_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    The load average only sees this machine's own processes; on a shared
    virtual machine the probe and the steal time also show contention from
    outside it.
    """

    def once() -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        return perf_counter() - t0

    return statistics.median(once() for _ in range(5))


def steal_ticks() -> int | None:
    """Clock ticks the hypervisor gave to other guests since boot, all CPUs."""
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, ValueError, IndexError):
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh interpreters that import ``llnlab.cli`` and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import llnlab.cli"]

    def once() -> float:
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - t0

    once()  # byte-compiles a fresh checkout; not timed
    return [once() for _ in range(runs)]


# ---------------------------------------------------------------------------
# One pass over the command list
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out_base: Path, log: str) -> dict[str, str]:
    """SHA-256 of the CSV/JSON outputs and of the log; manifests hold paths."""
    digests = {"stderr": sha256(log.encode())}
    for suffix in (".csv", ".json"):
        path = out_base.with_suffix(suffix)
        if path.is_file():
            digests[suffix[1:]] = sha256(path.read_bytes())
    return digests


def check_outputs(cmd, out_base: Path) -> list[str]:
    """Problems with one command's outputs beyond its exit code."""
    problems = []
    if cmd.kind == "check":
        for r in json.loads(out_base.with_suffix(".json").read_text())["results"]:
            if not r["match"]:
                problems.append(f"{r['condition']}: match false")
            want = cmd.expected.get(r["condition"])
            if want is not None and r["outcome"] != want:
                problems.append(f"{r['condition']}: {r['outcome']} (expected {want})")
    elif cmd.kind == "simulate":
        obj = json.loads(out_base.with_suffix(".json").read_text())
        if "fraction_below" in obj:
            values = [v for vs in obj["fraction_below"].values() for v in vs]
        else:
            values = [e["p_hat"] for e in obj["entries"]]
        if not any(0.0 < v < 1.0 for v in values):
            problems.append("degenerate: no estimate strictly inside (0, 1)")
    return problems


def run_pass(cmds, main, work: Path, seed: int, spec: str, reference: dict,
             tracer=None) -> dict:
    """Run every command once; time it, hash and check its outputs."""
    records = []
    t_pass = perf_counter()
    for i, cmd in enumerate(cmds):
        out_base = work / f"cmd{i}"
        for suffix in (".csv", ".json", ".manifest.json"):
            out_base.with_suffix(suffix).unlink(missing_ok=True)
        argv = cmd.render(seed, spec, str(out_base))
        log = io.StringIO()
        problems = []
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(log), contextlib.redirect_stdout(log):
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = main(argv)
                else:
                    rc = tracer.run_command(i, lambda: main(argv))
            except Exception as exc:  # a traceback is a failed command, not a crash
                rc = None
                problems.append(f"raised {exc!r}")
            seconds = perf_counter() - t0
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                problems += check_outputs(cmd, out_base)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        digests = output_digests(out_base, log.getvalue())
        ref = reference.setdefault(cmd.metric, digests)
        if digests != ref:
            problems.append("output digest differs from the first pass")
        if cmd.same_bytes_as is not None:
            other = next(r for r in records if r["metric"] == cmd.same_bytes_as)
            mine = {k: v for k, v in digests.items() if k != "stderr"}
            theirs = {k: v for k, v in other["digests"].items() if k != "stderr"}
            if mine != theirs:
                problems.append(f"outputs differ from {cmd.same_bytes_as}")
        records.append({"metric": cmd.metric, "seconds": seconds, "rc": rc,
                        "digests": digests, "warnings": len(caught),
                        "problems": problems})
    return {"pass_s": perf_counter() - t_pass, "commands": records}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) > 10:
        k = len(s) - 10
        out[f"p{100 * k / len(s):g}"] = s[k - 1]
    return out


def end_to_end(cmds, passes: list[dict], setup: list[float]) -> dict[str, dict]:
    samples: dict[str, list[float]] = {"setup_s": setup,
                                       "pass_s": [p["pass_s"] for p in passes]}
    sims = [c for c in cmds if c.kind == "simulate"]
    if sims:
        cells = sum(cells_drawn(c) for c in sims)
        samples["draws_per_s"] = [
            cells / sum(r["seconds"] for r in p["commands"] if r["metric"] in
                        {c.metric for c in sims})
            for p in passes
        ]
    for i, cmd in enumerate(cmds):
        samples[cmd.metric] = [p["commands"][i]["seconds"] for p in passes]
    return {name: summarize(v) for name, v in samples.items() if v}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':<42} {'unit':<6} {'value':>14} {'n':>4}  tail")
    for name, m in metrics.items():
        value = m["median"] if isinstance(m, dict) else m
        n = m.get("n", "") if isinstance(m, dict) else ""
        tail = ", ".join(f"{k}={v:.6g}" for k, v in m.items()
                         if k.startswith("p")) if isinstance(m, dict) else ""
        print(f"  {name:<42} {unit_of(name):<6} {value:>14.6g} {n:>4}  {tail}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat the command list while a pass still ends in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny only exercises the harness (self-test)")
    return ap.parse_args(argv)


def run_passes(args, cmds, cli_main, work: Path):
    """Untraced passes for ``--seconds``, then one traced pass when asked.

    Returns (spec SHA-256, untraced passes, traced pass or None, tracer or None,
    reference digests).
    """
    spec = work / "spec.json"
    spec_sha = write_spec(spec, args.seed, SIZES[args.size]["spec_rows"])
    reference: dict = {}

    def one_pass(tracer=None) -> dict:
        return run_pass(cmds, cli_main, work, args.seed, str(spec), reference, tracer)

    # passes while the next one still ends within --seconds; at least one
    passes = []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start + passes[-1]["pass_s"] <= args.seconds:
        passes.append(one_pass())
    if not args.trace:
        return spec_sha, passes, None, None, reference
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    return spec_sha, passes, traced, tracer, reference


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "llnlab" / "cli.py").is_file():
        print(f"error: no llnlab sources under {SRC}", file=sys.stderr)
        return 2
    env = {"seed": args.seed, "workload": args.workload, "size": args.size,
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": cpu_model(), "python": sys.version.split()[0],
           "git_commit": git_commit(), "loadavg_1m_before": load_1m(),
           "host_probe_s_before": host_probe()}
    steal_before = steal_ticks()
    setup = measure_setup(SETUP_RUNS) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from llnlab.cli import main as cli_main

    env.update(numpy=numpy.__version__, scipy=scipy.__version__)
    cmds = commands(args.workload, args.size)
    argvs = [c.render(args.seed, "<spec>", f"cmd{i}") for i, c in enumerate(cmds)]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec_sha, passes, traced, tracer, reference = run_passes(args, cmds, cli_main, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env.update(loadavg_1m_after=load_1m(), host_probe_s_after=host_probe())
    if steal_before is not None:
        env["steal_s"] = (steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
    path = record_path(args.workload, args.seed, args.trace, args.size)

    records = [r for p in passes + ([traced] if traced else []) for r in p["commands"]]
    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"FAIL {r['metric']}: {problem}", file=sys.stderr)
    metrics = end_to_end(cmds, passes, setup)
    metrics["fail_ratio"] = failed / len(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"environment": env, "spec_sha256": spec_sha, "commands": argvs,
              "digests": reference, "metrics": metrics, "passes": passes,
              "traced_pass": traced}
    if tracer is not None:
        layers = layer_metrics(tracer)
        t1 = metrics.get("sim_s.wlln", {}).get("median")
        t2 = metrics.get("sim_s.wlln-t2", {}).get("median")
        layers["simulate.thread_speedup"] = t1 / t2 if t1 and t2 else 0.0
        layers["trace.overhead"] = traced["pass_s"] / metrics["pass_s"]["median"] - 1.0
        record["layers"] = layers
        tracer.write(path.with_suffix(".spans.json"), argvs)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"spec sha256 {spec_sha[:16]}  record {path.relative_to(ROOT)}")
    print_table("end-to-end", metrics)
    if tracer is not None:
        print_table("per-layer (traced pass)", layers)
        shown = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        shown = {k: {"value": metrics[k]["median"] if isinstance(metrics[k], dict)
                     else metrics[k], "unit": unit_of(k)} for k in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
