"""Batch front end: run condition checks and simulations, emit reports.

Outputs are JSON (verdicts, reports) and CSV (simulation tables); progress
goes to stderr.  Every run writes a manifest next to its outputs, with the
argv and the Python, numpy and scipy versions of the installed packages
(scipy's read without importing it); ``replay`` re-executes a manifest's
command line and reproduces the outputs bitwise (seeds are explicit
everywhere).  A non-finite float is written as the string "inf", "-inf" or
"nan".

Exit codes: 0 = ran and matched attached expectations (fixtures), 1 = some
expectation failed, 2 = unusable input (parse error), a row too large to
hold, or a simulation worker process that died.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .conditions import CONDITIONS, MAX_N, run_condition
from .errors import LlnLabError, NotApplicableError, RepsError, SpecError
from .fixtures import FIXTURE_NAMES, Problem, load as load_fixture
from .model import DEFAULT_N_SUP
from .simulate import (
    SimPlan,
    slln_path_diagnostic,
    slln_series_estimate,
    wlln_estimate,
)
from .specio import load_spec


# a run that raises one of these cannot use its input: "error: ..." and exit 2
UNUSABLE = (LlnLabError, ValueError, MemoryError, OverflowError)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _unusable(exc: Exception, where: str = "") -> int:
    """Report an input the run cannot use (one of ``UNUSABLE``); exit code 2."""
    if isinstance(exc, MemoryError):  # a scan or row too large to hold
        where += "too large to hold in memory: "
    elif isinstance(exc, OverflowError):  # e.g. spikes (i+1)^(1/p) at a tiny p
        where += "a value leaves float range: "
    _log(f"error: {where}{exc}")
    return 2


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _parse_rows(text: str) -> tuple[int, ...]:
    def one(tok: str) -> int:
        base, hat, exp = tok.strip().partition("^")
        # a row is at most 2^63 - 1, which |base| >= 2 passes from exp = 63: not worked out
        big = hat and abs(int(base)) > 1 and int(exp) >= 63
        value = math.inf if big else int(base) ** int(exp) if hat else int(base)
        if value > 2**63 - 1:
            raise SpecError(f"--rows {tok.strip()!r} passes the largest row, 2^63 - 1")
        return value

    if ".." in text:
        lo, hi = (one(t) for t in text.split(".."))
        if not 1 <= lo <= hi:
            raise SpecError(f"--rows range needs 1 <= lo <= hi, got {text!r}")
        rows = []
        n = lo
        while n <= hi:
            rows.append(n)
            n *= 2
        return tuple(rows)
    return tuple(sorted(one(t) for t in text.split(",")))


def _load(args) -> Problem:
    if args.spec is None:
        return load_fixture(args.fixture, p=args.p, nu=args.nu)
    if args.p is not None or args.nu is not None:
        raise SpecError("--p/--nu apply to --fixture only; set p and nu in the spec")
    return load_spec(args.spec)


def _finite(obj):
    """``obj`` with each non-finite float written as "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json_text(obj) -> str:
    """Standard JSON (RFC 8259 has no ``Infinity`` or ``NaN`` token)."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@functools.cache
def _scipy_version() -> str | None:
    """The installed scipy's version, read from its ``scipy/version.py`` (a
    file of plain assignments), so no scipy module is imported and no package
    metadata is scanned; None when scipy is not installed.  Read once per
    process (about 0.16 ms)."""
    import importlib.util

    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    path = Path(spec.submodule_search_locations[0]) / "version.py"
    found: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), found)
    return found["version"]


def _versions() -> dict:
    """Python, numpy and scipy versions of the installed packages: the same for
    an argv whatever the process ran before."""
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": _scipy_version()}


def _write_outputs(out: str, argv: list[str], texts: dict[str, str]) -> int:
    """Write ``<out><suffix>`` for each (suffix, text), then the manifest
    listing them; 2 with ``error: ...`` when the base cannot be written.

    The suffix is appended to the whole base: ``--out run.v2`` writes
    ``run.v2.json``.
    """
    base = Path(out)
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        outputs = []
        for suffix, text in texts.items():
            path = base.with_name(base.name + suffix)
            path.write_text(text)
            outputs.append(str(path))
        manifest = {"tool": "llnlab", "version": __version__, "argv": argv, "outputs": outputs,
                    **_versions()}
        base.with_name(base.name + ".manifest.json").write_text(_json_text(manifest))
    except (OSError, ValueError) as exc:  # ValueError: a base with an empty name
        _log(f"error: cannot write outputs to --out {out!r}: {exc}")
        return 2
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# simulate --mode -> its run, given the plan, the problem and --threads
MODES = {
    "wlln": lambda plan, spec, threads: wlln_estimate(plan, threads=threads),
    "slln-series": lambda plan, spec, threads: slln_series_estimate(
        plan, spec.sv, spec.p, threads=threads),
    "slln-path": lambda plan, spec, threads: slln_path_diagnostic(plan, threads=threads),
}


def cmd_check(args, argv: list[str]) -> int:
    try:
        spec = _load(args)
        names = [c.strip() for c in args.conditions.split(",") if c.strip()]
        if not names:
            raise SpecError(f"--conditions names no condition: {args.conditions!r}")
        results = [run_condition(name, spec, args.n_sup, args.n) for name in names]
        if all(r["outcome"] == "n/a" for r in results):  # nothing to report
            raise NotApplicableError(results[0]["detail"]["reason"])
    except UNUSABLE as exc:
        return _unusable(exc)
    ok = all(r["match"] for r in results)
    for r in results:
        exp = "" if r["expected"] is None else f" (expected {r['expected']})"
        _log(f"check {spec.label} {r['condition']}: {r['outcome']}{exp}")
    doc = {"input": spec.label, "results": results}
    return _write_outputs(args.out, argv, {".json": _json_text(doc)}) or (0 if ok else 1)


def cmd_simulate(args, argv: list[str]) -> int:
    try:
        spec = _load(args)
        rows = _parse_rows(args.rows)
        eps = tuple(float(t) for t in args.eps.split(","))
        if args.threads < 1:
            raise SpecError(f"--threads must be >= 1, got {args.threads}")
        plan = SimPlan(
            arr=spec.arr,
            b=spec.b,
            rows=rows,
            reps=args.reps,
            eps=eps,
            seed=args.seed,
            c=spec.c_fn,
        )
    except UNUSABLE as exc:
        return _unusable(exc)
    _log(f"simulate {spec.label} mode={args.mode} rows={rows} reps={args.reps}")
    try:
        report = MODES[args.mode](plan, spec, args.threads)
    except RepsError as exc:
        _log(f"error: {exc}")
        return 2
    except MemoryError as exc:
        _log(f"error: row too large to hold in memory (rows up to {rows[-1]}): {exc}")
        return 2
    except UNUSABLE as exc:
        return _unusable(exc)
    path = args.mode == "slln-path"  # a path report is JSON only
    texts = {}
    if args.format in ("csv", "both") and not path:
        texts[".csv"] = report.to_csv_str()
    if args.format in ("json", "both") or path:
        texts[".json"] = _json_text(report.to_json_obj())
    return _write_outputs(args.out, argv, texts)


def cmd_verify_fixtures(args, argv: list[str]) -> int:
    names = [args.only] if args.only else list(FIXTURE_NAMES)
    failures = []
    for name in names:  # the fixtures' own names and parameters: nothing to reject
        fx = load_fixture(name)
        checks = [k for k in fx.expected if k != "c0"]
        for cname in checks:
            try:
                r = run_condition(cname, fx, args.n_sup, args.n)
            except UNUSABLE as exc:
                return _unusable(exc, f"{name} :: {cname}: ")
            status = "ok" if r["match"] else "MISMATCH"
            _log(f"{name} :: {cname}: {r['outcome']} vs {r['expected']} [{status}]")
            if not r["match"]:
                failures.append(f"{name}:{cname}")
        if "c0" in fx.expected:
            c0, at = fx.weights.c0(args.n_sup)
            ok = abs(c0 - fx.expected["c0"]) < 1e-12
            _log(f"{name} :: c0: {c0} (row {at}) [{'ok' if ok else 'MISMATCH'}]")
            if not ok:
                failures.append(f"{name}:c0")
    if failures:
        _log("failing expectations: " + ", ".join(failures))
        return 1
    return 0


def cmd_replay(args, argv: list[str]) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
        if not isinstance(manifest, dict):
            raise ValueError("a manifest is a JSON object")
        recorded = manifest["argv"]
        if not (isinstance(recorded, list) and all(isinstance(a, str) for a in recorded)):
            raise ValueError(f"'argv' must be a list of strings, got {recorded!r}")
        if recorded[:1] == ["replay"]:
            raise ValueError("a recorded replay command is not replayed")
    except (OSError, ValueError, KeyError) as exc:  # ValueError: bad JSON too
        _log(f"error: cannot replay manifest {args.manifest}: {exc}")
        return 2
    _log(f"replaying: {' '.join(recorded)}")
    return main(recorded)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget(text: str) -> int:
    """``--n``: at least 1 and at most ``MAX_N``, so a series scan cannot run for days."""
    value = _positive_int(text)
    if value > MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_N}, got {value}")
    return value


def _add_input_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=FIXTURE_NAMES, help="named generator")
    src.add_argument("--spec", help="path to a JSON problem description")
    p.add_argument("--p", type=float, default=None, help="override fixture p")
    p.add_argument("--nu", type=int, default=None, help="override fixture nu")
    p.add_argument("--n-sup", type=_positive_int, default=DEFAULT_N_SUP, dest="n_sup",
                   help="row-scan bound for suprema")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="llnlab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run condition checkers")
    _add_input_args(pc)
    pc.add_argument("--conditions", required=True,
                    help="comma list: " + ", ".join(CONDITIONS))
    pc.add_argument("--n", type=_budget, default=100_000, help="series/ratio budget")
    pc.add_argument("--out", default="llnlab-check")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("simulate", help="run Monte Carlo estimates")
    _add_input_args(ps)
    ps.add_argument("--mode", choices=list(MODES), default="wlln")
    ps.add_argument("--rows", default="2^6..2^16",
                    help="'a..b' doubling range (2^j syntax ok) or comma list")
    ps.add_argument("--reps", type=int, default=2000)
    ps.add_argument("--eps", default="0.1,0.5,1.0")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--threads", type=int, default=1,
                    help="up to this many worker processes (one per usable CPU at "
                         "most); every count gives the same bytes")
    ps.add_argument("--out", default="llnlab-sim")
    ps.add_argument("--format", choices=["csv", "json", "both"], default="both")
    ps.set_defaults(fn=cmd_simulate)

    pv = sub.add_parser("verify-fixtures", help="run the conformance suite")
    pv.add_argument("--only", choices=FIXTURE_NAMES, default=None)
    pv.add_argument("--n-sup", type=_positive_int, default=DEFAULT_N_SUP, dest="n_sup")
    pv.add_argument("--n", type=_budget, default=100_000)
    pv.set_defaults(fn=cmd_verify_fixtures)

    pr = sub.add_parser("replay", help="re-run a recorded manifest")
    pr.add_argument("manifest")
    pr.set_defaults(fn=cmd_replay)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # a row table read again within the command comes from the memo of
    # model.row_table, as in any library call
    return args.fn(args, argv)


if __name__ == "__main__":
    sys.exit(main())
