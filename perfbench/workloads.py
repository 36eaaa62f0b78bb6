"""The three workloads: fixed lists of llnlab CLI commands, one closed-loop client.

Every command is an argv list for ``llnlab.cli.main``.  ``{seed}``, ``{spec}``
and ``{out}`` are filled in per run: the benchmark seed, the generated spec
file and a per-command output base in the run's scratch directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# size presets: "full" is the benchmark, "tiny" only exercises the harness
SIZES = {
    "full": {
        "reps": "2000",
        "n_sup": "10000",
        "wlln_rows": "2^6..2^14",
        "series_rows": "2^5..2^12",
        "path_rows": "2^8..2^14",
        "cg_n_sup": "64",
        "spec_rows": 64,
        "verify": ["verify-fixtures", "--n-sup", "10000", "--n", "100000"],
    },
    "tiny": {
        "reps": "40",
        "n_sup": "64",
        "wlln_rows": "2^4..2^6",
        "series_rows": "2^3..2^5",
        "path_rows": "2^4..2^6",
        "cg_n_sup": "4",
        "spec_rows": 8,
        "verify": ["verify-fixtures", "--only", "example-2.1", "--n-sup", "64", "--n", "1000"],
    },
}

# Verdicts of the fixture checks, recorded when the benchmark was defined.
# For the generated spec they follow from its construction: a finite array of
# cells with bounded support or Pareto tails (alpha >= 2.5 > p = 1).
FIXTURE_OUTCOMES = {
    "cesaro-domination": "valid",
    "kG": "holds",
    "ui": "decays",
    "bounded-moment": "finite",
    "chandra-ghosal": "holds",
}
SPEC_OUTCOMES = {
    "weighted-domination": "valid",
    "cesaro-domination": "valid",
    "ui": "decays",
    "kG-hat": "holds",
}


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end metric fed by this command's wall time
    argv: tuple[str, ...]
    kind: str  # simulate | check | verify
    expected: dict = field(default_factory=dict)  # check outcomes to match
    same_bytes_as: Optional[str] = None  # metric of a command with identical outputs

    def render(self, seed: int, spec: str, out: str) -> list[str]:
        return [a.format(seed=seed, spec=spec, out=out) for a in self.argv]


def _simulate(metric, source, mode, rows, sz, extra=(), same_bytes_as=None):
    argv = ("simulate", *source, "--mode", mode, "--rows", rows,
            "--reps", sz["reps"], *extra, "--seed", "{seed}", "--out", "{out}")
    return Command(metric, argv, "simulate", same_bytes_as=same_bytes_as)


def _check(metric, source, conditions, n_sup, expected):
    argv = ("check", *source, "--conditions", conditions, "--n-sup", n_sup,
            "--out", "{out}")
    want = {c: expected[c] for c in conditions.split(",") if c in expected}
    return Command(metric, argv, "check", expected=want)


def commands(workload: str, size: str = "full") -> list[Command]:
    sz = SIZES[size]
    x2m = ("--fixture", "x2m-example", "--p", "1")
    ex41 = ("--fixture", "example-4.1")
    spec = ("--spec", "{spec}")
    if workload == "mc-fixture":
        return [
            _simulate("sim_s.wlln", x2m, "wlln", sz["wlln_rows"], sz,
                      extra=("--threads", "1")),
            _simulate("sim_s.wlln-t2", x2m, "wlln", sz["wlln_rows"], sz,
                      extra=("--threads", "2"), same_bytes_as="sim_s.wlln"),
            _simulate("sim_s.slln-series", ex41, "slln-series", sz["series_rows"], sz),
            _simulate("sim_s.slln-path", x2m, "slln-path", sz["path_rows"], sz,
                      extra=("--eps", "0.05,0.1,0.2")),
        ]
    if workload == "mc-spec":
        return [
            _simulate("sim_s.wlln", spec, "wlln", f"1..{sz['spec_rows']}", sz,
                      extra=("--threads", "1")),
        ]
    if workload == "check-scan":
        n_sup = sz["n_sup"]
        return [
            _check("check_s.cesaro-domination", ex41, "cesaro-domination", n_sup,
                   FIXTURE_OUTCOMES),
            _check("check_s.kG", ex41, "kG", n_sup, FIXTURE_OUTCOMES),
            _check("check_s.ui-bounded-moment", ex41, "ui,bounded-moment", n_sup,
                   FIXTURE_OUTCOMES),
            _check("check_s.chandra-ghosal", ex41, "chandra-ghosal", sz["cg_n_sup"],
                   FIXTURE_OUTCOMES),
            _check("check_s.spec", spec,
                   "weighted-domination,cesaro-domination,ui,bounded-moment,kG-hat",
                   n_sup, SPEC_OUTCOMES),
            Command("verify_s", tuple(sz["verify"]), "verify"),
        ]
    raise KeyError(workload)


WORKLOADS = ("mc-fixture", "mc-spec", "check-scan")


def parse_rows(text: str) -> list[int]:
    """Row list of a ``--rows`` argument: 'a..b' doubles from a to b."""

    def one(tok: str) -> int:
        base, _, exp = tok.partition("^")
        return int(base) ** int(exp) if exp else int(base)

    if ".." in text:
        lo, hi = (one(t) for t in text.split(".."))
        rows = []
        while lo <= hi:
            rows.append(lo)
            lo *= 2
        return rows
    return sorted(one(t) for t in text.split(","))


def cells_drawn(cmd: Command) -> int:
    """Cells one simulate command draws; every array here has k_n = n."""
    args = list(cmd.argv)
    rows = parse_rows(args[args.index("--rows") + 1])
    reps = int(args[args.index("--reps") + 1])
    if args[args.index("--mode") + 1] == "slln-path":
        return reps * rows[-1]  # one path of length max(rows) per replication
    return reps * sum(rows)
