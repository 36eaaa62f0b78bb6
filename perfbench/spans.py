"""Spans around llnlab's public functions, installed from outside the package.

A traced pass wraps each layer function in every ``llnlab`` namespace that
holds it (names imported by name live in several modules), records one span
per call (id, name, start, end, parent, command) in memory, and restores the
originals afterwards.  Functions called very often only get a call counter.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("model", "svf", "moments", "domination", "conditions", "simulate",
           "fixtures", "specio", "numerics", "cli")

SIM_TOP = ("wlln_estimate", "slln_series_estimate", "slln_path_diagnostic")
SUPS = ("domination.cesaro_tail_sup", "domination.weighted_tail_sup")
VERDICT_FNS = ("chandra_ghosal_integral", "count_tail_vanishes", "exceedance_series",
               "norming_ratio_bound", "norming_ratio_bound_sq")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, command)
        self.meta: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._command = -1
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a worker thread: its cause is the innermost open span of the command
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def timed(self, name: str, fn, meta=None, result_map=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = self._stack()
            parent = self._parent(stack)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self._command))
            if meta is not None:
                self.meta[sid] = meta(args, kwargs, result)
            return result_map(result) if result_map is not None else result

        return wrapper

    def counted(self, name: str, fn):
        counts, lock = self.counts, self._count_lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_command(self, command_id: int, call):
        """Run ``call()`` as the root span ``cli.main`` of one command."""
        self._command = command_id
        self._main_stack = self._stack()
        return self.timed("cli.main", call)()

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in MODULES:
            m = sys.modules[f"llnlab.{mod}"]
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"llnlab.{m}") for m in MODULES}
        model, dom, sim = mods["model"], mods["domination"], mods["simulate"]
        n_sup_default = inspect.signature(dom.cesaro_tail_sup).parameters["n_sup"].default

        def top(n_sup, *bounds):
            return min([n_sup] + [b for b in bounds if b is not None])

        def cesaro_meta(args, kwargs, _):
            return {"rows": top(kwargs.get("n_sup", n_sup_default), args[0].n_max)}

        def weighted_meta(args, kwargs, _):
            arr, w = args[0], args[1]
            if w.kind == "uniform":  # delegates to cesaro_tail_sup, counted there
                return {"rows": 0}
            return {"rows": top(kwargs.get("n_sup", n_sup_default), arr.n_max, w.n_max)}

        def wlln_meta(args, kwargs, _):
            plan = args[0]
            return {"replications": plan.reps * len(plan.rows),
                    "cells": plan.reps * sum(plan.arr.k(n) for n in plan.rows)}

        def path_meta(args, kwargs, _):
            plan = args[0]  # one path of length max(rows) per replication
            return {"replications": plan.reps, "cells": plan.reps * plan.arr.k(plan.rows[-1])}

        timed = {
            "model": ["rng_for", "sample_row_with"],
            "simulate": ["max_partial_sums", "slln_series_estimate"],
            "domination": ["dominating_cdf"],
            "moments": ["cell_moment", "expectation_via_tail",
                        "cell_transformed_tail_mass", "bounded_moment_condition",
                        "ui_check"],
            "numerics": ["finite_integral"],
            "specio": ["load_spec"],
        }
        for mod, names in timed.items():
            for name in names:
                fn = getattr(mods[mod], name)
                self._replace_everywhere(fn, self.timed(f"{mod}.{name}", fn))
        for name, meta in (("wlln_estimate", wlln_meta), ("slln_path_diagnostic", path_meta)):
            fn = getattr(sim, name)
            self._replace_everywhere(fn, self.timed(f"simulate.{name}", fn, meta))
        self._replace_everywhere(
            dom.cesaro_tail_sup,
            self.timed("domination.cesaro_tail_sup", dom.cesaro_tail_sup, cesaro_meta))
        self._replace_everywhere(
            dom.weighted_tail_sup,
            self.timed("domination.weighted_tail_sup", dom.weighted_tail_sup,
                       weighted_meta))
        blocks = mods["numerics"].integrate_tail_blocks
        self._replace_everywhere(blocks, self.timed(
            "numerics.integrate_tail_blocks", blocks,
            lambda a, k, r: {"blocks": len(r.blocks), "unconverged": not r.converged}))
        cond = mods["conditions"]
        for name in VERDICT_FNS:
            fn = getattr(cond, name)
            self._replace_everywhere(fn, self.timed(
                f"conditions.{name}", fn,
                lambda a, k, r: {"verdict": r.verdict,
                                 "blocks": len(r.evidence.get("blocks", ()))}))
        self._replace_everywhere(model.tail_of, self.counted("model.tail_of", model.tail_of))
        log_nu = mods["svf"].log_nu
        self._replace_everywhere(log_nu, self.counted("svf.log_nu", log_nu))
        quad = mods["numerics"].quad
        self._replace_everywhere(quad, self.counted("numerics.quad", quad))
        c0 = model.WeightScheme.c0
        self._restore.append((model.WeightScheme, "c0", c0))
        model.WeightScheme.c0 = self.timed("model.c0", c0)
        load = mods["fixtures"].load
        self._replace_everywhere(load, self.timed("fixtures.load", load,
                                                  result_map=self._wrap_closed))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_closed(self, fx):
        """The fixture with every closed form wrapped as a ``fixtures.closed`` span."""
        wrapped: dict = {}

        def wrap(fn):
            if fn is None:
                return None
            if fn not in wrapped:
                wrapped[fn] = self.timed("fixtures.closed", fn)
            return wrapped[fn]

        closed = {k: wrap(v) if callable(v) else v for k, v in fx.closed.items()}
        arr = dataclasses.replace(fx.arr, closed_cesaro_sup=wrap(fx.arr.closed_cesaro_sup))
        weights = dataclasses.replace(
            fx.weights, closed_weighted_sup=wrap(fx.weights.closed_weighted_sup))
        return dataclasses.replace(fx, arr=arr, weights=weights, closed=closed)

    # -- output ------------------------------------------------------------

    def write(self, path: Path, commands: list[list[str]]) -> None:
        """Write the spans and counters as a side-car JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "command"],
                "commands": commands,
                "counts": dict(self.counts),
                "meta": {str(k): v for k, v in self.meta.items()},
                "spans": self.spans,
            }, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (times in seconds)."""
    by_id = {s[0]: s for s in tracer.spans}
    children = defaultdict(list)
    for s in tracer.spans:
        if s[4] is not None:
            children[s[4]].append(s)

    def self_time(s) -> float:
        kids = [(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]]]
        return (s[3] - s[2]) - _union_length([k for k in kids if k[1] > k[0]])

    def has_ancestor(s, names) -> bool:
        p = s[4]
        while p is not None:
            if by_id[p][1] in names:
                return True
            p = by_id[p][4]
        return False

    def has_descendant(s, name) -> bool:
        todo = list(children[s[0]])
        while todo:
            c = todo.pop()
            if c[1] == name:
                return True
            todo.extend(children[c[0]])
        return False

    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    for s in tracer.spans:
        calls[s[1]] += 1
        if not has_ancestor(s, (s[1],)):
            secs[s[1]] += s[3] - s[2]

    def meta_sum(prefix, key) -> float:
        return sum(m.get(key, 0) for sid, m in tracer.meta.items()
                   if by_id[sid][1].startswith(prefix))

    sups = [s for s in tracer.spans if s[1] in SUPS and not has_ancestor(s, SUPS)]
    closed = sum(1 for s in sups if has_descendant(s, "fixtures.closed"))
    rows = sum(tracer.meta[s[0]]["rows"] for s in tracer.spans
               if s[1] in SUPS and not has_descendant(s, "fixtures.closed"))
    verdicts = [m["verdict"] for m in tracer.meta.values() if "verdict" in m]

    out: dict[str, float] = {}

    def both(name):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = secs[name]

    both("model.rng_for")
    out["simulate.self_s"] = sum(self_time(s) for s in tracer.spans
                                 if s[1] in {f"simulate.{n}" for n in SIM_TOP})
    both("simulate.max_partial_sums")
    out["simulate.replications"] = meta_sum("simulate.", "replications")
    out["simulate.cells_drawn"] = meta_sum("simulate.", "cells")
    both("model.sample_row_with")
    both("domination.cesaro_tail_sup")
    both("domination.weighted_tail_sup")
    out["domination.rows_scanned"] = rows
    out["domination.closed_form_ratio"] = closed / len(sups) if sups else 0.0
    out["domination.dominating_cdf.s"] = secs["domination.dominating_cdf"]
    both("model.c0")
    out["model.tail_of.calls"] = tracer.counts["model.tail_of"]
    for name in ("cell_moment", "expectation_via_tail", "cell_transformed_tail_mass"):
        both(f"moments.{name}")
    out["moments.bounded_moment_condition.s"] = secs["moments.bounded_moment_condition"]
    out["moments.ui_check.s"] = secs["moments.ui_check"]
    both("numerics.finite_integral")
    out["numerics.quad.calls"] = tracer.counts["numerics.quad"]
    both("numerics.integrate_tail_blocks")
    out["numerics.blocks"] = meta_sum("numerics.integrate_tail_blocks", "blocks")
    out["numerics.unconverged"] = meta_sum("numerics.integrate_tail_blocks", "unconverged")
    out["conditions.chandra_ghosal_integral.s"] = secs["conditions.chandra_ghosal_integral"]
    out["conditions.chandra_ghosal_integral.blocks"] = meta_sum(
        "conditions.chandra_ghosal_integral", "blocks")
    for name in ("count_tail_vanishes", "exceedance_series", "norming_ratio_bound"):
        out[f"conditions.{name}.s"] = secs[f"conditions.{name}"]
    out["conditions.inconclusive_ratio"] = (
        verdicts.count("inconclusive") / len(verdicts) if verdicts else 0.0)
    both("fixtures.load")
    both("fixtures.closed")
    out["svf.log_nu.calls"] = tracer.counts["svf.log_nu"]
    both("specio.load_spec")
    out["cli.self_s"] = sum(self_time(s) for s in tracer.spans if s[1] == "cli.main")
    return out
