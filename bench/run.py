#!/usr/bin/env python3
"""Benchmark of the kikuchi double-loop minimizer, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload plaquette_conv3 --seed 0 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured without tracing.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, taken from the traced passes; the spans are written to
``bench/out/`` at the end.

Everything runs in this one process, with the BLAS thread pools pinned to
one thread.  The library is imported from ``src/`` of the checkout; without
it the benchmark exits with code 2 and prints no result.

Metrics.  A pass imports the library afresh and runs every case of the
workload once.  ``wall_s`` is the median pass time, ``setup_s`` the median
time from the start of a pass to its first solve (also taken from
``SETUP_REPEATS`` set-up-only repeats), ``cases_per_s`` the passing cases of
a pass over ``wall_s``, ``passed_frac`` the passing share of the cases, and
``peak_rss_mb`` the peak resident memory of the process.  Times are in
reference seconds: each measured time is scaled by the host speed that
``SpeedProbe`` sampled while it ran (the measured times are printed too).

Corpus.  Each workload runs a fixed set of cases (one model x one bound
variant, or one region graph x one certificate).  The sets are fixed so that
the reference values in ``bench/reference.json`` apply to every run and the
known defects stay visible.  ``--seed`` sets the order in which the cases
run.  Every case goes through the correctness gate (``gate``); a failing case
is counted and its reason printed, the pass goes on.  ``correct`` turns false
when a case that passed when the reference was recorded fails now, when a
value moves from its reference, or when a case is missing from the
reference.

Layers.  In a traced pass every public function of the library modules
(``model``, ``regions``, ``bounds``, ``propagation``, ``energy``,
``doubleloop``, ``oracle``, ``cli``) is wrapped at each name its callers look
up, for example ``kikuchi.doubleloop.run_gbp``.  A span's self time is its
duration minus the time its child spans cover; the self times of all spans
plus ``trace.unattributed_frac`` of the traced wall time add up to that wall
time; the self-test holds the unattributed share under ``TRACE_SLACK`` and a
traced run warns when it is above.
``LAYER_METRICS`` names, for each per-layer metric, the end-to-end metric and
the workload it should move.

Run ``python3 bench/run.py --record-reference`` to rewrite the reference file
from the current library, and ``python3 bench/selftest.py`` for the
benchmark's own check at a tiny size.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and by the library.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import functools
import importlib
import inspect
import io
import json
import math
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

LAYERS = ("model", "regions", "bounds", "propagation", "energy", "doubleloop", "oracle", "cli")
FINAL_F_TOL = 1e-8  # absolute, on final_f of a solve case
CHECK_REL_TOL = 1e-9  # relative, on the checksum of a check case
RESIDUAL_TOL = 1e-6  # converged=True promises a residual within this
DESCENT_SLACK = 1e-9  # a rise of f_kik within this is round-off, as in the acceptance tests
TRACE_SLACK = 0.05  # share of traced wall time left outside every span
SETUP_REPEATS = 20  # extra set-ups per run, where set-up is cheap
PROBE_INTERVAL_S = 0.025  # host speed probe period
PROBE_LOOPS = 2000  # pure-Python iterations in one probe
PROBE_REF_S = 1.6e-4  # one probe at the median speed of the 2-vCPU Xeon host the bounds were set on

E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "cases_per_s": "1/s",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}

# name: (unit, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "propagation.run_gbp_self_s": ("s", "wall_s on plaquette_conv3 and triplets_strong; not check_large"),
    "propagation.sweep_us": ("us", "wall_s on plaquette_conv3 and triplets_strong; not check_large"),
    "propagation.sweeps": ("count", "wall_s on plaquette_conv3 and triplets_strong; not check_large"),
    "propagation.converged_ratio": ("ratio", "wall_s on plaquette_conv3 and triplets_strong"),
    "bounds.inner_potentials_s": ("s", "wall_s on qmr_compare; under 1% on plaquette_conv3"),
    "energy.free_energy_s": ("s", "wall_s on qmr_compare; under 1% on plaquette_conv3"),
    "propagation.constraint_residual_s": ("s", "wall_s on qmr_compare; under 1% on plaquette_conv3"),
    "model.outer_log_potentials_s": ("s", "wall_s on qmr_compare; under 1% on plaquette_conv3"),
    "doubleloop.minimize_self_s": ("s", "wall_s on qmr_compare; under 1% on plaquette_conv3"),
    "oracle.exact_inference_s": ("s", "wall_s and cases_per_s on qmr_compare"),
    "oracle.exact_inference_calls": ("count", "wall_s and cases_per_s on qmr_compare"),
    "oracle.states_enumerated": ("count", "wall_s and cases_per_s on qmr_compare"),
    "cli.self_s": ("s", "wall_s and cases_per_s on qmr_compare"),
    "cli.bytes_written": ("bytes", "wall_s and cases_per_s on qmr_compare"),
    "model.generate_s": ("s", "setup_s on plaquette_conv3, triplets_strong and check_large"),
    "regions.build_s": ("s", "setup_s on check_large"),
    "regions.region_count": ("count", "setup_s on check_large"),
    "bounds.make_bound_spec_s": ("s", "setup_s on check_large"),
    "bounds.certificate_s": ("s", "setup_s on check_large"),
    "bounds.clamped_log_terms": ("count", "passed_frac on triplets_strong"),
    "failed_frac": ("ratio", "passed_frac (its complement) on qmr_compare and triplets_strong"),
    "doubleloop.outer_iterations": ("count", "wall_s on every solving workload (algorithmic)"),
    "doubleloop.accepted_ratio": ("ratio", "wall_s on every solving workload (algorithmic)"),
    "energy.free_energy_calls": ("count", "wall_s on every solving workload (algorithmic)"),
    "bounds.inner_potentials_calls": ("count", "wall_s on every solving workload (algorithmic)"),
    "propagation.run_gbp_calls": ("count", "wall_s on every solving workload (algorithmic)"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall time of a pass"),
    "trace.unattributed_frac": ("ratio", "none: traced wall time outside every span, kept under TRACE_SLACK"),
}

# Self-time metrics: the span names summed into each one ("cli." = every cli span).
SELF_TIME = {
    "propagation.run_gbp_self_s": ("propagation.run_gbp",),
    "bounds.inner_potentials_s": ("bounds.inner_potentials",),
    "energy.free_energy_s": ("energy.free_energy", "energy.kikuchi_free_energy", "energy.bound_free_energy"),
    "propagation.constraint_residual_s": ("propagation.constraint_residual",),
    "model.outer_log_potentials_s": ("model.outer_log_potentials",),
    "doubleloop.minimize_self_s": ("doubleloop.minimize",),
    "oracle.exact_inference_s": ("oracle.exact_inference",),
    "cli.self_s": ("cli.",),
    "model.generate_s": ("model.generate",),
    "regions.build_s": ("regions.build_cvm", "regions.build_bethe"),
    "bounds.make_bound_spec_s": ("bounds.make_bound_spec",),
    "bounds.certificate_s": ("bounds.check_convex_over_constraints", "bounds.check_conv2_bound"),
}

# Counters that must repeat exactly from pass to pass.
COUNTERS = (
    "propagation.sweeps",
    "propagation.run_gbp_calls",
    "propagation.converged_calls",
    "doubleloop.outer_iterations",
    "doubleloop.accepted_steps",
    "energy.free_energy_calls",
    "bounds.inner_potentials_calls",
    "bounds.clamped_log_terms",
    "oracle.exact_inference_calls",
    "oracle.states_enumerated",
    "regions.region_count",
    "cli.bytes_written",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no library, bad arguments)."""


# --------------------------------------------------------------------------
# Importing the library


def import_kikuchi():
    """Import ``kikuchi`` and its layer modules afresh, so each import is timed."""
    for name in [m for m in sys.modules if m == "kikuchi" or m.startswith("kikuchi.")]:
        del sys.modules[name]
    kikuchi = importlib.import_module("kikuchi")
    for layer in LAYERS:
        importlib.import_module(f"kikuchi.{layer}")
    if Path(kikuchi.__file__).resolve().parent != (SRC / "kikuchi").resolve():
        raise BenchError(f"imported kikuchi from {kikuchi.__file__}, not from {SRC}")
    return kikuchi


# --------------------------------------------------------------------------
# Host speed


class SpeedProbe:
    """Times a fixed pure-Python loop every ``PROBE_INTERVAL_S`` while active.

    On a shared host the CPU speed of this process swings by up to 40% within
    seconds and stays slow for a minute at a time, far more than any bound the
    benchmark could keep.  ``scale()`` turns a wall time measured while the
    probe was active into seconds at ``PROBE_REF_S`` host speed; that removes
    most of the swing.  The probe costs under 1% of the time it measures.
    """

    def __init__(self):
        self.durations: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        self.durations.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        if not self.durations:
            self._probe()
        return PROBE_REF_S / statistics.mean(self.durations)


# --------------------------------------------------------------------------
# Tracing


def _accepted_steps(trace) -> int:
    """Outer steps kept; a rejected rise repeats the previous record's values."""
    outer = trace.outer
    steps = len(outer) - 1
    if steps >= 1:
        last, prev = outer[-1], outer[-2]
        if (
            last.marginal_delta == 0.0
            and last.f_kik == prev.f_kik
            and last.constraint_residual == prev.constraint_residual
        ):
            steps -= 1
    return steps


def _states(args, kwargs) -> int:
    model = kwargs.get("model", args[0] if args else None)
    return math.prod(model.cards)


# span name -> function(counters, args, kwargs, result) run after a return
OBSERVERS: dict[str, Callable] = {
    "propagation.run_gbp": lambda c, a, kw, r: c.update(
        {"propagation.sweeps": r[2], "propagation.converged_calls": int(bool(r[3]))}
    ),
    "doubleloop.minimize": lambda c, a, kw, r: c.update(
        {"doubleloop.outer_iterations": r.outer_iterations, "doubleloop.accepted_steps": _accepted_steps(r)}
    ),
    "bounds.inner_potentials": lambda c, a, kw, r: c.update(
        {"bounds.clamped_log_terms": int(r.meta.get("clamped_log_terms", 0))}
    ),
    "oracle.exact_inference": lambda c, a, kw, r: c.update({"oracle.states_enumerated": _states(a, kw)}),
    "regions.build_cvm": lambda c, a, kw, r: c.update({"regions.region_count": len(r.regions)}),
    "regions.build_bethe": lambda c, a, kw, r: c.update({"regions.region_count": len(r.regions)}),
}

# span name -> counter of its calls
CALL_COUNTERS = {
    "propagation.run_gbp": "propagation.run_gbp_calls",
    "energy.free_energy": "energy.free_energy_calls",
    "energy.bound_free_energy": "energy.free_energy_calls",
    "bounds.inner_potentials": "bounds.inner_potentials_calls",
    "oracle.exact_inference": "oracle.exact_inference_calls",
}


class Tracer:
    """Spans and counters of one traced pass, recorded by wrapping the library.

    A span is ``[id, parent id, name, start, end]``; parent -1 is top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def record(self, name, start, end) -> None:
        """Add a top-level span measured by the harness itself."""
        self.spans.append([len(self.spans), -1, name, start, end])

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        calls = CALL_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls:
                counters[calls] += 1
            sid = len(spans)
            spans.append([sid, stack[-1] if stack else -1, name, clock(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][4] = clock()
            if observe:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self, kikuchi) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = [m for n, m in sys.modules.items() if n == "kikuchi" or n.startswith("kikuchi.")]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(kikuchi, layer)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{obj.__name__}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out


# --------------------------------------------------------------------------
# Cases and the correctness gate


@dataclass
class Case:
    """Outcome of one case.  ``value`` is final_f (solve) or a checksum (check)."""

    id: str
    kind: str  # "solve" or "check"
    value: float | None = None
    error: str | None = None
    f_kik: tuple = ()
    converged: bool = False
    residual: float = 0.0
    problems: list = field(default_factory=list)  # found while reading the result


def gate(case: Case, ref: dict | None) -> list[str]:
    """Reasons the case fails; empty when it passes every check."""
    if case.error is not None:
        return [f"raised {case.error}"]
    reasons = list(case.problems)
    numbers = [case.value, case.residual, *case.f_kik]
    if case.value is None or not all(math.isfinite(x) for x in numbers):
        reasons.append("non-finite value")
        return reasons
    rises = [i for i in range(1, len(case.f_kik)) if case.f_kik[i] > case.f_kik[i - 1] + DESCENT_SLACK]
    if rises:
        i = rises[0]
        reasons.append(f"f_kik rises by {case.f_kik[i] - case.f_kik[i - 1]:.3g} at outer {i}")
    if case.converged and case.residual > RESIDUAL_TOL:
        reasons.append(f"converged=True with constraint residual {case.residual:.3g} > {RESIDUAL_TOL:g}")
    if ref is not None and ref["passed"]:
        tol = FINAL_F_TOL if case.kind == "solve" else CHECK_REL_TOL * max(1.0, abs(ref["value"]))
        if abs(case.value - ref["value"]) > tol:
            reasons.append(f"value {case.value!r} differs from reference {ref['value']!r}")
    return reasons


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Workloads


# The graphs are built here from the library's public builders rather than by
# the CLI's recipe code, so that set-up time is not counted in the cli layer.


def plaquettes(model):
    rows, cols = int(model.meta["rows"]), int(model.meta["cols"])
    return [
        (r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
        for r in range(rows - 1)
        for c in range(cols - 1)
    ]


def triplets(model):
    n = model.num_vars
    return [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]


def build_graph(k, model, recipe):
    if recipe == "bethe":
        return k.build_bethe(model.scopes, model.num_vars)
    outers = plaquettes(model) if recipe == "plaquettes" else triplets(model)
    return k.build_cvm(outers, model.num_vars)


def model_spec(k, p, seed):
    return k.ModelSpec(
        p["family"], rows=p.get("rows", 0), cols=p.get("cols", 0), nodes=p.get("nodes", 0),
        weight_scale=p["w"], seed=seed,
    )


def model_label(p, seed):
    size = f"{p['rows']}x{p['cols']}" if "rows" in p else f"n{p['nodes']}"
    return f"{p['family']}-{size}-w{p['w']:g}-s{seed}"


# Solve workloads: setup builds every model, graph and bound spec; solve runs minimize.


def solve_setup(k, p, rng):
    keys = [(s, v) for s in p["seeds"] for v in p["variants"]]
    rng.shuffle(keys)
    built = {}
    prepared = []
    for seed, variant in keys:
        if seed not in built:
            model = k.generate(model_spec(k, p, seed))
            built[seed] = (model, build_graph(k, model, p["recipe"]))
        model, graph = built[seed]
        case_id = f"{model_label(p, seed)}/{p['recipe']}/{variant}"
        try:
            spec = k.make_bound_spec(graph, variant)
        except Exception as exc:  # counted as a failed case
            spec = exc
        prepared.append((case_id, model, graph, spec))
    return prepared


def solve_run(k, prepared):
    raw = []
    for case_id, model, graph, spec in prepared:
        if isinstance(spec, Exception):
            raw.append((case_id, spec))
            continue
        try:
            raw.append((case_id, k.minimize(model, graph, spec)))
        except Exception as exc:  # counted as a failed case
            raw.append((case_id, exc))
    return raw


def solve_cases(raw):
    cases = []
    for case_id, out in raw:
        if isinstance(out, Exception):
            cases.append(Case(case_id, "solve", error=f"{type(out).__name__}: {out}"))
            continue
        cases.append(
            Case(
                case_id, "solve", value=out.final_f, f_kik=tuple(r.f_kik for r in out.outer),
                converged=bool(out.converged), residual=out.outer[-1].constraint_residual,
            )
        )
    return cases, {}


# qmr_compare: the CLI's compare subcommand, in process.


def qmr_argv(p, rng, outdir):
    seeds = list(p["seeds"])
    variants = list(p["variants"])
    rng.shuffle(seeds)
    rng.shuffle(variants)
    return [
        "compare", "--family", "qmr", "--diseases", str(p["diseases"]), "--findings", str(p["findings"]),
        "--recipe", "bethe", "--variants", ",".join(variants), "--seeds", ",".join(map(str, seeds)),
        "--outdir", str(outdir),
    ]


def qmr_setup(k, p, rng):
    """Only the import precedes the CLI; its argument parsing counts in ``cli.self_s``."""
    outdir = OUT / "qmr_compare"
    return p, qmr_argv(p, rng, outdir), outdir


def qmr_run(k, prepared):
    p, argv, outdir = prepared
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = k.cli.main(argv)
    return p, code, stderr.getvalue(), outdir


def qmr_cases(raw):
    p, code, stderr, outdir = raw
    cases = []
    for seed in p["seeds"]:
        for variant in p["variants"]:
            case_id = f"qmr-d{p['diseases']}-f{p['findings']}-s{seed}/bethe/{variant}"
            stem = outdir / f"trace_seed{seed}_{variant}"
            try:
                with open(f"{stem}.csv") as fh:
                    rows = list(csv.DictReader(fh))
                with open(f"{stem}.json") as fh:
                    meta = json.load(fh)
            except OSError:
                last = stderr.strip().splitlines()[-1:] or ["no message"]
                cases.append(Case(case_id, "solve", error=f"no output (exit {code}): {last[0]}"))
                continue
            case = Case(
                case_id, "solve", value=float(meta["final_f_kik"]), f_kik=tuple(float(r["f_kik"]) for r in rows),
                converged=bool(meta["converged"]), residual=float(rows[-1]["constraint_residual"]),
            )
            kl = meta.get("kl_to_oracle")
            if kl is not None and not math.isfinite(kl):
                case.problems.append("non-finite kl_to_oracle")
            cases.append(case)
    written = sum(f.stat().st_size for f in outdir.iterdir()) if outdir.is_dir() else 0
    return cases, {"cli.bytes_written": written}


# check_large: what `kikuchi check` computes, with no solve; set-up is the whole pass.

CHECKS = ("none", "conv1", "conv2", "conv3", "cccp", "convex_over_constraints", "conv2_bound")


def check_setup(k, p, rng):
    graphs = list(p["graphs"])
    rng.shuffle(graphs)
    raw = []
    for g in graphs:
        model = k.generate(model_spec(k, g, p["seed"]))
        graph = build_graph(k, model, g["recipe"])
        label = f"{model_label(g, p['seed'])}/{g['recipe']}"
        for check in CHECKS:
            try:
                if check == "convex_over_constraints":
                    counts = {r.id: float(r.overcount) for r in graph.regions}
                    out = k.check_convex_over_constraints(graph, counts)
                elif check == "conv2_bound":
                    out = k.check_conv2_bound(graph)
                else:
                    out = k.make_bound_spec(graph, check)
            except Exception as exc:  # counted as a failed case
                out = exc
            raw.append((f"{label}/{check}", check, graph, out))
    return raw


def check_run(k, prepared):
    return prepared


def witness_problems(graph, check, alloc) -> list[str]:
    """Check an allocation against the four conditions in ``kikuchi.bounds``."""
    counts = {r.id: float(r.overcount) for r in graph.regions}
    if check == "conv2_bound":
        donors = {b: -counts[b] for b in graph.neg_ids}
        demand = {b: counts[b] for b in graph.pos_ids}
    else:
        donors = {r: c for r, c in counts.items() if c > 0}
        demand = {r: -c for r, c in counts.items() if c < 0}
    given, got = Counter(), Counter()
    problems = []
    for (g, b), f in alloc.entries.items():
        if not set(graph.region_vars(b)) < set(graph.region_vars(g)):
            problems.append(f"allocation on a non-containment pair ({g}, {b})")
        if not f >= 0:
            problems.append(f"negative allocation on ({g}, {b})")
        given[g] += f
        got[b] += f
    tol = 1e-7
    problems += [f"donor {g} gives {v:.6g} > {donors.get(g, 0.0):.6g}" for g, v in given.items() if v > donors.get(g, 0.0) + tol]
    problems += [f"receiver {b} gets {got[b]:.6g} < {d:.6g}" for b, d in demand.items() if got[b] < d - tol]
    return problems[:3]


def check_cases(raw):
    cases = []
    for case_id, check, graph, out in raw:
        if isinstance(out, Exception):
            cases.append(Case(case_id, "check", error=f"{type(out).__name__}: {out}"))
        elif check in ("convex_over_constraints", "conv2_bound"):
            # Total flow, or -1 for a "no" verdict: invariant to which witness is found.
            value = -1.0 if out is None else math.fsum(out.entries.values())
            case = Case(case_id, "check", value=value)
            if out is not None:
                case.problems = witness_problems(graph, check, out)
            cases.append(case)
        else:
            kept = [out.inner_overcounts[b] for b in graph.subset_ids]
            cases.append(Case(case_id, "check", value=math.fsum((i + 1) * c for i, c in enumerate(kept))))
    return cases, {}


@dataclass(frozen=True)
class Workload:
    """A fixed case set at full size and at a tiny size for the self-test.

    The reason each workload was chosen is its ``why`` in ``BENCHMARK.json``.
    """

    name: str
    full: dict
    tiny: dict
    setup: Callable
    run: Callable
    cases: Callable
    setup_repeats: int = SETUP_REPEATS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plaquette_conv3",
            dict(family="grid_boltzmann", rows=5, cols=5, w=1.0, recipe="plaquettes", seeds=(0, 1), variants=("conv3",)),
            dict(family="grid_boltzmann", rows=3, cols=3, w=1.0, recipe="plaquettes", seeds=(0,), variants=("conv3",)),
            solve_setup, solve_run, solve_cases,
        ),
        Workload(
            "qmr_compare",
            dict(diseases=20, findings=10, seeds=(0, 1, 2, 3, 4), variants=("conv1", "conv2", "conv3", "cccp")),
            dict(diseases=6, findings=4, seeds=(0, 1), variants=("conv1", "conv3")),
            qmr_setup, qmr_run, qmr_cases,
        ),
        Workload(
            "triplets_strong",
            dict(family="full_boltzmann", nodes=5, w=3.0, recipe="triplets", seeds=(0,), variants=("conv1", "conv3", "cccp")),
            dict(family="full_boltzmann", nodes=4, w=1.0, recipe="triplets", seeds=(0,), variants=("conv1", "conv3", "cccp")),
            solve_setup, solve_run, solve_cases,
        ),
        Workload(
            "check_large",
            dict(seed=0, graphs=(
                dict(family="grid_boltzmann", rows=24, cols=24, w=1.0, recipe="plaquettes"),
                dict(family="full_boltzmann", nodes=12, w=1.0, recipe="triplets"),
                dict(family="grid_boltzmann", rows=24, cols=24, w=1.0, recipe="bethe"),
            )),
            dict(seed=0, graphs=(
                dict(family="grid_boltzmann", rows=4, cols=4, w=1.0, recipe="plaquettes"),
                dict(family="full_boltzmann", nodes=5, w=1.0, recipe="triplets"),
                dict(family="grid_boltzmann", rows=4, cols=4, w=1.0, recipe="bethe"),
            )),
            check_setup, check_run, check_cases, setup_repeats=0,
        ),
    )
}


# --------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    wall: float  # seconds, as measured
    setup: float
    scale: float  # SpeedProbe.scale() over the pass; 1.0 in a traced pass
    cases: list
    counters: dict
    tracer: Tracer | None = None
    self_times: dict = field(default_factory=dict)


def run_pass(wl: Workload, params: dict, seed: int, traced: bool) -> Pass:
    """Import the library, set up, solve; the gate runs after the clock stops.

    An untraced pass runs under the speed probe; a traced one does not, so
    that every span holds library time only.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(OUT / wl.name, ignore_errors=True)
    rng = random.Random(seed)
    tracer = Tracer() if traced else None
    probe = SpeedProbe()
    with contextlib.nullcontext() if traced else probe:
        t0 = time.perf_counter()
        k = import_kikuchi()
        if tracer:
            tracer.record("bench.import", t0, time.perf_counter())
            tracer.install(k)
        try:
            prepared = wl.setup(k, params, rng)
            t_setup = time.perf_counter()
            raw = wl.run(k, prepared)
            t_end = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
    cases, extra = wl.cases(raw)
    counters = dict(extra)
    if tracer:
        for name in COUNTERS:
            counters.setdefault(name, tracer.counters.get(name, 0))
        return Pass(t_end - t0, t_setup - t0, 1.0, cases, counters, tracer, tracer.self_times())
    return Pass(t_end - t0, t_setup - t0, probe.scale(), cases, counters)


def setup_only(wl: Workload, params: dict, seed: int, repeats: int) -> list[float]:
    """Set-up times of ``repeats`` fresh imports and set-ups, in reference seconds."""
    times = []
    with SpeedProbe() as probe:
        for _ in range(repeats):
            t0 = time.perf_counter()
            k = import_kikuchi()
            wl.setup(k, params, random.Random(seed))
            times.append(time.perf_counter() - t0)
    return [t * probe.scale() for t in times] if times else []


def run_passes(wl, params, seed, seconds, trace):
    """Whole passes until another would end after ``seconds``; at least one.

    With ``trace`` an untraced and a traced pass alternate, as a pair.
    """
    passes = []
    steps = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(wl, params, seed, traced=False))
        if trace:
            passes.append(run_pass(wl, params, seed, traced=True))
        steps.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(steps) > seconds:
            return passes


def layer_metrics(traced: list[Pass], untraced: list[Pass], failed_frac: float) -> dict[str, float]:
    """Per-layer metrics: medians of the traced passes' times, counters of the last."""

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def covers(span, names):
        return any(span == n or (n.endswith(".") and span.startswith(n)) for n in names)

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = med(lambda p: sum((v for n, v in p.self_times.items() if covers(n, names)), 0.0))
    c = traced[-1].counters
    sweeps = c["propagation.sweeps"]
    gbp_calls = c["propagation.run_gbp_calls"]
    outer = c["doubleloop.outer_iterations"]
    out["propagation.sweep_us"] = med(
        lambda p: 1e6 * p.self_times.get("propagation.run_gbp", 0.0) / sweeps if sweeps else 0.0
    )
    out["propagation.sweeps"] = sweeps
    out["propagation.converged_ratio"] = c["propagation.converged_calls"] / gbp_calls if gbp_calls else 0.0
    out["doubleloop.outer_iterations"] = outer
    out["doubleloop.accepted_ratio"] = c["doubleloop.accepted_steps"] / outer if outer else 0.0
    out.update({name: c[name] for name in COUNTERS if name in LAYER_METRICS})
    out["failed_frac"] = failed_frac
    out["trace.overhead_s"] = med(lambda p: p.wall) - statistics.median(p.wall for p in untraced)
    out["trace.unattributed_frac"] = med(lambda p: 1.0 - sum(p.self_times.values()) / p.wall)
    return out


def judge(wl_name: str, passes: list[Pass], reference: dict):
    """Gate every case of every pass; returns (correct, attempted, failed, report lines)."""
    ref = reference.get(wl_name)
    correct = True
    failed = 0
    lines = []
    seen = set()
    values = {}
    for p in passes:
        n_failed = 0
        for case in p.cases:
            entry = None if ref is None else ref.get(case.id)
            reasons = gate(case, entry)
            if case.id in values and values[case.id] != case.value:
                reasons.append("value differs between passes of one run")
            values.setdefault(case.id, case.value)
            if ref is not None and entry is None:
                reasons.append("case missing from the reference")
            if reasons:
                n_failed += 1
                if ref is None:
                    tag = "failed"
                elif entry is None or entry["passed"]:
                    tag = "REGRESSION"
                    correct = False
                else:
                    tag = "known defect"
                for r in reasons:
                    if (case.id, r) not in seen:
                        seen.add((case.id, r))
                        lines.append(f"# case {case.id} FAILED ({tag}): {r}")
        failed = max(failed, n_failed)
    attempted = len(passes[0].cases)
    return correct, attempted, failed, lines


# --------------------------------------------------------------------------
# Reporting


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout read from ``.git``, or "unknown" outside git."""
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
    return "unknown"


def machine_header(seed: int) -> list[str]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return [
        f"# machine nproc={nproc} cpu={_cpu_model()!r} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads=1",
        f"# commit {_git_commit()} seed {seed}",
    ]


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result object, lines to print before it, passes)."""
    wl = WORKLOADS[name]
    params = wl.tiny if tiny else wl.full
    start = time.perf_counter()
    setups = [] if trace else setup_only(wl, params, seed, wl.setup_repeats)
    passes = run_passes(wl, params, seed, seconds - (time.perf_counter() - start), trace)
    reference = {} if tiny else load_reference()
    correct, attempted, failed, lines = judge(name, passes, reference)
    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    for i, p in enumerate(passes):
        lines.append(
            f"# pass {i} {'traced' if p.tracer else 'untraced'} measured wall_s={p.wall:.4f} setup_s={p.setup:.4f}"
            f" speed scale={p.scale:.4f}"
        )
    if trace:
        values = layer_metrics(traced, untraced, failed / attempted)
        units = {n: u for n, (u, _) in LAYER_METRICS.items()}
        for n, (u, moves) in LAYER_METRICS.items():
            lines.append(f"# {n} = {values[n]} {u}  (moves {moves})")
        if values["trace.unattributed_frac"] > TRACE_SLACK:
            lines.append(f"# WARNING: {values['trace.unattributed_frac']:.3f} of traced wall time is outside every span")
    else:
        setups += [p.setup * p.scale for p in untraced]
        wall = statistics.median(p.wall * p.scale for p in untraced)
        passed = attempted - failed
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cases_per_s": passed / wall,
            "passed_frac": passed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_METRICS
        for n, u in units.items():
            lines.append(f"# {n} = {values[n]} {u}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    return result, lines, passes


def write_spans(name: str, seed: int, passes: list[Pass]) -> Path:
    path = OUT / f"spans_{name}_seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, p in enumerate(passes):
            if p.tracer is None:
                continue
            for sid, parent, span, start, end in p.tracer.spans:
                fh.write(json.dumps({"pass": i, "id": sid, "parent": parent, "name": span, "start": start, "end": end}) + "\n")
    return path


def record_reference() -> None:
    """Rewrite the reference file: one untraced pass of every workload."""
    reference = {}
    for name, wl in WORKLOADS.items():
        p = run_pass(wl, wl.full, 0, traced=False)
        reference[name] = {c.id: {"value": c.value, "passed": not gate(c, None)} for c in p.cases}
        print(f"{name}: {sum(e['passed'] for e in reference[name].values())}/{len(p.cases)} passed")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "kikuchi" / "__init__.py").is_file():
        print(f"error: no kikuchi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result, lines, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in machine_header(args.seed) + lines:
        print(line)
    if args.trace:
        print(f"# spans written to {write_spans(args.workload, args.seed, passes).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
