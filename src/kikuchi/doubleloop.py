"""Double-loop minimization with guaranteed descent.

Each outer iteration rebuilds the upper bound around the current beliefs and
lets message passing solve the resulting convex inner problem.  Because the
bound touches the objective at the anchor and dominates it elsewhere, an exact
inner minimum can only lower the true free energy.  Inexact inner solves can
produce sub-noise rises; those steps are rejected, keeping the recorded trace
non-increasing, and the run stops at the anchor.  A rise that breaks the bound
itself indicates a bug and raises rather than being papered over.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .bounds import (
    BoundSpec,
    ConvexityError,
    check_convex_over_constraints,
    inner_potentials,
)
from .energy import Beliefs, free_energy, uniform_beliefs
from .model import FactorModel
from .propagation import InnerSettings, MessageSet, constraint_residual, run_gbp
from .regions import RegionGraph

DESCENT_SLACK = 1e-9


class DescentError(RuntimeError):
    """The recorded free energy increased beyond slack; implementation bug."""


@dataclass
class OuterRecord:
    outer_index: int
    f_kik: float
    inner_sweeps: int
    constraint_residual: float
    marginal_delta: float
    inner_converged: bool = True


@dataclass
class OuterSettings:
    outer_tol: float = 1e-8
    marginal_tol: float = 1e-6
    max_outer: int = 10000
    inner: InnerSettings = field(default_factory=InnerSettings)
    warm_start: bool = True


@dataclass
class RunTrace:
    variant: str
    outer: list[OuterRecord]
    final_beliefs: Beliefs
    settings: OuterSettings
    converged: bool

    @property
    def final_f(self) -> float:
        return self.outer[-1].f_kik

    @property
    def outer_iterations(self) -> int:
        return self.outer[-1].outer_index

    @property
    def total_inner_sweeps(self) -> int:
        return sum(r.inner_sweeps for r in self.outer)


def minimize(
    model: FactorModel,
    graph: RegionGraph,
    spec: BoundSpec,
    settings: OuterSettings | None = None,
) -> RunTrace:
    """Descend the region free energy from uniform beliefs under ``spec``."""
    settings = settings or OuterSettings()
    counts = graph.subset_overcounts()
    if spec.variant == "none":
        all_counts = {r.id: float(r.overcount) for r in graph.regions}
        if check_convex_over_constraints(graph, all_counts) is None:
            raise ConvexityError(
                "plain single-loop minimization needs a free energy that is "
                "convex over the constraint set; pick a bound variant instead"
            )
    # When nothing is linearized the bound is the objective itself and one
    # converged inner solve finishes the job.
    exact_bound = all(
        counts[b] == spec.inner_overcounts.get(b, counts[b]) for b in graph.subset_ids
    )
    # With no positive mass linearized the bound dominates the objective
    # pointwise, table by table; otherwise dominance also needs the beliefs
    # to be consistent, which inexact inner solves only deliver approximately.
    pointwise = all(
        counts[b] - spec.inner_overcounts.get(b, counts[b]) <= 1e-12
        for b in graph.subset_ids
    )

    q = uniform_beliefs(graph, model.cards)
    f_prev = free_energy(graph, model, q)
    records = [OuterRecord(0, f_prev, 0, constraint_residual(graph, q), 0.0)]
    messages = None
    converged = False

    for outer_index in range(1, settings.max_outer + 1):
        inner_model = inner_potentials(model, graph, spec, q)
        if messages is not None and not settings.warm_start:
            # No message tables: a cold start on the compiled sweep plan.
            messages = MessageSet({}, {}, messages.plan)
        q_new, messages, sweeps, inner_ok = run_gbp(
            inner_model, graph, spec.inner_overcounts, settings.inner, warm=messages
        )
        f_new = free_energy(graph, model, q_new)
        if f_new > f_prev + DESCENT_SLACK:
            # The bound evaluated at the anchor equals f_prev, so an exact
            # inner minimum can never raise the objective.  If the bound
            # still dominates at q_new the rise is inner-solve noise: keep
            # the anchor and stop.  A dominance violation is a bug.
            if pointwise:
                f_surrogate = free_energy(graph, model, q_new, spec.inner_overcounts, q)
                if f_new > f_surrogate + DESCENT_SLACK:
                    raise DescentError(
                        f"free energy {f_new!r} exceeds its upper bound "
                        f"{f_surrogate!r} at outer iteration {outer_index}"
                    )
            records.append(
                OuterRecord(
                    outer_index,
                    f_prev,
                    sweeps,
                    records[-1].constraint_residual,
                    0.0,
                    inner_converged=inner_ok,
                )
            )
            converged = inner_ok
            break
        delta = q_new.delta(q)
        records.append(
            OuterRecord(
                outer_index,
                f_new,
                sweeps,
                constraint_residual(graph, q_new),
                delta,
                inner_converged=inner_ok,
            )
        )
        stalled = abs(f_new - f_prev) < settings.outer_tol
        q, f_prev = q_new, f_new
        if exact_bound and inner_ok:
            converged = True
            break
        if stalled and delta < settings.marginal_tol and inner_ok:
            converged = True
            break
    return RunTrace(spec.variant, records, q, settings, converged)


def iterations_to_reach(trace: RunTrace, target: float, window: float = 1e-4):
    """First outer index whose free energy is within ``window`` of ``target``."""
    for rec in trace.outer:
        if rec.f_kik <= target + window:
            return rec.outer_index
    return math.inf


def write_trace_csv(trace: RunTrace, path) -> None:
    lines = ["outer_index,f_kik,inner_sweeps,constraint_residual,marginal_delta"]
    for r in trace.outer:
        lines.append(
            f"{r.outer_index},{r.f_kik:.17g},{r.inner_sweeps},"
            f"{r.constraint_residual:.17g},{r.marginal_delta:.17g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def trace_metadata(trace: RunTrace, spec: BoundSpec, model_meta=None) -> dict:
    s = trace.settings
    return {
        "variant": trace.variant,
        "inner_overcounts": {str(k): v for k, v in sorted(spec.inner_overcounts.items())},
        "model": dict(model_meta or {}),
        "settings": {
            "outer_tol": s.outer_tol,
            "marginal_tol": s.marginal_tol,
            "max_outer": s.max_outer,
            "inner_tol": s.inner.tol,
            "inner_max_sweeps": s.inner.max_sweeps,
            "damping": s.inner.damping,
            "warm_start": s.warm_start,
        },
        "outer_iterations": trace.outer_iterations,
        "total_inner_sweeps": trace.total_inner_sweeps,
        "final_f_kik": trace.final_f,
        "converged": trace.converged,
        "inner_failures": sum(1 for r in trace.outer if not r.inner_converged),
    }


def write_trace_json(meta: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
