"""Double-loop minimization with guaranteed descent.

Each outer iteration rebuilds the upper bound around the current beliefs and
lets message passing solve the resulting convex inner problem.  Because the
bound touches the objective at the anchor and dominates it elsewhere, an exact
inner minimum can only lower the true free energy.  An inner solve that does
not converge within its sweep budget gives no such minimum: its beliefs are
not taken, and the run stops at the anchor, unconverged.  Inexact inner solves
can produce sub-noise rises; those steps are rejected, keeping the recorded
trace non-increasing, and the run stops at the anchor, converged only if the
anchor's constraint residual is within ``RESIDUAL_TOL``.  Every rise, under every
variant, is checked against the bound built at the anchor, evaluated at the new
beliefs: a rise above it is a bug and raises ``DescentError``.

Before it returns, ``minimize`` checks the promises of its trace: every
``f_kik`` is finite, none rises by more than ``DESCENT_SLACK``, ``converged``
holds only with a final constraint residual within ``RESIDUAL_TOL``, and every
accepted step came from a converged inner solve.  A broken promise raises
``DescentError``.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .bounds import BoundSpec, ConvexityError, check_convex_over_constraints, inner_potentials
from .energy import Beliefs, free_energy, uniform_beliefs
from .model import FactorModel, outer_log_potentials
from .propagation import _check_knob, constraint_residual, run_gbp
from .regions import RegionGraph

DESCENT_SLACK = 1e-9
RESIDUAL_TOL = 1e-6  # converged=True promises a final constraint residual within this


class DescentError(RuntimeError):
    """A returned trace would break one of its promises; implementation bug."""


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
    """The solver's five knobs; ``ValueError`` unless each is a finite, nonnegative number
    and the two budgets, ``max_outer`` and ``inner_max_sweeps``, are integers (a ``bool`` is
    neither), by the rule ``run_gbp`` applies to its own two."""

    outer_tol: float = 1e-8
    marginal_tol: float = 1e-6
    max_outer: int = 10000
    inner_tol: float = 1e-8
    inner_max_sweeps: int = 2000

    def __post_init__(self):
        for key, value in asdict(self).items():
            _check_knob(key, value, integer=key in ("max_outer", "inner_max_sweeps"))


@dataclass
class RunTrace:
    variant: str
    outer: list[OuterRecord]
    final_beliefs: Beliefs
    settings: OuterSettings
    converged: bool
    # Why the outer loop ended: "converged", "rejected_rise" (a rise was
    # rejected and the run kept its anchor), "inner_failed" (an inner solve
    # ran out of sweeps; the run kept its anchor, unconverged) or
    # "max_outer".  Not written to the trace CSV or JSON.
    stop_reason: str

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
    """Descend the region free energy from uniform beliefs under ``spec``; each inner
    solve is ``run_gbp`` at ``settings.inner_tol`` and ``settings.inner_max_sweeps``."""
    settings = settings or OuterSettings()
    if spec.variant == "none":
        if check_convex_over_constraints(graph, graph.counts) is None:
            raise ConvexityError(
                "plain single-loop minimization needs a free energy that is "
                "convex over the constraint set; pick a bound variant instead"
            )

    # The model, laid out once; every step below works on flat arrays of its layout.
    base = outer_log_potentials(model, graph)
    # When nothing is linearized the bound is the objective itself and one
    # converged inner solve finishes the job.  Reading the counts here also
    # refuses a bad count map before any step.
    exact_bound = bool((base.layout.kept_counts(spec.inner_overcounts) == base.layout.overcounts).all())
    q = uniform_beliefs(graph, model.cards)
    f_prev = free_energy(base, q)
    records = [OuterRecord(0, f_prev, 0, constraint_residual(q), 0.0)]
    messages = None
    converged = False
    stop_reason = "max_outer"

    for outer_index in range(1, settings.max_outer + 1):
        inner = inner_potentials(base, spec.inner_overcounts, q)
        q_new, messages, sweeps, inner_ok = run_gbp(
            inner, spec.inner_overcounts, tol=settings.inner_tol,
            max_sweeps=settings.inner_max_sweeps, warm=messages,
        )
        f_new = free_energy(base, q_new) if inner_ok else None
        rise = inner_ok and f_new > f_prev + DESCENT_SLACK
        if rise:
            # The bound evaluated at the anchor equals f_prev, so an exact
            # inner minimum can never raise the objective.  Under every
            # variant, a rise where the bound still dominates at q_new is
            # inner-solve noise: keep the anchor and stop.  A dominance
            # violation is a bug.
            f_surrogate = free_energy(base, q_new, spec.inner_overcounts, q)
            if f_new > f_surrogate + DESCENT_SLACK:
                raise DescentError(
                    f"free energy {f_new!r} exceeds its upper bound "
                    f"{f_surrogate!r} at outer iteration {outer_index}"
                )
        if rise or not inner_ok:
            # The step is not taken: keep the anchor and stop.  A failed inner
            # solve has no inner minimum, so no descent guarantee.
            residual = records[-1].constraint_residual
            records.append(
                OuterRecord(outer_index, f_prev, sweeps, residual, 0.0, inner_converged=inner_ok)
            )
            # A loose inner solve can leave the anchor itself inconsistent.
            converged = inner_ok and residual <= RESIDUAL_TOL
            stop_reason = "rejected_rise" if inner_ok else "inner_failed"
            break
        delta = q_new.delta(q)
        records.append(
            OuterRecord(outer_index, f_new, sweeps, constraint_residual(q_new), delta)
        )
        stalled = abs(f_new - f_prev) < settings.outer_tol
        q, f_prev = q_new, f_new
        if exact_bound or (stalled and delta < settings.marginal_tol):
            converged = True
            stop_reason = "converged"
            break
    trace = RunTrace(spec.variant, records, q, settings, converged, stop_reason)
    _check_promises(trace)
    return trace


def _check_promises(trace: RunTrace) -> None:
    """Raise ``DescentError`` if ``trace`` breaks a promise of a returned trace."""
    records = trace.outer
    # A run that stops on a rejected rise or a failed inner solve ends with
    # a record of the step it did not take.
    accepted = records[:-1] if trace.stop_reason in ("rejected_rise", "inner_failed") else records
    broken = None
    if not all(math.isfinite(r.f_kik) for r in records):
        broken = "a non-finite f_kik"
    elif any(b.f_kik > a.f_kik + DESCENT_SLACK for a, b in zip(records, records[1:])):
        broken = f"f_kik rising by more than {DESCENT_SLACK:g}"
    elif trace.converged and not records[-1].constraint_residual <= RESIDUAL_TOL:
        broken = (
            f"converged=True with constraint residual {records[-1].constraint_residual!r} "
            f"above {RESIDUAL_TOL:g}"
        )
    elif not all(r.inner_converged for r in accepted):
        broken = "a step accepted from an inner solve that did not converge"
    if broken is not None:
        raise DescentError(f"{trace.variant} trace ({trace.stop_reason}) has {broken}")


def iterations_to_reach(trace: RunTrace, target: float, window: float = 1e-4):
    """First outer index whose free energy is within ``window`` of ``target``."""
    for rec in trace.outer:
        if rec.f_kik <= target + window:
            return rec.outer_index
    return math.inf


def write_trace(trace: RunTrace, spec: BoundSpec, stem, model_meta=None, **extra) -> None:
    """Write the outer records to ``stem``.csv and, to ``stem``.json, the run's
    variant, kept counts, model metadata, settings and totals with the keys
    of ``extra``, sorted; never ``stop_reason``."""
    lines = ["outer_index,f_kik,inner_sweeps,constraint_residual,marginal_delta"]
    for r in trace.outer:
        lines.append(
            f"{r.outer_index},{r.f_kik:.17g},{r.inner_sweeps},"
            f"{r.constraint_residual:.17g},{r.marginal_delta:.17g}"
        )
    with open(f"{stem}.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {
        "variant": trace.variant,
        "inner_overcounts": {str(k): v for k, v in sorted(spec.inner_overcounts.items())},
        "model": dict(model_meta or {}),
        "settings": asdict(trace.settings),
        "outer_iterations": trace.outer_iterations,
        "total_inner_sweeps": trace.total_inner_sweeps,
        "final_f_kik": trace.final_f,
        "converged": trace.converged,
        "inner_failures": sum(1 for r in trace.outer if not r.inner_converged),
        **extra,
    }
    with open(f"{stem}.json", "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
