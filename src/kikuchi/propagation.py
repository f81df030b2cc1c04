"""Generalized belief propagation on a two-layer view of the region graph.

Every active subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep visits the active subsets in ascending id
order; for each subset the containing clusters are queried (cluster belief
marginalized, divided by the last downward message), the subset belief is
rebuilt from the geometric mean of the upward messages with exponent
1 / (number of containing clusters + effective overcounting number), and the
downward messages and cluster beliefs are refreshed in place.

With Bethe counting numbers (1 - n per variable) the exponent is one and the
sweep reduces to ordinary loopy belief propagation.

A subset region leaves the sweep only when its effective count is zero and a
single outer cluster contains it: its update exponent is then one and its
downward message stays uniform, so visiting it would change nothing.  Every
region inside two or more clusters carries a consistency constraint and is
swept.  Beliefs for the regions left out are read off their one containing
cluster afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import LOG_FLOOR, Beliefs
from .model import FactorModel, outer_log_potentials
from .regions import RegionGraph


class ConfigurationError(ValueError):
    """Inner-loop setup that cannot run (bad exponent, bad damping)."""


@dataclass
class MessageSet:
    """Positive message tables keyed (cluster, subset) and (subset, cluster)."""

    up: dict[tuple[int, int], np.ndarray]
    down: dict[tuple[int, int], np.ndarray]


@dataclass
class InnerSettings:
    tol: float = 1e-8
    max_sweeps: int = 2000
    damping: float | None = None  # None picks 0, or 0.5 if any count is negative


def _softmax(logt: np.ndarray) -> np.ndarray:
    t = np.exp(logt - logt.max())
    return t / t.sum()


def run_gbp(model, graph, c_eff, settings=None, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged)."""
    settings = settings or InnerSettings()
    cards = model.cards
    pots = outer_log_potentials(model, graph)
    act = [
        b
        for b in graph.subset_ids
        if abs(float(c_eff.get(b, 0.0))) > 1e-15 or graph.outer_count[b] != 1
    ]

    denom = {}
    for b in act:
        d = graph.outer_count[b] + float(c_eff.get(b, 0.0))
        if d <= 1e-12:
            raise ConfigurationError(
                f"region {b}: containing-cluster count plus effective "
                f"overcounting number is {d}; the update exponent needs it positive"
            )
        denom[b] = d

    if settings.damping is None:
        damping = 0.0 if all(float(c_eff.get(b, 0.0)) >= 0 for b in act) else 0.5
    else:
        damping = float(settings.damping)
        if not 0.0 <= damping < 1.0:
            raise ConfigurationError("damping must lie in [0, 1)")

    vars_of = {r.id: r.vars for r in graph.regions}
    sum_axes = {}
    bshape = {}
    for b in act:
        vb = set(vars_of[b])
        for a in graph.containing_outers[b]:
            va = vars_of[a]
            sum_axes[(a, b)] = tuple(i for i, v in enumerate(va) if v not in vb)
            bshape[(a, b)] = tuple(cards[v] if v in vb else 1 for v in va)

    up: dict[tuple[int, int], np.ndarray] = {}
    down: dict[tuple[int, int], np.ndarray] = {}
    for b in act:
        shape_b = tuple(cards[v] for v in vars_of[b])
        size_b = int(np.prod(shape_b))
        for a in graph.containing_outers[b]:
            if warm is not None and (a, b) in warm.up and (b, a) in warm.down:
                u = np.maximum(warm.up[(a, b)].astype(float), LOG_FLOOR)
                d_ = np.maximum(warm.down[(b, a)].astype(float), LOG_FLOOR)
                up[(a, b)] = u / u.sum()
                down[(b, a)] = d_ / d_.sum()
            else:
                up[(a, b)] = np.full(shape_b, 1.0 / size_b)
                down[(b, a)] = np.full(shape_b, 1.0 / size_b)

    subs_in = {a: [] for a in graph.outer_ids}
    for b in act:
        for a in graph.containing_outers[b]:
            subs_in[a].append(b)

    def rebuild_cluster(a):
        acc = pots[a].copy()
        for b in subs_in[a]:
            acc += np.log(down[(b, a)]).reshape(bshape[(a, b)])
        return acc

    logacc = {a: rebuild_cluster(a) for a in graph.outer_ids}
    q_out = {a: _softmax(logacc[a]) for a in graph.outer_ids}
    q_sub = {}
    for b in act:
        acc = None
        for a in graph.containing_outers[b]:
            lu = np.log(up[(a, b)])
            acc = lu if acc is None else acc + lu
        q_sub[b] = _softmax(acc / denom[b])

    sweeps = 0
    converged = False
    for sweep in range(1, settings.max_sweeps + 1):
        sweeps = sweep
        prev = dict(q_sub)
        for b in act:
            acc = None
            for a in graph.containing_outers[b]:
                marg = q_out[a].sum(axis=sum_axes[(a, b)])
                u = np.maximum(marg / down[(b, a)], LOG_FLOOR)
                u /= u.sum()
                up[(a, b)] = u
                lu = np.log(u)
                acc = lu if acc is None else acc + lu
            logq = acc / denom[b]
            if damping:
                logq = (1.0 - damping) * logq + damping * np.log(
                    np.maximum(q_sub[b], LOG_FLOOR)
                )
            q = _softmax(logq)
            q_sub[b] = q
            for a in graph.containing_outers[b]:
                nd = np.maximum(q / up[(a, b)], LOG_FLOOR)
                nd /= nd.sum()
                logacc[a] += (np.log(nd) - np.log(down[(b, a)])).reshape(
                    bshape[(a, b)]
                )
                down[(b, a)] = nd
                q_out[a] = _softmax(logacc[a])
        delta = 0.0
        for b in act:
            delta = max(delta, float(np.max(np.abs(q_sub[b] - prev[b]))))
        if sweep % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            for a in graph.outer_ids:
                logacc[a] = rebuild_cluster(a)
                q_out[a] = _softmax(logacc[a])
        if delta < settings.tol:
            converged = True
            break

    tabs: dict[int, np.ndarray] = {}
    for a in graph.outer_ids:
        tabs[a] = _softmax(rebuild_cluster(a))
    for b in act:
        tabs[b] = q_sub[b]
    for b in graph.subset_ids:
        if b in tabs:
            continue
        a = graph.containing_outers[b][0]
        vb = set(vars_of[b])
        axes = tuple(i for i, v in enumerate(vars_of[a]) if v not in vb)
        t = tabs[a].sum(axis=axes)
        tabs[b] = t / t.sum()
    return Beliefs(tabs), MessageSet(up, down), sweeps, converged


def constraint_residual(graph: RegionGraph, q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs."""
    worst = 0.0
    for p, c in graph.hasse_edges:
        vp = graph.region_vars(p)
        vc = set(graph.region_vars(c))
        axes = tuple(i for i, v in enumerate(vp) if v not in vc)
        marg = q.tables[p].sum(axis=axes)
        worst = max(worst, float(np.max(np.abs(marg - q.tables[c]))))
    return worst
