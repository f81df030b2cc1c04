"""Free energy functionals over region-graph beliefs.

The variational objective is average energy minus a counted sum of region
entropies.  The upper-bound functional used by the double loop replaces part
of each subset entropy with its linearization around an anchor belief set:
entropy(q) <= -sum(q * log(anchor)), with equality at q == anchor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import outer_log_potentials
from .regions import RegionGraph

LOG_FLOOR = 1e-300


@dataclass
class Beliefs:
    """One nonnegative, normalized table per region id."""

    tables: dict[int, np.ndarray]

    def copy(self) -> "Beliefs":
        return Beliefs({k: v.copy() for k, v in self.tables.items()})

    def delta(self, other: "Beliefs", ids=None) -> float:
        keys = self.tables.keys() if ids is None else ids
        worst = 0.0
        for k in keys:
            worst = max(worst, float(np.max(np.abs(self.tables[k] - other.tables[k]))))
        return worst


def uniform_beliefs(graph: RegionGraph, cards) -> Beliefs:
    tabs = {}
    for r in graph.regions:
        shape = tuple(cards[v] for v in r.vars)
        size = 1
        for s in shape:
            size *= s
        tabs[r.id] = np.full(shape, 1.0 / size)
    return Beliefs(tabs)


def _entropy(t: np.ndarray) -> float:
    return float(-(t * np.log(np.maximum(t, LOG_FLOOR))).sum())


def _cross_entropy(t: np.ndarray, anchor: np.ndarray) -> float:
    return float(-(t * np.log(np.maximum(anchor, LOG_FLOOR))).sum())


def _check_tables(graph, q, cards):
    for r in graph.regions:
        if r.id not in q.tables:
            raise ValueError(f"beliefs missing a table for region {r.id}")
        t = q.tables[r.id]
        want = tuple(cards[v] for v in r.vars)
        if t.shape != want:
            raise ValueError(f"region {r.id}: belief shape {t.shape}, expected {want}")
        total = float(t.sum())
        if not math.isfinite(total):
            raise ValueError(f"region {r.id}: belief table has non-finite entries")
        if float(t.min()) < -1e-12:
            raise ValueError(f"region {r.id}: negative belief entry")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"region {r.id}: belief table is not normalized")


def free_energy(graph, model, q, subset_counts=None, anchor=None) -> float:
    """Average energy minus counted entropy.

    Subset region ``b`` keeps ``subset_counts.get(b, c_b)`` of its exact
    entropy, where ``c_b`` is the graph's count (all of it by default).  With
    an ``anchor``, the remaining ``c_b - kept`` is charged as cross-entropy
    against the anchor: the double loop's upper bound, which touches the plain
    value at q == anchor.
    """
    _check_tables(graph, q, model.cards)
    pots = outer_log_potentials(model, graph)
    total = 0.0
    for a in graph.outer_ids:
        t = q.tables[a]
        total += float(-(t * pots[a]).sum())
        total -= _entropy(t)
    counts = graph.subset_overcounts()
    kept = counts if subset_counts is None else subset_counts
    clamped = 0
    for b in graph.subset_ids:
        c = counts[b]
        ct = kept.get(b, c)
        t = q.tables[b]
        if ct:
            total -= ct * _entropy(t)
        if anchor is not None and c != ct:
            anch = anchor.tables[b]
            clamped += int(((anch < LOG_FLOOR) & (t > 1e-12)).sum())
            total -= (c - ct) * _cross_entropy(t, anch)
    if clamped:
        warnings.warn(f"{clamped} anchor entries at the log floor")
    return total


def kl_marginals(p: Beliefs, q: Beliefs, over) -> float:
    """Sum of KL(p_r || q_r) over the listed region ids; +inf if unsupported."""
    total = 0.0
    for rid in over:
        tp = p.tables[rid]
        tq = q.tables[rid]
        bad = (tp > 0) & (tq <= 0)
        if bad.any():
            warnings.warn(f"region {rid}: q assigns zero mass where p is positive")
            return math.inf
        mask = tp > 0
        total += float(
            (tp[mask] * (np.log(tp[mask]) - np.log(tq[mask]))).sum()
        )
    return total


MAX_JOINT_SAMPLER = 1 << 16


def random_consistent_beliefs(graph, cards, rng, components=3) -> Beliefs:
    """Marginals of a random joint distribution, so consistency holds exactly.

    Small state spaces draw a dense random joint and marginalize it.  Larger
    ones use a random mixture of product distributions, whose region marginals
    are available in closed form and are marginals of the same implicit joint.
    """
    n = len(cards)
    states = 1
    for c in cards:
        states *= c
        if states > MAX_JOINT_SAMPLER:
            break
    if states <= MAX_JOINT_SAMPLER:
        joint = rng.gamma(1.0, size=tuple(cards))
        joint /= joint.sum()
        tabs = {}
        for r in graph.regions:
            axes = tuple(i for i in range(n) if i not in r.vars)
            tabs[r.id] = joint.sum(axis=axes)
        return Beliefs(tabs)

    weights = rng.gamma(1.0, size=components)
    weights /= weights.sum()
    comps = [
        [rng.gamma(1.0, size=cards[v]) for v in range(n)] for _ in range(components)
    ]
    for k in range(components):
        for v in range(n):
            comps[k][v] /= comps[k][v].sum()
    tabs = {}
    for r in graph.regions:
        shape = tuple(cards[v] for v in r.vars)
        t = np.zeros(shape)
        for k in range(components):
            part = np.array(weights[k])
            for v in r.vars:
                part = np.multiply.outer(part, comps[k][v])
            t += part
        tabs[r.id] = t
    return Beliefs(tabs)
