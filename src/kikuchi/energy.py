"""Free energy functionals over region-graph beliefs.

The variational objective is average energy minus a counted sum of region
entropies.  The upper-bound functional used by the double loop replaces part
of each subset entropy with its linearization around an anchor belief set:
entropy(q) <= -sum(q * log(anchor)), with equality at q == anchor.

Beliefs live on a graph's flat ``Layout`` as one array of log tables, and
both functionals are one segment reduction over it:
``free_energy(pots, q, subset_counts=None, anchor=None)`` reads the graph
and the cards off ``pots.layout``, where ``pots`` is ``ClusterPotentials``;
a ``FactorModel`` enters through ``ClusterPotentials.of(model, graph)``.
Tables given as a dict enter once, through ``Beliefs.from_tables``, which
checks them and floors their logs at ``LOG_FLOOR``.
"""
from __future__ import annotations

import math
import warnings
from types import MappingProxyType

import numpy as np

from .model import ClusterPotentials
from .regions import Layout, RegionGraph

LOG_FLOOR = 1e-300


class Beliefs:
    """One nonnegative, normalized table per region, flat on a graph's ``Layout``.

    ``logs`` holds every region's log table in one flat array on ``layout``
    and ``probs`` their exponentials, both read-only; ``tables`` is a
    read-only mapping of views of ``probs``, made on first use.  Dict tables
    come in through ``from_tables``.
    """

    def __init__(self, layout: Layout, logs: np.ndarray):
        self.layout, self.logs, self.probs = layout, logs, np.exp(logs)
        logs.flags.writeable = self.probs.flags.writeable = False
        # The entries whose logs were floored at LOG_FLOOR; None when exact.
        self.floored: np.ndarray | None = None
        self._tables = None

    @classmethod
    def from_tables(cls, layout: Layout, tables) -> "Beliefs":
        """Tables keyed by region id, checked and laid out on ``layout``.

        Every region needs a table of its shape that is finite, nonnegative
        and normalized; ``ValueError`` names the first region that fails.
        The probabilities are kept as given and their logs floored at
        ``LOG_FLOOR``; ``floored`` marks the entries that were.
        """
        probs = np.empty(layout.size)
        for r in layout.graph.regions:
            if r.id not in tables:
                raise ValueError(f"beliefs missing a table for region {r.id}")
            t = tables[r.id]
            lo, hi, want = layout.views[r.id]
            if np.shape(t) != want:
                raise ValueError(f"region {r.id}: belief shape {np.shape(t)}, expected {want}")
            total = float(t.sum())
            if not math.isfinite(total):
                raise ValueError(f"region {r.id}: belief table has non-finite entries")
            if float(t.min()) < -1e-12:
                raise ValueError(f"region {r.id}: negative belief entry")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"region {r.id}: belief table is not normalized")
            probs[lo:hi] = t.ravel()
        q = cls(layout, np.log(np.maximum(probs, LOG_FLOOR)))
        probs.flags.writeable = False
        q.probs, q.floored = probs, probs < LOG_FLOOR
        return q

    @property
    def tables(self):
        if self._tables is None:
            self._tables = MappingProxyType(self.layout.tables(self.probs))
        return self._tables

    def _check_layout(self, layout: Layout) -> None:
        if self.layout is not layout:
            raise ValueError("beliefs are laid out for another region graph or other cards")

    def delta(self, other: "Beliefs") -> float:
        """Largest entry change from ``other``, on the same layout."""
        other._check_layout(self.layout)
        return float(np.max(np.abs(self.probs - other.probs), initial=0.0))

    def flat(self, layout: Layout):
        """These beliefs' (probabilities, logs), checked to lie on ``layout``.

        Raises ``ValueError`` for beliefs on another layout, and naming the
        first region with a non-finite entry.
        """
        self._check_layout(layout)
        bad = ~np.isfinite(self.probs)
        if bad.any():
            rid = layout.ids[layout.seg[bad.argmax()]]
            raise ValueError(f"region {rid}: belief table has non-finite entries")
        return self.probs, self.logs


def uniform_beliefs(graph: RegionGraph, cards) -> Beliefs:
    """Every region's uniform table, on the graph's layout for ``cards``."""
    layout = graph.layout(cards)
    sizes = np.diff(layout.starts, append=layout.size)
    return Beliefs(layout, -np.log(sizes)[layout.seg])


def free_energy(pots: ClusterPotentials, q, subset_counts=None, anchor=None) -> float:
    """Average energy minus counted entropy.

    Subset region ``b`` keeps ``subset_counts.get(b, c_b)`` of its exact
    entropy, where ``c_b`` is the graph's count (all of it by default); a
    key that is no subset region raises ``ValueError``.  With
    an ``anchor``, the remaining ``c_b - kept`` is charged as cross-entropy
    against the anchor: the double loop's upper bound, which touches the plain
    value at q == anchor.  ``q`` and ``anchor`` must lie on ``pots.layout``;
    the value is one segment reduction over it.
    """
    layout = pots.layout
    probs, logs = q.flat(layout)
    keep = layout.kept_counts(subset_counts)
    region_sum = np.add.reduceat
    # -sum q log pot - sum_r keep_r H_r, with H_r = -sum q_r log q_r
    total = -float(probs[: layout.outer_size] @ pots.logs)
    total += float(keep @ region_sum(probs * logs, layout.starts))
    if anchor is not None:
        _, anchor_logs = anchor.flat(layout)
        gap = layout.overcounts - keep
        # each linearized entropy share is charged as cross-entropy
        total += float(gap @ region_sum(probs * anchor_logs, layout.starts))
        if anchor.floored is not None:
            clamped = int((anchor.floored & (probs > 1e-12) & (gap != 0)[layout.seg]).sum())
            if clamped:
                warnings.warn(f"{clamped} anchor entries at the log floor")
    return total


def kl_marginals(p, q, over) -> float:
    """Sum of KL(p[k] || q[k]) over the keys ``over`` of two mappings of tables.

    +inf if some q[k] is zero where p[k] is positive.
    """
    total = 0.0
    for rid in over:
        tp = p[rid]
        tq = q[rid]
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
        return Beliefs.from_tables(graph.layout(cards), tabs)

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
    return Beliefs.from_tables(graph.layout(cards), tabs)
