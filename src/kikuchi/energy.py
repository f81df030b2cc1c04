"""Free energy functionals over region-graph beliefs.

The variational objective is average energy minus a counted sum of region
entropies.  The upper-bound functional used by the double loop replaces part
of each subset entropy with its linearization around an anchor belief set:
entropy(q) <= -sum(q * log(anchor)), with equality at q == anchor.

Both are one segment reduction over the graph's flat ``Layout``.  Beliefs
that ``uniform_beliefs`` and ``run_gbp`` return already live there, with
exact log tables, so the double loop never leaves the layout; a dict of
tables is checked and laid out first, its logs floored at ``LOG_FLOOR``.
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
    """One nonnegative, normalized table per region id.

    Built from a dict of tables, or by ``on_layout`` from one flat array of
    log tables on a graph's ``Layout``, as ``uniform_beliefs`` and ``run_gbp``
    make them.  Beliefs on a layout keep those exact logs next to their
    exponentials (``probs``); their ``tables`` are a read-only mapping of
    read-only views, made on first use, and ``copy()`` gives editable ones.
    """

    def __init__(self, tables: dict[int, np.ndarray] | None):
        self._tables = tables
        self.layout: Layout | None = None
        self.probs: np.ndarray | None = None
        self.logs: np.ndarray | None = None

    @classmethod
    def on_layout(cls, layout: Layout, logs: np.ndarray) -> "Beliefs":
        q = cls(None)
        q.layout, q.logs, q.probs = layout, logs, np.exp(logs)
        logs.flags.writeable = q.probs.flags.writeable = False
        return q

    @property
    def tables(self):
        if self._tables is None:
            self._tables = MappingProxyType(self.layout.tables(self.probs))
        return self._tables

    def copy(self) -> "Beliefs":
        return Beliefs({k: v.copy() for k, v in self.tables.items()})

    def delta(self, other: "Beliefs") -> float:
        """Largest entry change over every region of ``self``."""
        if self.layout is not None and other.layout is self.layout:
            a, b = self.probs, other.probs
        else:
            a = np.concatenate([np.ravel(t) for t in self.tables.values()] or [[]])
            b = np.concatenate([np.ravel(other.tables[k]) for k in self.tables] or [[]])
        return float(np.max(np.abs(a - b), initial=0.0))

    def flat(self, layout: Layout):
        """These beliefs on ``layout``, checked: (probabilities, logs, floored).

        Beliefs on ``layout`` give their own arrays, and ``floored`` None, once
        every entry is finite.  A dict of tables is checked table by table
        (present, shaped, finite, nonnegative, normalized) and its logs are
        floored at ``LOG_FLOOR``; ``floored`` marks the entries that were.
        Raises ``ValueError`` naming the first region that fails.
        """
        if self.layout is layout:
            bad = ~np.isfinite(self.probs)
            if bad.any():
                rid = layout.ids[layout.seg[bad.argmax()]]
                raise ValueError(f"region {rid}: belief table has non-finite entries")
            return self.probs, self.logs, None
        probs = np.empty(layout.size)
        for r in layout.graph.regions:
            if r.id not in self.tables:
                raise ValueError(f"beliefs missing a table for region {r.id}")
            t = self.tables[r.id]
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
        return probs, np.log(np.maximum(probs, LOG_FLOOR)), probs < LOG_FLOOR


def uniform_beliefs(graph: RegionGraph, cards) -> Beliefs:
    """Every region's uniform table, on the graph's layout for ``cards``."""
    layout = graph.layout(cards)
    sizes = np.diff(layout.starts, append=layout.size)
    return Beliefs.on_layout(layout, -np.log(sizes)[layout.seg])


def free_energy(graph, model, q, subset_counts=None, anchor=None) -> float:
    """Average energy minus counted entropy.

    Subset region ``b`` keeps ``subset_counts.get(b, c_b)`` of its exact
    entropy, where ``c_b`` is the graph's count (all of it by default).  With
    an ``anchor``, the remaining ``c_b - kept`` is charged as cross-entropy
    against the anchor: the double loop's upper bound, which touches the plain
    value at q == anchor.  ``model`` is a ``FactorModel`` or its
    ``ClusterPotentials`` on ``graph``; the value is one segment reduction
    over the graph's layout.
    """
    pots = ClusterPotentials.of(model, graph)
    layout = pots.layout
    probs, logs, _ = q.flat(layout)
    keep = layout.kept_counts(subset_counts)
    region_sum = np.add.reduceat
    # -sum q log pot - sum_r keep_r H_r, with H_r = -sum q_r log q_r
    total = -float(probs[: layout.outer_size] @ pots.logs)
    total += float(keep @ region_sum(probs * logs, layout.starts))
    if anchor is not None:
        _, anchor_logs, floored = anchor.flat(layout)
        gap = layout.overcounts - keep
        # each linearized entropy share is charged as cross-entropy
        total += float(gap @ region_sum(probs * anchor_logs, layout.starts))
        if floored is not None:
            clamped = int((floored & (probs > 1e-12) & (gap != 0)[layout.seg]).sum())
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
