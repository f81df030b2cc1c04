"""Free energy functionals over region-graph beliefs.

The variational objective is average energy minus a counted sum of region
entropies.  The upper-bound functional used by the double loop replaces part
of each subset entropy with its linearization around an anchor belief set:
entropy(q) <= -sum(q * log(anchor)), with equality at q == anchor.

Beliefs live on a graph's flat ``Layout`` as one array of log tables, and
both functionals are one segment reduction over it:
``free_energy(pots, q, subset_counts=None, anchor=None)`` reads the graph
and the cards off ``pots.layout``, where ``pots`` is ``ClusterPotentials``
(a model enters through ``model.outer_log_potentials``).
"""
from __future__ import annotations

import math
import warnings
from types import MappingProxyType

import numpy as np

from .model import ClusterPotentials
from .regions import Layout, RegionGraph


class Beliefs:
    """One nonnegative, normalized table per region, flat on a graph's ``Layout``.

    ``logs`` holds every region's log table in one flat array on ``layout``
    and ``probs`` their exponentials, both read-only; ``tables`` is a
    read-only mapping of views of ``probs``, made on first use.  ``logs`` is
    a copy of the array given, so no write through that array or a view of
    it reaches a belief set; as neither array can change, ``flat`` scans
    them for non-finite entries once.  Raises ``ValueError`` unless ``logs``
    holds one entry per entry of ``layout``.
    """

    def __init__(self, layout: Layout, logs: np.ndarray):
        logs = np.array(logs)
        if logs.shape != (layout.size,):
            raise ValueError(f"belief logs of shape {logs.shape}; the layout holds {layout.size} entries")
        self.layout, self.logs, self.probs = layout, logs, np.exp(logs)
        logs.flags.writeable = self.probs.flags.writeable = False
        self._tables = None
        self._first_bad = None

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
        first region with a non-finite entry or log (a zero entry's log is
        -inf, and its entropy term ``0 * -inf`` has no value).
        """
        self._check_layout(layout)
        if self._first_bad is None:
            bad = ~(np.isfinite(self.probs) & np.isfinite(self.logs))
            self._first_bad = int(bad.argmax()) if bad.any() else -1
        if self._first_bad >= 0:
            rid = layout.ids[layout.seg[self._first_bad]]
            raise ValueError(f"region {rid}: belief table has non-finite entries")
        return self.probs, self.logs


def uniform_beliefs(graph: RegionGraph, cards) -> Beliefs:
    """Every region's uniform table, on the graph's layout for ``cards``."""
    layout = graph.layout(cards)
    return Beliefs(layout, -np.log(layout.sizes)[layout.seg])


def free_energy(pots: ClusterPotentials, q, subset_counts=None, anchor=None) -> float:
    """Average energy minus counted entropy.

    Subset region ``b`` keeps ``subset_counts.get(b, c_b)`` of its exact
    entropy, where ``c_b`` is the graph's count (all of it by default); a
    key that is no subset region raises ``ValueError``.  With an ``anchor``,
    the remaining ``c_b - kept`` is charged as cross-entropy against the
    anchor: the double loop's upper bound, which touches the plain value at
    q == anchor.  ``q`` and ``anchor`` must lie on ``pots.layout``;
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
    return total


def kl_marginals(p, q, over) -> float:
    """Sum of KL(p[k] || q[k]) over the keys ``over`` of two mappings of tables.

    Never negative, as a region's sum below zero is rounding and counts as
    0.0; +inf if some q[k] is zero where p[k] is positive.
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
        total += max(float(
            (tp[mask] * (np.log(tp[mask]) - np.log(tq[mask]))).sum()
        ), 0.0)
    return total
