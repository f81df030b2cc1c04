"""Generalized belief propagation on a two-layer view of the region graph.

Every subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the subsets colour by colour
(``Layout.levels``); for each subset the containing clusters are queried
(cluster belief marginalized, divided by the last downward message), the
subset belief is rebuilt from the geometric mean of the upward messages
with exponent 1 / (number of containing clusters + effective overcounting
number), and the downward messages and cluster beliefs are refreshed.

The sweep runs in the log domain.  Cluster tables, up and down messages and
subset beliefs are log tables; a marginal is a pairwise ``logaddexp``
reduction over the cluster entries that share a subset entry, and division
is subtraction.  Nothing in the sweep is floored: the reduction neither
overflows nor underflows a group to -inf, so a message far below 1e-300
stays exact and finite.

One sweep is a map on the solver state, which ``_sweep`` applies in place:
the cluster log tables, the up and down log messages and the subset
log-belief block.  Each level writes its slice of the messages and of the
block; the block's new log beliefs are left unnormalized until the end of
the sweep, then normalized at once.  That is exact: within the sweep a
belief only enters its downward messages, which are shifted to a maximum of
zero at once, so a constant per region cancels; and the damped mix below
reads the block as the previous sweep left it.  ``run_gbp`` is the driver:
it checks the exponents, starts cold or warm, stops on the largest change
of the block's beliefs, rebuilds the cluster tables from the downward
messages every 64 sweeps and normalizes what it returns.

With Bethe counting numbers (1 - n per variable) the exponent is one and the
sweep reduces to ordinary loopy belief propagation.  When any kept count is
negative every subset update is damped by one half: the new log belief is
the mean of the updated and the previous one.  A sweep whose largest change
is NaN stops the run unconverged.  Every subset of a built graph lies in
two or more clusters; a hand-built graph may hold one inside a single
cluster, which is swept like any other.

``run_gbp(pots, subset_counts, settings=None, warm=None)`` reads the graph
and the cards off ``pots.layout``; ``pots`` is ``ClusterPotentials``, so a
``FactorModel`` enters through ``ClusterPotentials.of(model, graph)``, as
``minimize`` does; ``free_energy`` and ``inner_potentials`` read the same
count map.  The layout compiles the sweep, once per graph and cards.  It
colours the subsets greedily, one level per colour (``regions._levels``).
The subsets of one level touch disjoint clusters and messages, so their
updates commute, and one batched update per level, levels in order,
replays the sequential sweep that visits the subsets colour by colour,
update for update; only the order of floating-point sums differs.  The layout holds the subsets in that order and the messages
follow it, so each level reads and writes one slice of each
(``Layout.sweep_steps``); the layout's one scatter into the clusters
rebuilds the cluster tables.  The returned ``Beliefs`` and ``MessageSet``
hold flat log arrays and carry their layout: the beliefs on it, the
messages in sweep order, located by its ``edge_views``.  A warm start
reads the logs of messages that ``run_gbp`` computed on the same layout
object, under any counts.  Any other ``warm`` raises
``ConfigurationError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Beliefs
from .model import ClusterPotentials
from .regions import Layout


class ConfigurationError(ValueError):
    """Inner-loop setup that cannot run (bad exponent, foreign warm messages)."""


def _log_normalize(x, starts, seg):
    """Segment-wise ``x - log(sum(exp(x)))``, by a pairwise ``logaddexp`` reduction."""
    return x - np.logaddexp.reduceat(x, starts)[seg]


class MessageSet:
    """The up and down log messages of one ``run_gbp`` call, flat on its ``layout``.

    ``logs = (up, down)``, both in sweep order: entry j is group j of
    ``layout.cluster_sums``.  ``layout.edge_views`` gives the (start, stop,
    shape) of each (cluster, subset) pair's table in both.
    """

    def __init__(self, layout: Layout, log_up, log_down):
        self.layout = layout
        self.logs = (log_up, log_down)


@dataclass
class InnerSettings:
    """Stopping rule of the inner sweep: change tolerance and sweep budget."""

    tol: float = 1e-8
    max_sweeps: int = 2000


def _sweep(layout: Layout, shares, damping, logacc, log_up, log_down, log_sub) -> None:
    """Apply one sweep, level by level, to the state ``logacc, log_up, log_down, log_sub`` in place.

    ``shares`` holds each step's weight on its summed upward log messages.
    """
    mix = damping * log_sub if damping else None
    for step, share in zip(layout.sweep_steps, shares):
        clu, group, group_starts, msg, msg_starts, msg_pair, msg_sub, sub = step
        la = logacc[clu]
        down = log_down[msg]
        u = np.logaddexp.reduceat(la, group_starts, out=log_up[msg])
        u -= down
        q = np.multiply(np.bincount(msg_sub, weights=u), share, out=log_sub[sub])
        if damping:
            q += mix[sub]
        nd = q[msg_sub]
        nd -= u
        # A constant shift of a message cancels in the beliefs.  A maximum of zero
        # bounds each message's constant, which would otherwise grow geometrically
        # wherever an update's exponent times (1 - damping) exceeds one.
        nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
        # ``down`` is the level's slice of ``log_down``: it holds the old
        # minus the new messages until the new ones are written.
        down -= nd
        la -= down[group]
        logacc[clu] = la
        down[...] = nd
    sub_starts, sub_seg = layout.subset_segments
    log_sub -= np.logaddexp.reduceat(log_sub, sub_starts)[sub_seg]


def run_gbp(pots: ClusterPotentials, subset_counts, settings=None, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``pots`` are cluster potentials on a graph's layout, as
    ``inner_potentials`` returns them; the sweep runs on the steps that
    layout compiles.  ``subset_counts`` maps a subset id to its effective
    count; a subset it leaves out keeps the graph's count, and a key that is
    no subset region raises ``ValueError``.  ``converged`` is true only when
    the largest change of a sweep fell below ``settings.tol`` and every
    returned log table is finite; on counts not convex over the constraints,
    which ``minimize`` never passes, it means only that the beliefs settled,
    as the messages may diverge.  The returned beliefs and messages carry
    ``pots.layout`` and hold flat log arrays of this call alone.  ``warm``
    is the messages of an earlier call, carrying the same layout object,
    under any counts; anything else raises ``ConfigurationError``.
    """
    settings = settings or InnerSettings()
    layout = pots.layout
    n_outer = len(layout.graph.outer_ids)
    kept = layout.kept_counts(subset_counts)[n_outer:]
    # The update exponent's denominator of each subset, and below of each
    # subset-block entry.
    den = layout.outer_counts[n_outer:] + kept
    low = np.flatnonzero(den <= 1e-12)
    if len(low):
        raise ConfigurationError(
            f"region {layout.ids[n_outer + low[0]]}: containing-cluster count plus effective "
            f"overcounting number is {den[low[0]]}; the update exponent needs it positive"
        )

    # A negative count c lifts the power n / (n + c) of the geometric mean of
    # a region's n upward messages above one, so the update overshoots; then
    # every update is damped by one half.
    damping = 0.0 if (kept >= 0).all() else 0.5

    sub_starts, sub_seg = layout.subset_segments
    if warm is None:
        # log(1 / entries of its table) at each message entry
        pair = layout.message_segments[1]
        log_up = -np.log(np.bincount(pair))[pair]
        log_down = log_up.copy()
    elif isinstance(warm, MessageSet) and warm.layout is layout:
        log_up, log_down = warm.logs[0].copy(), warm.logs[1].copy()
    else:
        raise ConfigurationError("warm messages must come from run_gbp on this layout object")
    den = den[sub_seg]
    acc = np.bincount(layout.cluster_sums[3], weights=log_up, minlength=layout.size)
    log_sub = _log_normalize(acc[layout.outer_size:] / den, sub_starts, sub_seg)
    q_sub = np.exp(log_sub)
    logacc = layout.into_clusters(pots.logs, log_down)
    # Each step's weight on its summed upward log messages: the update
    # exponent times the undamped share.
    shares = [(1.0 - damping) / den[step[-1]] for step in layout.sweep_steps]

    sweeps, converged = 0, False
    for sweeps in range(1, settings.max_sweeps + 1):
        _sweep(layout, shares, damping, logacc, log_up, log_down, log_sub)
        prev, q_sub = q_sub, np.exp(log_sub)
        prev -= q_sub
        delta = float(np.maximum.reduce(np.abs(prev, out=prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweeps % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            logacc = layout.into_clusters(pots.logs, log_down)
        if delta < settings.tol:
            converged = True
            break

    outer = layout.into_clusters(pots.logs, log_down)
    outer = _log_normalize(outer, layout.starts[:n_outer], layout.seg[: layout.outer_size])
    q = Beliefs(layout, np.concatenate((outer, log_sub)))
    converged = converged and bool(np.isfinite(q.logs).all())
    logs = [_log_normalize(x, *layout.message_segments) for x in (log_up, log_down)]
    return q, MessageSet(layout, *logs), sweeps, converged


def constraint_residual(q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs.

    One segment reduction over ``q``'s layout: every parent table summed onto
    its child's entries, against the child's table.
    """
    probs, _ = q.flat(q.layout)
    src, _, starts, at = q.layout.hasse_sums
    return float(np.max(np.abs(np.add.reduceat(probs[src], starts) - probs[at]), initial=0.0))
