"""Generalized belief propagation on a two-layer view of the region graph.

Every subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the subsets colour by colour
(``Layout.levels``); for each subset the containing clusters are queried
(cluster belief marginalized, divided by the last downward message), the
subset belief is rebuilt as the product of its n upward messages raised to
1 / (n + c), where n counts its containing clusters and c is its effective
overcounting number (so the geometric mean of the messages to the power
n / (n + c)), and the downward messages and cluster beliefs are refreshed.
With Bethe counting numbers (1 - n per variable) the exponent 1 / (n + c) is
one and the sweep reduces to ordinary loopy belief propagation.  Every
subset of a built graph lies in two or more clusters; a hand-built graph may
hold one inside a single cluster, which is swept like any other.

The sweep runs in the log domain.  Cluster tables, up and down messages and
subset beliefs are log tables; a marginal is a pairwise ``logaddexp``
reduction over the cluster entries that share a subset entry, one pass over
the rows of each level's block (``Layout.sweep_steps``), and division is
subtraction.  Nothing in the sweep is floored: the reduction neither
overflows nor underflows a group to -inf, so a message far below 1e-300
stays exact and finite.

``run_gbp(pots, subset_counts, *, tol, max_sweeps, warm)`` reads the graph
and the cards off ``pots.layout``; ``pots`` is ``ClusterPotentials`` (a
model enters through ``model.outer_log_potentials``); ``free_energy`` and
``inner_potentials`` read the same count map.
The layout compiles the sweep, once per graph and cards: it colours the
subsets greedily, one level per colour.
The subsets of one level touch disjoint clusters and messages, so their
updates commute, and one batched update per level, levels in order,
replays the sequential sweep that visits the subsets colour by colour,
update for update; only the order of floating-point sums differs.  The
returned ``Beliefs`` and ``MessageSet`` hold flat log arrays and carry their
layout: the beliefs on it, the messages in sweep order, located by its
``edge_views``.
"""
from __future__ import annotations

import math

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


class _Solve:
    """One inner solve's state on ``pots.layout``, from its start, and its sweep.

    The state is the cluster log tables ``logacc``, the up and down log
    messages ``log_up`` and ``log_down`` in sweep order, and the subset
    log-belief block ``log_sub``.  The constructor checks each subset's
    update exponent, starts on uniform messages or on copies of ``warm``'s,
    and binds each level of ``Layout.sweep_steps`` to its views of the state
    once: its block of cluster entries and their columns, its slices of the
    messages and of the subset block, its message bounds and block entries,
    its slice of the damping buffer ``mix`` (None when undamped) and its
    share.  ``logacc`` is a view of one array that holds, past the cluster
    tables, the sentinel slot of the padded blocks at -inf.  So every writer
    of the state, the driver's rebuild as much as any mixing of iterates,
    writes into these arrays in place (``solve.logacc[...] = ...``) and never
    rebinds them.

    A negative kept count c lifts the power n / (n + c) of the geometric mean
    of a region's n upward messages above one, so the update overshoots; then
    every update is damped by one half: the new log belief is the mean of the
    updated and the previous one.  A level's share weighs its summed upward
    log messages: the update exponent times the undamped share.
    """

    def __init__(self, pots: ClusterPotentials, subset_counts, warm=None):
        layout = self.layout = pots.layout
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
        self.damping = damping = 0.0 if (kept >= 0).all() else 0.5

        pair = layout.message_segments[1]
        if warm is None:
            # log(1 / entries of its table) at each message entry
            log_up = -np.log(np.bincount(pair))[pair]
            log_down = log_up.copy()
        elif not (isinstance(warm, MessageSet) and warm.layout is layout):
            raise ConfigurationError("warm messages must come from run_gbp on this layout object")
        elif any(np.shape(x) != pair.shape for x in warm.logs):
            raise ConfigurationError(
                f"warm message arrays have shapes {[np.shape(x) for x in warm.logs]}; "
                f"this layout has {len(pair)} message entries"
            )
        else:
            log_up, log_down = warm.logs[0].copy(), warm.logs[1].copy()
        sub_starts, sub_seg = layout.subset_segments
        den = den[sub_seg]
        acc = np.bincount(layout.cluster_sums[3], weights=log_up, minlength=layout.size)
        log_sub = _log_normalize(acc[layout.outer_size:] / den, sub_starts, sub_seg)
        mix = np.empty_like(log_sub) if damping else None
        self.log_up, self.log_down, self.log_sub, self.mix = log_up, log_down, log_sub, mix
        # The cluster tables and, past them, the sentinel slot of the padded blocks.
        self._acc = np.full(layout.outer_size + 1, -np.inf)
        self.logacc = self._acc[:-1]
        self.logacc[...] = layout.into_clusters(pots.logs, log_down)
        self.levels = [
            (block, column, log_up[msg], log_down[msg], msg_starts, msg_pair, msg_sub,
             log_sub[sub], None if mix is None else mix[sub], (1.0 - damping) / den[sub])
            for block, column, msg, msg_starts, msg_pair, msg_sub, sub in layout.sweep_steps
        ]

    def sweep(self) -> None:
        """Apply one sweep, level by level, to the state in place.

        Each level writes its slice of the messages and of the block; the
        block's new log beliefs are left unnormalized until the end of the
        sweep, then normalized at once.  That is exact: within the sweep a
        belief only enters its downward messages, which are shifted to a
        maximum of zero at once, so a constant per region cancels; and the
        damped mix reads the block as the previous sweep left it.
        """
        acc, log_sub, mix = self._acc, self.log_sub, self.mix
        if mix is not None:
            np.multiply(log_sub, self.damping, out=mix)
        for block, column, up, down, msg_starts, msg_pair, msg_sub, q, m, share in self.levels:
            la = acc[block]
            # A two-row block's one pairwise step costs less as a plain ufunc call.
            u = np.logaddexp(la[0], la[1], out=up) if len(la) == 2 else np.logaddexp.reduce(la, axis=0, out=up)
            u -= down
            np.multiply(np.bincount(msg_sub, weights=u), share, out=q)
            if m is not None:
                q += m
            nd = q[msg_sub]
            nd -= u
            # A constant shift of a message cancels in the beliefs.  A maximum of zero
            # bounds each message's constant, which would otherwise grow geometrically
            # wherever an update's exponent times (1 - damping) exceeds one.
            nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
            # ``down`` is the level's view of ``log_down``: it holds the old
            # minus the new messages until the new ones are written.
            down -= nd
            la -= down[column]
            acc[block] = la
            down[...] = nd
        sub_starts, sub_seg = self.layout.subset_segments
        log_sub -= np.logaddexp.reduceat(log_sub, sub_starts)[sub_seg]


def run_gbp(pots: ClusterPotentials, subset_counts, *, tol=1e-8, max_sweeps=2000, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``pots`` are cluster potentials on a graph's layout, as
    ``inner_potentials`` returns them; the sweep runs on the steps that
    layout compiles.  ``subset_counts`` maps a subset id to its effective
    count; a subset it leaves out keeps the graph's count, and a key that is
    no subset region raises ``ValueError``.  ``converged`` is true only when
    the largest change of a sweep, within ``max_sweeps``, fell below ``tol``
    and every returned log table is finite; on counts not convex over the
    constraints, which ``minimize`` never passes, it means only that the
    beliefs settled, as the messages may diverge.  The returned beliefs and
    messages carry ``pots.layout`` and hold flat log arrays of this call
    alone.  ``warm`` is the messages of an earlier call, carrying the same
    layout object, under any counts; anything else raises ``ConfigurationError``,
    as does a subset whose containing-cluster count plus kept count is not
    positive.
    """
    layout = pots.layout
    solve = _Solve(pots, subset_counts, warm)
    q_sub = np.exp(solve.log_sub)
    prev = np.empty_like(q_sub)
    sweeps, converged = 0, False
    for sweeps in range(1, max_sweeps + 1):
        solve.sweep()
        prev, q_sub = q_sub, np.exp(solve.log_sub, out=prev)
        prev -= q_sub
        delta = float(np.maximum.reduce(np.abs(prev, out=prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweeps % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild, in
            # place like every write to the swept state.
            solve.logacc[...] = layout.into_clusters(pots.logs, solve.log_down)
        if delta < tol:
            converged = True
            break

    n_outer = len(layout.graph.outer_ids)
    outer = layout.into_clusters(pots.logs, solve.log_down)
    outer = _log_normalize(outer, layout.starts[:n_outer], layout.seg[: layout.outer_size])
    q = Beliefs(layout, np.concatenate((outer, solve.log_sub)))
    converged = converged and bool(np.isfinite(q.logs).all())
    logs = [_log_normalize(x, *layout.message_segments) for x in (solve.log_up, solve.log_down)]
    return q, MessageSet(layout, *logs), sweeps, converged


def constraint_residual(q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs.

    One segment reduction over ``q``'s layout: every parent table summed onto
    its child's entries, against the child's table.
    """
    probs, _ = q.flat(q.layout)
    src, _, starts, at = q.layout.hasse_sums
    return float(np.max(np.abs(np.add.reduceat(probs[src], starts) - probs[at]), initial=0.0))
