"""Generalized belief propagation on a two-layer view of the region graph.

Every subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the subsets in ascending id order;
for each subset the containing clusters are queried (cluster belief
marginalized, divided by the last downward message), the subset belief is
rebuilt from the geometric mean of the upward messages with exponent
1 / (number of containing clusters + effective overcounting number), and the
downward messages and cluster beliefs are refreshed.

The sweep runs in the log domain.  Cluster tables, up and down messages and
subset beliefs are log tables; a marginal is a pairwise ``logaddexp``
reduction over the cluster entries that share a subset entry, and division
is subtraction.  Nothing in the sweep is floored: the reduction neither
overflows nor underflows a group to -inf, so a message far below 1e-300
stays exact and finite.  Only ratios within a table matter to the update,
so tables are normalized no more often than needed: a subset's new log
belief is left unnormalized until the end of the sweep, when the whole
subset block is normalized at once, before the stopping test.  That is
exact: within the sweep the belief only enters its downward messages,
which are shifted to a maximum of zero at once, so a constant per region
cancels; and the damped mix below is formed once per sweep, from the
previous sweep's normalized block.  Every sweep rewrites every upward
message, so the upward messages are written out once per solve, on return.

With Bethe counting numbers (1 - n per variable) the exponent is one and the
sweep reduces to ordinary loopy belief propagation.  When any kept count is
negative every subset update is damped by one half: the new log belief is
the mean of the updated and the previous one.  A sweep whose largest change
is NaN stops the run unconverged.  Every subset of a built graph lies in
two or more clusters; a hand-built graph may hold one inside a single
cluster, which is swept like any other.

``run_gbp(pots, c_eff, settings=None, warm=None)`` reads the graph and
the cards off ``pots.layout``; ``pots`` is ``ClusterPotentials``, so a
``FactorModel`` enters through ``ClusterPotentials.of(model, graph)``, as
``minimize`` does.  The sweep runs on a ``SweepPlan`` compiled once per
layout: the cluster log tables are the layout's outer block, and the subset
beliefs and the messages are two more flat arrays.  The layout groups the
subsets into levels: the level of a subset is one more than the highest
level among the earlier subsets that share a containing cluster with it.
The subsets of one level touch disjoint clusters and messages, so their
updates commute, and one batched update per level, levels in order, replays
the ascending-id sweep update for update; only the order of floating-point
sums differs.  The layout holds the subsets in that order and the messages
follow it, so each level reads and writes one slice of each; the layout's
one scatter into the clusters rebuilds the cluster tables.  The returned
``Beliefs`` and ``MessageSet`` hold flat log arrays: the beliefs on the
layout, the messages in sweep order, located by the plan's ``edge_views``.
A warm start reads the logs of messages that ``run_gbp`` computed on the
same layout object, under any counts, and reuses their plan.  Any other
``warm`` raises ``ConfigurationError``.
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


def _segments(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Start of each segment and segment number of each entry."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)


def _log_normalize(x, starts, seg):
    """Segment-wise ``x - log(sum(exp(x)))``, by a pairwise ``logaddexp`` reduction."""
    return x - np.logaddexp.reduceat(x, starts)[seg]


class SweepPlan:
    """Slices for sweeping a graph's layout, level by level.

    Built for one layout, whose subset order and ``levels`` it reads.  The
    messages are the groups of ``layout.cluster_sums``, in the same order,
    so each level reads and writes one slice of them and of the subset
    block.  ``edge_views`` locates each (cluster, subset) pair's messages.
    The plan keeps no numbers of a run: every run allocates its own arrays.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        graph = layout.graph
        self.levels = layout.levels
        cont = graph.containing_outers
        views = layout.views
        off = layout.outer_size
        n_outer = len(graph.outer_ids)

        edges = [(a, b) for level in self.levels for b in level for a in cont[b]]
        sizes = [views[b][1] - views[b][0] for _, b in edges]
        self.msg_starts, self.msg_pair = _segments(sizes)
        self.edge_views = {
            e: (int(lo), int(lo) + n, views[e[1]][2]) for e, lo, n in zip(edges, self.msg_starts, sizes)
        }
        # Message entry j is sum group j: the cluster entries ``clu`` sum
        # into it, grouped from ``group_starts``.
        clu, group, group_starts, at = layout.cluster_sums
        self.sub_starts, self.sub_seg = layout.starts[n_outer:] - off, layout.seg[off:] - n_outer
        self.msg_sub = at - off

        # The bounds of each level's pairs, message entries, cluster entries
        # and subset-block entries.  A step is, in order: the level's
        # cluster entries, grouped by the message entry they sum into; the
        # level-local message entry of each; the start of each group; the
        # level's messages; the start of each pair's and the pair of each
        # entry; the level-local block entry of each message entry; the
        # level's block.  Within a level each gathered cluster belongs to
        # one pair only.
        p = np.cumsum([0] + [sum(len(cont[b]) for b in level) for level in self.levels])
        m = np.append(self.msg_starts, len(self.msg_pair))[p]
        c = np.append(group_starts, len(clu))[m]
        s = np.append(self.sub_starts, len(self.sub_seg))[np.cumsum([0] + [len(lv) for lv in self.levels])]
        self.steps = [
            (clu[c0:c1], group[c0:c1] - m0, group_starts[m0:m1] - c0, slice(m0, m1),
             self.msg_starts[p0:p1] - m0, self.msg_pair[m0:m1] - p0, self.msg_sub[m0:m1] - s0, slice(s0, s1))
            for p0, p1, m0, m1, c0, c1, s0, s1 in zip(p, p[1:], m, m[1:], c, c[1:], s, s[1:])
        ]
        self.outer_starts, self.outer_seg = layout.starts[:n_outer], layout.seg[:off]
        # log(1 / entries of its table) at each message entry
        self.uniform = -np.log(np.bincount(self.msg_pair))[self.msg_pair]

    def belief_logs(self, pots, log_down, log_sub) -> np.ndarray:
        """Every region's normalized log table, flat on the layout.

        The clusters' come from ``pots`` and ``log_down``, the subsets' are
        the subset block ``log_sub``.
        """
        outer = self.layout.into_clusters(pots, log_down)
        return np.concatenate((_log_normalize(outer, self.outer_starts, self.outer_seg), log_sub))


class MessageSet:
    """The up and down log messages of one ``run_gbp`` call, flat on its ``plan``.

    ``logs = (up, down)``, both in sweep order: entry j is group j of
    ``layout.cluster_sums``.  ``plan.edge_views`` gives the (start, stop, shape) of each (cluster,
    subset) pair's table in both.
    """

    def __init__(self, plan: SweepPlan, log_up, log_down):
        self.plan = plan
        self.logs = (log_up, log_down)


@dataclass
class InnerSettings:
    """Stopping rule of the inner sweep: change tolerance and sweep budget."""

    tol: float = 1e-8
    max_sweeps: int = 2000


def run_gbp(pots: ClusterPotentials, c_eff, settings=None, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``pots`` are cluster potentials on a graph's layout, as
    ``inner_potentials`` returns them.  ``c_eff`` maps a subset id to its
    effective count; a subset it leaves out keeps the graph's count, and a
    key that is no subset region raises ``ValueError``.
    ``converged`` is true only when the largest change of a sweep fell below
    ``settings.tol`` and every returned table is finite.  The returned
    beliefs and messages hold flat log arrays of this call alone.  ``warm``
    is the messages of an earlier call on the same layout object, under any
    counts; anything else raises ``ConfigurationError``.
    """
    settings = settings or InnerSettings()
    layout = pots.layout
    n_outer = len(layout.graph.outer_ids)
    kept = layout.kept_counts(c_eff)[n_outer:]
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

    if warm is None:
        plan = SweepPlan(layout)
        log_up, log_down = plan.uniform.copy(), plan.uniform.copy()
    elif isinstance(warm, MessageSet) and warm.plan.layout is layout:
        plan = warm.plan
        log_up, log_down = warm.logs[0].copy(), warm.logs[1].copy()
    else:
        raise ConfigurationError("warm messages must come from run_gbp on this layout object")
    den = den[plan.sub_seg]
    acc = np.bincount(plan.msg_sub, weights=log_up, minlength=len(den))
    log_sub = _log_normalize(acc / den, plan.sub_starts, plan.sub_seg)
    q_sub = np.exp(log_sub)
    logacc = layout.into_clusters(pots.logs, log_down)
    # Each step's weight on its summed upward log messages: the update
    # exponent times the undamped share.
    shares = [(1.0 - damping) / den[step[-1]] for step in plan.steps]

    # A message shifted by a constant gives the same beliefs: the shift
    # cancels in the next normalization.  So the downward messages are only
    # shifted to a maximum of zero, which keeps the cluster tables bounded,
    # and both directions are normalized once, on return; every sweep
    # rewrites every upward message, so only the last sweep's, one array per
    # level, are joined then.
    # A new subset belief enters the sweep only through its downward messages
    # and the next sweep's damped mix; so the block is normalized, and the mix
    # formed from it, once per sweep.
    sweeps, converged, ups = 0, False, []
    for sweep in range(1, settings.max_sweeps + 1):
        sweeps, ups = sweep, []
        mix = damping * log_sub if damping else None
        for step, share in zip(plan.steps, shares):
            clu, group, group_starts, msg, msg_starts, msg_pair, msg_sub, sub = step
            la = logacc[clu]
            down = log_down[msg]
            u = np.logaddexp.reduceat(la, group_starts)
            u -= down
            ups.append(u)
            q = np.multiply(np.bincount(msg_sub, weights=u), share, out=log_sub[sub])
            if damping:
                q += mix[sub]
            nd = q[msg_sub]
            nd -= u
            nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
            # ``down`` is the level's slice of ``log_down``: it holds the
            # old minus the new messages until the new ones are written.
            down -= nd
            la -= down[group]
            logacc[clu] = la
            down[...] = nd
        log_sub = _log_normalize(log_sub, plan.sub_starts, plan.sub_seg)
        prev, q_sub = q_sub, np.exp(log_sub)
        prev -= q_sub
        delta = float(np.maximum.reduce(np.abs(prev, out=prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweep % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            logacc = layout.into_clusters(pots.logs, log_down)
        if delta < settings.tol:
            converged = True
            break

    if ups:
        log_up = np.concatenate(ups)
    q = Beliefs(layout, plan.belief_logs(pots.logs, log_down, log_sub))
    converged = converged and bool(np.isfinite(q.probs).all())
    logs = [_log_normalize(x, plan.msg_starts, plan.msg_pair) for x in (log_up, log_down)]
    return q, MessageSet(plan, *logs), sweeps, converged


def constraint_residual(q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs.

    One segment reduction over ``q``'s layout: every parent table summed onto
    its child's entries, against the child's table.
    """
    probs, _ = q.flat(q.layout)
    src, _, starts, at = q.layout.hasse_sums
    return float(np.max(np.abs(np.add.reduceat(probs[src], starts) - probs[at]), initial=0.0))
