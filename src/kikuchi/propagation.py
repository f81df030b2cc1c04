"""Generalized belief propagation on a two-layer view of the region graph.

Every active subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the active subsets in ascending id
order; for each subset the containing clusters are queried (cluster belief
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
is NaN stops the run unconverged.

A subset region leaves the sweep only when its effective count is zero and a
single outer cluster contains it: its update exponent is then one and its
downward message stays uniform, so visiting it would change nothing.  Every
region inside two or more clusters carries a consistency constraint and is
swept.  Beliefs for the regions left out are read off their one containing
cluster afterwards.

``run_gbp(pots, c_eff, settings=None, warm=None)`` reads the graph and
the cards off ``pots.layout``; ``pots`` is ``ClusterPotentials``, so a
``FactorModel`` enters through ``ClusterPotentials.of(model, graph)``, as
``minimize`` does.  The sweep runs on a ``SweepPlan`` compiled once per
layout and active set: the cluster log tables are the layout's outer block,
the subset beliefs its subset block and the messages one more flat array.
The active subsets are grouped into levels: the level of a subset is one
more than the highest level among the earlier subsets that share a
containing cluster with it.  The subsets of one level touch disjoint
clusters and messages, so their updates commute, and one batched update per
level, levels in order, replays the ascending-id sweep update for update;
only the order of floating-point sums differs.  The returned ``Beliefs``
and ``MessageSet`` hold flat log arrays: the beliefs on the layout, the
messages in the plan's ``edge_views``.  A warm start reads the logs of
messages that ``run_gbp`` computed on the same layout object and active
set, and reuses their plan.  Any other ``warm`` raises
``ConfigurationError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Beliefs
from .model import ClusterPotentials
from .regions import Layout, RegionGraph


class ConfigurationError(ValueError):
    """Inner-loop setup that cannot run (bad exponent, foreign warm messages)."""


def _levels(graph: RegionGraph, act) -> tuple[tuple[int, ...], ...]:
    """Group ``act`` (in order) so no two regions of a level share a cluster."""
    top: dict[int, int] = {}
    groups: list[list[int]] = []
    for b in act:
        cont = graph.containing_outers[b]
        lv = 1 + max((top[a] for a in cont if a in top), default=-1)
        if lv == len(groups):
            groups.append([])
        groups[lv].append(b)
        for a in cont:
            top[a] = lv
    return tuple(tuple(g) for g in groups)


def _views(keys, shape_of) -> dict:
    """Start, stop and shape of each key's table in one flat array."""
    views, at = {}, 0
    for k in keys:
        shape = shape_of(k)
        views[k] = (at, at + math.prod(shape), shape)
        at += math.prod(shape)
    return views


def _segments(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Start of each segment and segment number of each entry."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def _log_normalize(x, starts, seg):
    """Segment-wise ``x - log(sum(exp(x)))``, by a pairwise ``logaddexp`` reduction."""
    return x - np.logaddexp.reduceat(x, starts)[seg]


class SweepPlan:
    """Per-level indices for sweeping one active set on a graph's layout.

    Built for one layout and one active set; ``levels`` holds the active
    subset ids of each level.  The plan keeps no numbers of a run: every run
    allocates its own flat arrays.
    """

    def __init__(self, layout: Layout, act):
        self.layout = layout
        graph = layout.graph
        self.act = tuple(act)
        self.levels = _levels(graph, self.act)
        cont = graph.containing_outers
        views = layout.views
        off = layout.outer_size
        n_outer = len(graph.outer_ids)

        def shape(rid):
            return views[rid][2]

        def size(rid):
            return views[rid][1] - views[rid][0]

        edges = [(a, b) for b in self.act for a in cont[b]]
        self.edge_views = _views(edges, lambda pair: shape(pair[1]))

        def step(regions):
            """Gather/scatter indices that update ``regions`` in one batch.

            In order: the flat cluster entries of each (cluster, subset)
            pair, grouped by the message entry they sum into; the
            batch-local message entry of each; the start of each group; the
            flat message entries, their starts and pairs; the batch-local
            subset entry of each message entry; the subset-block entries of
            ``regions``.  Within a level each gathered cluster belongs to
            one pair only.
            """
            pairs = [(a, b) for b in regions for a in cont[b]]
            clu, group, group_starts, _ = layout.sums(pairs)
            local_sub = _views(regions, shape)
            return (
                clu, group, group_starts,
                _cat([np.arange(*self.edge_views[pair][:2]) for pair in pairs]),
                *_segments([size(b) for _, b in pairs]),
                _cat([np.arange(*local_sub[b][:2]) for _, b in pairs]),
                _cat([layout.span(b) - off for b in regions]),
            )

        self.steps = [step(level) for level in self.levels]
        self.msg_starts, self.msg_pair = _segments([size(b) for _, b in edges])
        self.msg_sub = _cat([layout.span(b) - off for _, b in edges])
        # A cluster's log table is its potential plus the log downward
        # messages of its subsets in ascending id order; ``clu_msg`` is the
        # message entry of each cluster entry, pair by pair, each pair's in
        # its cluster's entry order.
        clu, group, _, _ = layout.sums(edges)
        order = np.lexsort((clu, np.repeat(np.arange(len(edges)), [size(a) for a, _ in edges])))
        self.clu_msg = group[order]
        self.rebuild_clu = np.concatenate((np.arange(off), clu[order]))
        self.outer_starts, self.outer_seg = layout.starts[:n_outer], layout.seg[:off]
        self.sub_starts = layout.starts[n_outer:] - off
        self.sub_seg = layout.seg[off:] - n_outer
        # log(1 / entries of its table) at each message entry
        self.uniform = -np.log(np.bincount(self.msg_pair))[self.msg_pair]
        active = set(self.act)
        self.act_at = [i for i, b in enumerate(graph.subset_ids) if b in active]
        pruned = [b for b in graph.subset_ids if b not in active]
        self.pruned = layout.sums([(cont[b][0], b) for b in pruned])
        self.pruned_segments = _segments([size(b) for b in pruned])

    def cluster_logs(self, pots, log_down) -> np.ndarray:
        """Cluster log tables rebuilt from the potentials and downward messages."""
        weights = np.concatenate((pots, log_down[self.clu_msg]))
        return np.bincount(self.rebuild_clu, weights=weights, minlength=self.layout.outer_size)

    def belief_logs(self, pots, log_down, log_sub) -> np.ndarray:
        """Every region's normalized log table, flat on the layout.

        The clusters' come from ``pots`` and ``log_down``, the active
        subsets' are ``log_sub``, and each pruned subset's is its one
        containing cluster's, marginalized.
        """
        outer = _log_normalize(self.cluster_logs(pots, log_down), self.outer_starts, self.outer_seg)
        logs = np.concatenate((outer, log_sub))
        src, _, starts, at = self.pruned
        logs[at] = _log_normalize(np.logaddexp.reduceat(logs[src], starts), *self.pruned_segments)
        return logs


class MessageSet:
    """The up and down log messages of one ``run_gbp`` call, flat on its ``plan``.

    ``logs = (up, down)``; ``plan.edge_views`` gives the (start, stop,
    shape) of each (cluster, subset) pair's table in both.
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
    effective count; a subset it leaves out keeps the graph's count.
    ``converged`` is true only when the largest change of a sweep fell below
    ``settings.tol`` and every returned table is finite.  The returned
    beliefs and messages hold flat log arrays of this call alone.  ``warm``
    is the messages of an earlier call on the same layout object and active
    set; anything else raises ``ConfigurationError``.
    """
    settings = settings or InnerSettings()
    layout = pots.layout
    graph = layout.graph
    kept = layout.kept_counts(c_eff)[len(graph.outer_ids):].tolist()
    count = dict(zip(graph.subset_ids, kept))
    act = [b for b in graph.subset_ids if abs(count[b]) > 1e-15 or graph.outer_count[b] != 1]

    denom = []
    for b in act:
        d = graph.outer_count[b] + count[b]
        if d <= 1e-12:
            raise ConfigurationError(
                f"region {b}: containing-cluster count plus effective "
                f"overcounting number is {d}; the update exponent needs it positive"
            )
        denom.append(d)

    # A negative count c lifts the power n / (n + c) of the geometric mean of
    # a region's n upward messages above one, so the update overshoots; then
    # every update is damped by one half.
    damping = 0.0 if all(count[b] >= 0 for b in act) else 0.5

    if warm is None:
        plan = SweepPlan(layout, act)
        log_up, log_down = plan.uniform.copy(), plan.uniform.copy()
    elif isinstance(warm, MessageSet) and warm.plan.layout is layout and warm.plan.act == tuple(act):
        plan = warm.plan
        log_up, log_down = warm.logs[0].copy(), warm.logs[1].copy()
    else:
        raise ConfigurationError(
            "warm messages must come from run_gbp on this layout object, "
            "with this active set"
        )
    # The update exponent's denominator at every subset-block entry; a
    # pruned subset is never updated and keeps one.
    den = np.ones(len(graph.subset_ids))
    den[plan.act_at] = denom
    den = den[plan.sub_seg]
    acc = np.bincount(plan.msg_sub, weights=log_up, minlength=len(den))
    log_sub = _log_normalize(acc / den, plan.sub_starts, plan.sub_seg)
    q_sub = np.exp(log_sub)
    logacc = plan.cluster_logs(pots.logs, log_down)
    # Each step's weight on its summed upward log messages: the update
    # exponent times the undamped share.
    shares = [(1.0 - damping) / den[step[-1]] for step in plan.steps]

    # A message shifted by a constant gives the same beliefs: the shift
    # cancels in the next normalization.  So the downward messages are only
    # shifted to a maximum of zero, which keeps the cluster tables bounded,
    # and both directions are normalized once, on return; every sweep
    # rewrites every upward message, so a level's last are written only then.
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
            d_old = log_down[msg]
            u = np.logaddexp.reduceat(la, group_starts)
            u -= d_old
            ups.append(u)
            q = np.bincount(msg_sub, weights=u, minlength=len(sub))
            q *= share
            if damping:
                q += mix[sub]
            log_sub[sub] = q
            nd = q[msg_sub]
            nd -= u
            nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
            d_old -= nd
            la -= d_old[group]
            logacc[clu] = la
            log_down[msg] = nd
        log_sub = _log_normalize(log_sub, plan.sub_starts, plan.sub_seg)
        prev, q_sub = q_sub, np.exp(log_sub)
        prev -= q_sub
        delta = float(np.maximum.reduce(np.abs(prev, out=prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweep % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            logacc = plan.cluster_logs(pots.logs, log_down)
        if delta < settings.tol:
            converged = True
            break

    for step, u in zip(plan.steps, ups):
        log_up[step[3]] = u
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
