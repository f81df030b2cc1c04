"""Generalized belief propagation on a two-layer view of the region graph.

Every active subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the active subsets in ascending id
order; for each subset the containing clusters are queried (cluster belief
marginalized, divided by the last downward message), the subset belief is
rebuilt from the geometric mean of the upward messages with exponent
1 / (number of containing clusters + effective overcounting number), and the
downward messages and cluster beliefs are refreshed.

The sweep runs in the log domain.  Cluster tables, up and down messages and
subset beliefs are log tables; a marginal is a log-sum-exp over the cluster
entries that share a subset entry, each group shifted by its own maximum,
and division is subtraction.  Nothing in the sweep is floored: a message
far below 1e-300 stays exact and finite instead of underflowing to zero.
Only ratios within a table matter to the update, so tables are normalized
no more often than needed: a subset's new log belief is left unnormalized
until the end of the sweep, when the whole subset block is normalized at
once, before the stopping test.  That is exact: within the sweep the belief
only enters its downward messages, which are shifted to a maximum of zero
at once, so a constant per region cancels; and the damped mix below reads
the previous sweep's belief, normalized by then.

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

The sweep runs on a ``SweepPlan`` compiled once per (graph, cards, active
set) over the graph's flat ``Layout``: the cluster log tables are its outer
block, the subset beliefs its subset block and the messages one more flat
array.  The active subsets are grouped into levels: the level of a subset is
one more than the highest level among the earlier subsets that share a
containing cluster with it.  The subsets of one level touch disjoint
clusters and messages, so their updates commute, and one batched update per
level, levels in order, replays the ascending-id sweep update for update;
only the order of floating-point sums differs.  The returned ``Beliefs``
and ``MessageSet`` hold the flat log arrays and make their dicts only when
those are read.  A warm start reads the logs of messages that ``run_gbp``
computed with the same plan: the same graph object, cards and active set.
Any other ``warm`` raises ``ConfigurationError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .energy import Beliefs
from .model import ClusterPotentials
from .regions import RegionGraph


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


def _lse(x, starts, seg):
    """Segment-wise log-sum-exp, each segment shifted by its own maximum."""
    top = np.maximum.reduceat(x, starts)
    return top + np.log(np.add.reduceat(np.exp(x - top[seg]), starts))


def _log_normalize(x, starts, seg):
    """Segment-wise ``x - log(sum(exp(x)))``."""
    return x - _lse(x, starts, seg)[seg]


class SweepPlan:
    """Per-level indices for sweeping one active set on a graph's layout.

    Built for one graph object, one tuple of cards and one active set;
    ``levels`` holds the active subset ids of each level.  The plan keeps no
    numbers of a run: every run allocates its own flat arrays.
    """

    def __init__(self, graph: RegionGraph, cards, act):
        self.layout = layout = graph.layout(cards)
        self.graph, self.cards = graph, layout.cards
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

    def fits(self, graph, cards, act) -> bool:
        return self.graph is graph and self.cards == tuple(cards) and self.act == tuple(act)

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
        src, group, starts, at = self.pruned
        logs[at] = _log_normalize(_lse(logs[src], starts, group), *self.pruned_segments)
        return logs

    def tables(self, logs, key) -> MappingProxyType:
        """Read-only message tables from flat ``logs``, keyed ``key(cluster, subset)``."""
        t = np.exp(logs)
        t.flags.writeable = False
        return MappingProxyType(
            {key(a, b): t[lo:hi].reshape(shape) for (a, b), (lo, hi, shape) in self.edge_views.items()}
        )


class MessageSet:
    """Positive message tables keyed (cluster, subset) and (subset, cluster).

    The flat log arrays ``logs = (up, down)`` on the ``plan`` that computed
    them; ``up`` and ``down`` are read-only mappings made on first use.
    """

    def __init__(self, plan: SweepPlan, log_up, log_down):
        self.plan = plan
        self.logs = (log_up, log_down)
        self._up = self._down = None

    @property
    def up(self):
        if self._up is None:
            self._up = self.plan.tables(self.logs[0], lambda a, b: (a, b))
        return self._up

    @property
    def down(self):
        if self._down is None:
            self._down = self.plan.tables(self.logs[1], lambda a, b: (b, a))
        return self._down


@dataclass
class InnerSettings:
    """Stopping rule of the inner sweep: change tolerance and sweep budget."""

    tol: float = 1e-8
    max_sweeps: int = 2000


def run_gbp(model, graph, c_eff, settings=None, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``model`` is a ``FactorModel`` or its ``ClusterPotentials`` on ``graph``,
    as ``inner_potentials`` returns them.  ``converged`` is true only when
    the largest change of a sweep fell below ``settings.tol`` and every
    returned table is finite.  The returned beliefs and messages hold flat
    log arrays of this call alone.  ``warm`` is the messages of an earlier
    call on the same graph object, cards and active set; anything else
    raises ``ConfigurationError``.
    """
    settings = settings or InnerSettings()
    pots = ClusterPotentials.of(model, graph).logs
    act = [
        b
        for b in graph.subset_ids
        if abs(float(c_eff.get(b, 0.0))) > 1e-15 or graph.outer_count[b] != 1
    ]

    denom = []
    for b in act:
        d = graph.outer_count[b] + float(c_eff.get(b, 0.0))
        if d <= 1e-12:
            raise ConfigurationError(
                f"region {b}: containing-cluster count plus effective "
                f"overcounting number is {d}; the update exponent needs it positive"
            )
        denom.append(d)

    # A negative count c lifts the power n / (n + c) of the geometric mean of
    # a region's n upward messages above one, so the update overshoots; then
    # every update is damped by one half.
    damping = 0.0 if all(float(c_eff.get(b, 0.0)) >= 0 for b in act) else 0.5

    if warm is None:
        plan = SweepPlan(graph, model.cards, act)
        log_up, log_down = plan.uniform.copy(), plan.uniform.copy()
    elif isinstance(warm, MessageSet) and warm.plan.fits(graph, model.cards, act):
        plan = warm.plan
        log_up, log_down = warm.logs[0].copy(), warm.logs[1].copy()
    else:
        raise ConfigurationError(
            "warm messages must come from run_gbp on this graph object, "
            "with these cards and this active set"
        )
    # The update exponent's denominator at every subset-block entry; a
    # pruned subset is never updated and keeps one.
    den = np.ones(len(graph.subset_ids))
    den[plan.act_at] = denom
    den = den[plan.sub_seg]
    acc = np.bincount(plan.msg_sub, weights=log_up, minlength=len(den))
    log_sub = _log_normalize(acc / den, plan.sub_starts, plan.sub_seg)
    q_sub = np.exp(log_sub)
    logacc = plan.cluster_logs(pots, log_down)
    # Each step's weight on its summed upward log messages: the update
    # exponent times the undamped share.
    shares = [(1.0 - damping) / den[step[-1]] for step in plan.steps]

    # A message shifted by a constant gives the same beliefs: the shift
    # cancels in the next normalization.  So the upward messages stay
    # unnormalized and the downward ones are only shifted to a maximum of
    # zero, which keeps the cluster tables bounded; both are normalized once,
    # on return.  A new subset belief, too, enters the sweep only through
    # its downward messages and, when damped, through the next sweep's mix;
    # so the subset block is normalized once per sweep, before the stopping
    # test.
    sweeps = 0
    converged = False
    for sweep in range(1, settings.max_sweeps + 1):
        sweeps = sweep
        for (clu, group, group_starts, msg, msg_starts, msg_pair, msg_sub, sub), share in zip(
            plan.steps, shares
        ):
            la = logacc[clu]
            d_old = log_down[msg]
            u = _lse(la, group_starts, group) - d_old
            log_up[msg] = u
            q = np.bincount(msg_sub, weights=u, minlength=len(sub)) * share
            if damping:
                q += damping * log_sub[sub]
            log_sub[sub] = q
            nd = q[msg_sub] - u
            nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
            logacc[clu] = la + (nd - d_old)[group]
            log_down[msg] = nd
        log_sub = _log_normalize(log_sub, plan.sub_starts, plan.sub_seg)
        prev, q_sub = q_sub, np.exp(log_sub)
        delta = float(np.max(np.abs(q_sub - prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweep % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            logacc = plan.cluster_logs(pots, log_down)
        if delta < settings.tol:
            converged = True
            break

    q = Beliefs.on_layout(plan.layout, plan.belief_logs(pots, log_down, log_sub))
    converged = converged and bool(np.isfinite(q.probs).all())
    messages = MessageSet(
        plan,
        _log_normalize(log_up, plan.msg_starts, plan.msg_pair),
        _log_normalize(log_down, plan.msg_starts, plan.msg_pair),
    )
    return q, messages, sweeps, converged


def _cards_of(graph: RegionGraph, q: Beliefs) -> tuple[int, ...]:
    """The cards that ``q``'s table shapes give the variables of ``graph``."""
    cards: dict[int, int] = {}
    for r in graph.regions:
        if r.id in q.tables:
            cards.update(zip(r.vars, np.shape(q.tables[r.id])))
    return tuple(cards.get(v, 0) for v in range(max(cards, default=-1) + 1))


def constraint_residual(graph: RegionGraph, q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs.

    One segment reduction over the graph's layout: every parent table
    summed onto its child's entries, against the child's table.
    """
    layout = q.layout
    if layout is None or layout.graph is not graph:
        layout = graph.layout(_cards_of(graph, q))
    probs = q.flat(layout)[0]
    src, _, starts, at = layout.hasse_sums
    return float(np.max(np.abs(np.add.reduceat(probs[src], starts) - probs[at]), initial=0.0))
