"""Generalized belief propagation on a two-layer view of the region graph.

Every active subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the active subsets in ascending id
order; for each subset the containing clusters are queried (cluster belief
marginalized, divided by the last downward message), the subset belief is
rebuilt from the geometric mean of the upward messages with exponent
1 / (number of containing clusters + effective overcounting number), and the
downward messages and cluster beliefs are refreshed.

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
set).  Cluster log tables, pair messages and subset beliefs each live in one
flat float array, and the active subsets are grouped into levels: the level
of a subset is one more than the highest level among the earlier subsets
that share a containing cluster with it.  The subsets of one level touch
disjoint clusters and messages, so their updates commute, and one batched
update per level, levels in order, replays the ascending-id sweep update for
update; only the order of floating-point sums differs.  The plan travels on
the returned ``MessageSet``, and a warm start from messages computed for the
same graph object, cards and active set reuses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import LOG_FLOOR, Beliefs
from .model import outer_log_potentials
from .regions import RegionGraph


class ConfigurationError(ValueError):
    """Inner-loop setup that cannot run (bad exponent, bad warm tables)."""


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


def _softmax(x, starts, seg):
    """Segment-wise ``exp(x - max) / sum``."""
    t = np.exp(x - np.maximum.reduceat(x, starts)[seg])
    t /= np.add.reduceat(t, starts)[seg]
    return t


def _normalized(x, starts, seg):
    """Segment-wise ``max(x, LOG_FLOOR) / sum``."""
    x = np.maximum(x, LOG_FLOOR)
    x /= np.add.reduceat(x, starts)[seg]
    return x


class SweepPlan:
    """Flat layout and per-level indices for sweeping one active set.

    Built for one graph object, one tuple of cards and one active set;
    ``levels`` holds the active subset ids of each level.  The plan keeps no
    numbers of a run: every run allocates its own flat arrays.
    """

    def __init__(self, graph: RegionGraph, cards, act):
        self.graph = graph
        self.cards = tuple(cards)
        self.act = tuple(act)
        self.levels = _levels(graph, self.act)
        cont = graph.containing_outers
        shape = {r.id: tuple(self.cards[v] for v in r.vars) for r in graph.regions}

        def pair_shape(pair):
            return shape[pair[1]]

        edges = [(a, b) for b in self.act for a in cont[b]]
        self.outer_views = _views(graph.outer_ids, shape.get)
        self.sub_views = _views(self.act, shape.get)
        self.edge_views = _views(edges, pair_shape)

        # Index into b's flat table of every entry of a's flat table: b's axes
        # keep their order inside a, so b's entry numbers broadcast along a's.
        entry_map = {}
        for a, b in edges:
            at_b = np.arange(math.prod(shape[b])).reshape(shape[b])
            at_a = np.broadcast_to(np.expand_dims(at_b, graph.outside_axes(a, b)), shape[a])
            entry_map[(a, b)] = at_a.ravel()

        def span(views, key):
            return np.arange(views[key][0], views[key][1])

        def step(regions):
            """Gather/scatter indices that update ``regions`` in one batch.

            In order: the flat cluster entries of each (cluster, subset)
            pair, the start of each pair's entries and the pair of each
            entry; the batch-local message entry each cluster entry sums
            into; the flat message entries, their starts and pairs; the
            batch-local subset entry of each message entry; the flat
            subset-belief entries, their starts and regions.  Within a
            level each gathered cluster belongs to one pair only.
            """
            pairs = [(a, b) for b in regions for a in cont[b]]
            local_sub, local_msg = _views(regions, shape.get), _views(pairs, pair_shape)
            clu, clu_msg, msg, msg_sub, sub = [], [], [], [], []
            for pair in pairs:
                clu.append(span(self.outer_views, pair[0]))
                clu_msg.append(local_msg[pair][0] + entry_map[pair])
                msg.append(span(self.edge_views, pair))
                msg_sub.append(span(local_sub, pair[1]))
            for b in regions:
                sub.append(span(self.sub_views, b))
            return (
                _cat(clu), *_segments([len(c) for c in clu]), _cat(clu_msg),
                _cat(msg), *_segments([len(m) for m in msg]), _cat(msg_sub),
                _cat(sub), *_segments([len(t) for t in sub]),
            )

        self.steps = [step(level) for level in self.levels]
        # All active regions as one batch give the layout of whole arrays.
        (clu, _, _, self.clu_msg, _, self.msg_starts, self.msg_pair, self.msg_sub,
         _, self.sub_starts, self.sub_region) = step(self.act)
        sizes = [hi - lo for lo, hi, _ in self.outer_views.values()]
        self.outer_starts, self.outer_seg = _segments(sizes)
        # A cluster's log table is its potential plus the log downward
        # messages of its subsets in ascending id order.
        self.rebuild_clu = np.concatenate((np.arange(sum(sizes)), clu))
        # 1 / (entries of its table) at each message entry
        self.uniform = 1.0 / np.bincount(self.msg_pair)[self.msg_pair]
        self.pruned = [(b, cont[b][0]) for b in graph.subset_ids if b not in self.sub_views]

    def fits(self, graph, cards, act) -> bool:
        return self.graph is graph and self.cards == tuple(cards) and self.act == tuple(act)

    def start_messages(self, warm):
        """Flat up and down messages: ``warm``'s pair where it has both, else uniform."""
        if warm is None or not self.edge_views:
            return self.uniform.copy(), self.uniform.copy()
        hot = np.array([(a, b) in warm.up and (b, a) in warm.down for a, b in self.edge_views])
        cold = ~hot[self.msg_pair]

        def flat(tabs, key):
            parts = []
            for ((a, b), (lo, hi, shape)), h in zip(self.edge_views.items(), hot):
                t = tabs[key(a, b)] if h else self.uniform[lo:hi].reshape(shape)
                if np.shape(t) != shape:
                    raise ConfigurationError(
                        f"warm message table of (cluster {a}, subset {b}) has shape "
                        f"{np.shape(t)}; the subset's table has shape {shape}"
                    )
                parts.append(np.ravel(t))
            x = _normalized(np.concatenate(parts, dtype=float), self.msg_starts, self.msg_pair)
            x[cold] = self.uniform[cold]
            return x

        return flat(warm.up, lambda a, b: (a, b)), flat(warm.down, lambda a, b: (b, a))

    def cluster_logs(self, pots_flat, down) -> np.ndarray:
        """Cluster log tables rebuilt from the potentials and downward messages."""
        weights = np.concatenate((pots_flat, np.log(down)[self.clu_msg]))
        return np.bincount(self.rebuild_clu, weights=weights)


@dataclass
class MessageSet:
    """Positive message tables keyed (cluster, subset) and (subset, cluster).

    ``plan`` is the sweep plan the tables came from; a warm start from them
    reuses it when it fits the next run.
    """

    up: dict[tuple[int, int], np.ndarray]
    down: dict[tuple[int, int], np.ndarray]
    plan: SweepPlan | None = field(default=None, repr=False, compare=False)


@dataclass
class InnerSettings:
    """Stopping rule of the inner sweep: change tolerance and sweep budget."""

    tol: float = 1e-8
    max_sweeps: int = 2000


def run_gbp(model, graph, c_eff, settings=None, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``converged`` is true only when the largest change of a sweep fell below
    ``settings.tol`` and every returned table is finite.  The returned tables
    are views into arrays of this call alone.
    """
    settings = settings or InnerSettings()
    cards = model.cards
    pots = outer_log_potentials(model, graph)
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

    plan = warm.plan if warm is not None else None
    if plan is None or not plan.fits(graph, cards, act):
        plan = SweepPlan(graph, cards, act)
    pots_flat = np.concatenate([pots[a].ravel() for a in graph.outer_ids])
    up, down = plan.start_messages(warm)
    den = np.asarray(denom)[plan.sub_region]
    acc = np.bincount(plan.msg_sub, weights=np.log(up), minlength=len(den))
    q_sub = _softmax(acc / den, plan.sub_starts, plan.sub_region)
    logacc = plan.cluster_logs(pots_flat, down)

    sweeps = 0
    converged = False
    for sweep in range(1, settings.max_sweeps + 1):
        sweeps = sweep
        prev = q_sub.copy()
        for (
            clu, clu_starts, clu_pair, clu_msg, msg, msg_starts, msg_pair, msg_sub,
            sub, sub_starts, sub_region,
        ) in plan.steps:
            la = logacc[clu]
            marg = np.bincount(
                clu_msg, weights=_softmax(la, clu_starts, clu_pair), minlength=len(msg)
            )
            d_old = down[msg]
            u = _normalized(marg / d_old, msg_starts, msg_pair)
            up[msg] = u
            logq = np.bincount(msg_sub, weights=np.log(u), minlength=len(sub)) / den[sub]
            if damping:
                logq = (1.0 - damping) * logq + damping * np.log(
                    np.maximum(q_sub[sub], LOG_FLOOR)
                )
            q = _softmax(logq, sub_starts, sub_region)
            q_sub[sub] = q
            nd = _normalized(q[msg_sub] / u, msg_starts, msg_pair)
            logacc[clu] = la + (np.log(nd) - np.log(d_old))[clu_msg]
            down[msg] = nd
        delta = float(np.max(np.abs(q_sub - prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweep % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild.
            logacc = plan.cluster_logs(pots_flat, down)
        if delta < settings.tol:
            converged = True
            break

    q_out = _softmax(plan.cluster_logs(pots_flat, down), plan.outer_starts, plan.outer_seg)
    # The pruned tables are marginals of q_out, finite when it is.
    converged = converged and bool(np.isfinite(q_out).all() and np.isfinite(q_sub).all())
    tabs: dict[int, np.ndarray] = {}
    for a, (lo, hi, shape) in plan.outer_views.items():
        tabs[a] = q_out[lo:hi].reshape(shape)
    for b, (lo, hi, shape) in plan.sub_views.items():
        tabs[b] = q_sub[lo:hi].reshape(shape)
    for b, a in plan.pruned:
        t = tabs[a].sum(axis=graph.outside_axes(a, b))
        tabs[b] = t / t.sum()
    ups, downs = {}, {}
    for (a, b), (lo, hi, shape) in plan.edge_views.items():
        ups[(a, b)] = up[lo:hi].reshape(shape)
        downs[(b, a)] = down[lo:hi].reshape(shape)
    return Beliefs(tabs), MessageSet(ups, downs, plan), sweeps, converged


def constraint_residual(graph: RegionGraph, q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs."""
    worst = 0.0
    for p, c in graph.hasse_edges:
        marg = q.tables[p].sum(axis=graph.outside_axes(p, c))
        worst = max(worst, float(np.max(np.abs(marg - q.tables[c]))))
    return worst
