"""Bound construction for the double loop.

The inner problem must be convex over the consistency constraints.  That holds
whenever the negative subset-entropy mass can be charged against positive
entropy mass sitting on containing regions: an allocation matrix with

  1. support only on containment pairs (donor strictly contains receiver),
  2. nonnegative entries,
  3. row sums at most the donor's overcounting number,
  4. column sums at least the magnitude of the receiver's negative number.

Existence is decided by a max-flow: donors feed receivers through admissible
arcs, and feasibility means the flow saturates the total receiver demand.  One
allocation routine serves all four networks: the two certificates and conv3's
down and up flows.  The flow runs on that bipartite network itself, with no
source or sink: its residual state is each donor's supply left, each
receiver's demand left and each arc's flow.  The arcs come from the region
graph's containment map (``RegionGraph.supersets``), never from an all-pairs
test, and the augmenting-path search visits donors, then receivers, in
ascending id order, so the same graph always yields the same witness; as
supply and demand only fall, one direct pass takes its first augmentations.

Variants differ in which subset entropies keep their exact (possibly concave)
term and which are linearized around the anchor:

  none   keep everything (valid only when the graph is convex as given)
  conv1  linearize every negative subset term
  conv2  linearize every subset term, positive ones included
  conv3  keep as much negative mass as an allocation can certify, then spend
         leftover positive mass to sharpen the linearized remainder
  cccp   keep one unit of entropy per negative subset and linearize the rest

``inner_potentials(base, subset_counts, anchor)`` folds the terms that a
count map, such as a spec's ``inner_overcounts``, linearizes into ``base``,
the ``ClusterPotentials`` that ``model.outer_log_potentials`` lays out once
per run; the graph and the cards come off its layout, and the fold
is the layout's one scatter into the clusters (``Layout.into_clusters``),
the same one the inner sweep rebuilds its cluster tables with.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import ClusterPotentials
from .regions import RegionGraph

FLOW_TOL = 1e-9

VARIANTS = ("none", "conv1", "conv2", "conv3", "cccp")


class ConvexityError(ValueError):
    """A requested bound cannot be certified for this region graph."""


@dataclass
class Allocation:
    """Sparse nonnegative allocation on containment pairs (donor, receiver)."""

    entries: dict[tuple[int, int], float]


@dataclass
class BoundSpec:
    variant: str
    inner_overcounts: dict[int, float]


def _max_flow(supply, demand, arcs):
    """Deterministic max flow on the bipartite donor/receiver network itself.

    ``supply`` and ``demand`` are lists of (region id, capacity); ``arcs`` lists
    the (donor id, receiver id) pairs that may carry flow, read off the
    containment map ``RegionGraph.supersets``.  An arc carries any amount, so
    the residual network is each donor's supply left, each receiver's demand
    left and each arc's flow.  Nodes are numbered donors by id, then receivers
    by id, each with one sorted adjacency list.  Every breadth-first search
    starts from the donors with supply left, in index order; it takes an arc
    forward from a donor, backward from a receiver while the arc's flow is
    above a tolerance, visits neighbours in ascending index, and stops at the
    first labelled receiver with demand left.  So the augmenting paths, and
    with them the flow on every arc, depend only on the network, which keeps
    witnesses and conv3 counts reproducible.  A search ends at the first fed
    donor with a receiver whose demand is left, at its first such receiver; as
    supply and demand only fall, a donor without one never gets one again.  So
    one direct pass, donors in order, each to its receivers in order, makes
    the searches' first augmentations in linear time.  Returns (total flow,
    {(donor, receiver): flow}), its keys in ascending (donor, receiver) order.
    """
    supply = sorted(supply)
    demand = sorted(demand)
    ns = len(supply)
    donor = {gid: i for i, (gid, _) in enumerate(supply)}
    receiver = {bid: ns + j for j, (bid, _) in enumerate(demand)}
    # Supply left per donor, then demand left per receiver.
    left = [float(c) for _, c in supply] + [float(c) for _, c in demand]
    adj = [[] for _ in left]
    flow = {}
    for gid, bid in sorted(arcs):
        u, v = donor[gid], receiver[bid]
        adj[u].append(v)
        adj[v].append(u)
        flow[u, v] = 0.0

    eps = FLOW_TOL * 1e-3
    total = 0.0
    # The direct pass: the searches' own first augmentations, in their order.
    for u in range(ns):
        for v in adj[u]:
            if left[u] > eps and left[v] > eps:
                b = min(left[v], left[u])
                flow[u, v] += b
                left[v] -= b
                left[u] -= b
                total += b
    # A fed donor is labelled as its own parent; it stays fed until an
    # augmenting path spends its supply.
    fed = [u for u in range(ns) if left[u] > eps]
    while True:
        prev = {u: u for u in fed}
        queue = deque(fed)
        end = -1
        while queue and end < 0:
            u = queue.popleft()
            for v in adj[u]:
                if v not in prev and (u < ns or flow[v, u] > eps):
                    prev[v] = u
                    queue.append(v)
                    if v >= ns and left[v] > eps:
                        end = v
                        break
        if end < 0:
            break
        path = [end]
        while prev[path[-1]] != path[-1]:
            path.append(prev[path[-1]])
        start = path[-1]
        # The path runs end receiver, donor, receiver, ..., fed donor.  Forward
        # arcs never bind: the end's demand, the fed donor's supply and the
        # flows the path sends back do.
        back = list(zip(path[1::2], path[2::2]))
        bottleneck = min([left[end], left[start]] + [flow[a] for a in back])
        for a in zip(path[1::2], path[::2]):
            flow[a] += bottleneck
        for a in back:
            flow[a] -= bottleneck
        left[end] -= bottleneck
        left[start] -= bottleneck
        if left[start] <= eps:
            fed.remove(start)
        total += bottleneck

    return total, {(supply[u][0], demand[v - ns][0]): f for (u, v), f in flow.items() if f > eps}


def _allocate(graph, supply, demand, up=False):
    """Charge ``demand`` to ``supply`` by a max flow over containment arcs.

    A donor feeds each receiver it strictly contains, or with ``up`` each
    receiver strictly containing it; the arcs are read off
    ``graph.supersets``.  No flow runs when the demand is within ``FLOW_TOL``
    or there is no supply.  Returns the allocation and whether it saturates
    the demand.
    """
    need = sum(c for _, c in demand)
    if need <= FLOW_TOL or not supply:
        return Allocation({}), need <= FLOW_TOL
    if up:
        receivers = {b for b, _ in demand}
        arcs = [(g, b) for g, _ in supply for b in graph.supersets[g] if b in receivers]
    else:
        donors = {g for g, _ in supply}
        arcs = [(g, b) for b, _ in demand for g in graph.supersets[b] if g in donors]
    total, flows = _max_flow(supply, demand, arcs)
    return Allocation(flows), total >= need - FLOW_TOL


def check_convex_over_constraints(graph, counts) -> Allocation | None:
    """Certify convexity over the constraint set of a counted entropy sum.

    ``counts`` maps region id to its (effective) overcounting number.  Returns
    a witness allocation when the negative mass can be fully charged to
    containing positive regions, else None.
    """
    supply = [(rid, c) for rid, c in counts.items() if c > FLOW_TOL]
    demand = [(rid, -c) for rid, c in counts.items() if c < -FLOW_TOL]
    witness, saturated = _allocate(graph, supply, demand)
    return witness if saturated else None


def check_conv2_bound(graph) -> Allocation | None:
    """Certify that linearizing positive subset terms still upper-bounds.

    Each positive subset region must be coverable by negative regions that
    contain it: linearizing a concave superset term absorbs the linearization
    of a convex subset term.  Returns the covering allocation or None.
    """
    counts = graph.subset_overcounts()
    supply = [(b, -counts[b]) for b in graph.neg_ids]
    demand = [(b, counts[b]) for b in graph.pos_ids]
    witness, saturated = _allocate(graph, supply, demand)
    return witness if saturated else None


def make_bound_spec(graph: RegionGraph, variant: str) -> BoundSpec:
    """Choose how much of each subset entropy the inner loop keeps exact."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}; pick from {VARIANTS}")
    counts = graph.subset_overcounts()

    if variant == "none":
        return BoundSpec(variant, dict(counts))
    if variant == "conv1":
        return BoundSpec(variant, {b: max(c, 0.0) for b, c in counts.items()})
    if variant == "cccp":
        return BoundSpec(
            variant, {b: (1.0 if c < 0 else c) for b, c in counts.items()}
        )
    if variant == "conv2":
        if check_conv2_bound(graph) is None:
            raise ConvexityError(
                "conv2 is not a certified bound on this region graph "
                "(a positive subset region is not covered by negative ones); "
                "use conv1 instead"
            )
        return BoundSpec(variant, {b: 0.0 for b in counts})

    # conv3: keep as much negative mass as remains convex over the constraints.
    supply = [(g, c) for g, c in graph.counts.items() if c > FLOW_TOL]
    demand = [(b, -counts[b]) for b in graph.neg_ids]
    witness, _ = _allocate(graph, supply, demand)
    ct = {b: max(c, 0.0) for b, c in counts.items()}
    used = dict.fromkeys(graph.pos_ids, 0.0)
    for (g, b), f in witness.entries.items():
        ct[b] -= f
        if g in used:
            used[g] += f

    # Spend leftover positive subset mass on the linearized negative remainder:
    # a positive region sharpens the bound only inside a region it is part of.
    supply = [(g, counts[g] - used[g]) for g in graph.pos_ids if counts[g] - used[g] > FLOW_TOL]
    demand = [(b, ct[b] - counts[b]) for b in graph.neg_ids if ct[b] - counts[b] > FLOW_TOL]
    spent, _ = _allocate(graph, supply, demand, up=True)
    for (g, b), f in spent.entries.items():
        ct[g] -= f

    for b in graph.neg_ids:
        ct[b] = min(ct[b], 0.0)
        ct[b] = max(ct[b], counts[b])
    for b in graph.pos_ids:
        ct[b] = min(max(ct[b], 0.0), counts[b])
    return BoundSpec(variant, ct)


def inner_potentials(base: ClusterPotentials, subset_counts, anchor) -> ClusterPotentials:
    """Fold the linearized entropy terms into the outer log potentials.

    ``subset_counts`` is read as ``free_energy`` reads it.  Each subset
    region whose entropy is (partially) linearized contributes the anchor's
    log table, split evenly across the outer clusters containing it:
    ``base.layout.into_clusters``, with each subset's share at every entry
    group of ``cluster_sums``, subsets in layout order.  The result is new
    ``ClusterPotentials`` on that layout and ``base`` is untouched.  The
    anchor must lie on the same layout.
    """
    layout = base.layout
    _, logs = anchor.flat(layout)
    gap = layout.overcounts - layout.kept_counts(subset_counts)
    share = (gap / layout.outer_counts)[layout.seg] * logs
    pots = layout.into_clusters(base.logs, -share[layout.cluster_sums[3]])
    return ClusterPotentials(layout, pots, base.meta)
