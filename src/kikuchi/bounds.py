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
down and up flows.  The arcs come from the region graph's containment map
(``RegionGraph.supersets``), never from an all-pairs test, and the
augmenting-path search visits nodes in ascending index order, so the same
graph always yields the same witness.

Variants differ in which subset entropies keep their exact (possibly concave)
term and which are linearized around the anchor:

  none   keep everything (valid only when the graph is convex as given)
  conv1  linearize every negative subset term
  conv2  linearize every subset term, positive ones included
  conv3  keep as much negative mass as an allocation can certify, then spend
         leftover positive mass to sharpen the linearized remainder
  cccp   keep one unit of entropy per negative subset and linearize the rest

``inner_potentials(base, spec, anchor)`` folds a spec's linearized terms
into ``base``, the ``ClusterPotentials`` that ``ClusterPotentials.of(model,
graph)`` lays out once per run; the graph and the cards come off its layout,
and the fold is the layout's one scatter into the clusters
(``Layout.into_clusters``), the same one the inner sweep rebuilds its
cluster tables with.
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
    witness: Allocation | None = None


def _max_flow(supply, demand, arcs):
    """Deterministic max flow on a bipartite donor/receiver network.

    ``supply`` and ``demand`` are lists of (region id, capacity); ``arcs`` lists
    the (donor id, receiver id) pairs that may carry flow, read off the
    containment map ``RegionGraph.supersets``.  Nodes are numbered source, sink,
    donors by id, receivers by id; each adjacency list is sorted once, and the
    breadth-first search visits neighbours in ascending node index and stops as
    soon as the sink's parent is known.  So the augmenting paths, and with them
    the flow on every arc, depend only on the network, which keeps witnesses
    and conv3 counts reproducible.  Returns (total flow, {(donor, receiver):
    flow}), its keys in ascending (donor, receiver) order.
    """
    supply = sorted(supply)
    demand = sorted(demand)
    arcs = sorted(arcs)
    source, sink = 0, 1
    s_node = {gid: 2 + i for i, (gid, _) in enumerate(supply)}
    d_node = {bid: 2 + len(supply) + j for j, (bid, _) in enumerate(demand)}
    size = 2 + len(supply) + len(demand)
    cap = [dict() for _ in range(size)]
    big = sum(c for _, c in supply) + sum(c for _, c in demand) + 1.0

    def link(u, v, c):
        cap[u][v] = c
        cap[v][u] = 0.0

    for gid, c in supply:
        link(source, s_node[gid], float(c))
    for bid, c in demand:
        link(d_node[bid], sink, float(c))
    for gid, bid in arcs:
        link(s_node[gid], d_node[bid], big)
    adj = [sorted(c) for c in cap]

    eps = FLOW_TOL * 1e-3
    # Every search starts as the source's scan leaves it: each donor the source
    # still feeds labelled, queued in index order.  A source arc only closes
    # when an augmenting path saturates it.
    fed = [v for v in adj[source] if cap[source][v] > eps]
    root = [-1] * size
    for v in [source] + fed:
        root[v] = source
    total = 0.0
    while True:
        prev = root[:]
        queue = deque(fed)
        while queue and prev[sink] < 0:
            u = queue.popleft()
            cap_u = cap[u]
            for v in adj[u]:
                if prev[v] < 0 and cap_u[v] > eps:
                    prev[v] = u
                    queue.append(v)
                    # The first labelled node with a residual arc into the sink
                    # is the first dequeued one: it labels the sink.
                    if cap[v].get(sink, 0.0) > eps:
                        prev[sink] = v
                        break
        if prev[sink] < 0:
            break
        bottleneck = big
        v = sink
        while v != source:
            u = prev[v]
            bottleneck = min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = prev[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            if u == source and cap[u][v] <= eps:
                fed.remove(v)
                root[v] = -1
            v = u
        total += bottleneck

    flows = {}
    for gid, bid in arcs:
        f = cap[d_node[bid]][s_node[gid]]
        if f > eps:
            flows[(gid, bid)] = f
    return total, flows


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
        witness = check_conv2_bound(graph)
        if witness is None:
            raise ConvexityError(
                "conv2 is not a certified bound on this region graph "
                "(a positive subset region is not covered by negative ones); "
                "use conv1 instead"
            )
        return BoundSpec(variant, {b: 0.0 for b in counts}, witness=witness)

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
    return BoundSpec(variant, ct, witness=witness)


def inner_potentials(base: ClusterPotentials, spec: BoundSpec, anchor) -> ClusterPotentials:
    """Fold the linearized entropy terms into the outer log potentials.

    Each subset region whose entropy is (partially) linearized contributes the
    anchor's log table, split evenly across the outer clusters containing it:
    ``base.layout.into_clusters``, with each subset's share at every entry
    group of ``cluster_sums``, subsets in layout order.  The result is new
    ``ClusterPotentials`` on that layout and ``base`` is untouched.  The
    anchor must lie on the same layout.
    """
    layout = base.layout
    _, logs = anchor.flat(layout)
    gap = layout.overcounts - layout.kept_counts(spec.inner_overcounts)
    share = (gap / layout.outer_counts)[layout.seg] * logs
    pots = layout.into_clusters(base.logs, -share[layout.cluster_sums[3]])
    meta = dict(base.meta)
    meta["inner_variant"] = spec.variant
    return ClusterPotentials(layout, pots, meta)
