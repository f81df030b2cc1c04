"""Shared model builders, belief and message draws, message and cluster-table
views and a reference free energy for the test suite."""
from __future__ import annotations

from itertools import combinations, count

import numpy as np

from kikuchi import Beliefs, FactorModel, MessageSet, outer_log_potentials


def pairwise_model(n, edges, rng, scale=1.0, cards=None):
    """Random pairwise log-potential model over the given edges."""
    cards = [2] * n if cards is None else list(cards)
    edges = [tuple(sorted(e)) for e in edges]
    tables = [
        rng.normal(0.0, scale, size=(cards[i], cards[j])) for i, j in edges
    ]
    return FactorModel(cards, edges, tables)


def chain_model(n, seed, scale=1.0, cards=None):
    rng = np.random.default_rng(seed)
    return pairwise_model(n, [(i, i + 1) for i in range(n - 1)], rng, scale, cards)


def cycle_model(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return pairwise_model(n, [(i, (i + 1) % n) for i in range(n)], rng, scale)


def random_tree_model(n, seed, scale=1.0):
    """Random spanning tree: each node beyond the first attaches to an earlier one."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return pairwise_model(n, edges, rng, scale)


def k4_model(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return pairwise_model(4, edges, rng, scale)


def two_cycles_sharing_edge_model(seed, scale=1.0):
    """Two triangles glued along the edge (1, 2)."""
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    return pairwise_model(4, edges, rng, scale)


def same_model(a, b):
    """Whether two models have the same cards, scopes and tables, bit for bit."""
    return (
        a.cards == b.cards
        and a.scopes == b.scopes
        and all(np.array_equal(s, t) for s, t in zip(a.tables, b.tables))
    )


def beliefs_from_tables(layout, tables):
    """Beliefs on ``layout`` from positive, normalized tables keyed by region id."""
    probs = np.empty(layout.size)
    for rid, (lo, hi, _) in layout.views.items():
        probs[lo:hi] = tables[rid].ravel()
    return Beliefs(layout, np.log(probs))


MAX_JOINT_SAMPLER = 1 << 16


def random_consistent_beliefs(graph, cards, rng, components=3):
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
        return beliefs_from_tables(graph.layout(cards), tabs)

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
    return beliefs_from_tables(graph.layout(cards), tabs)


def random_messages(layout, rng):
    """Warm messages on ``layout``: Gamma(1) tables, normalized, as flat logs."""
    starts, pair = layout.message_segments

    def draw():
        x = np.log(rng.gamma(1.0, size=len(pair)))
        return x - np.log(np.add.reduceat(np.exp(x), starts))[pair]

    return MessageSet(layout, draw(), draw())


def message_tables(msgs):
    """(up, down): the tables of ``msgs`` keyed (cluster, subset) and (subset, cluster)."""
    up, down = (np.exp(logs) for logs in msgs.logs)
    views = msgs.layout.edge_views.items()
    return (
        {(a, b): up[lo:hi].reshape(shape) for (a, b), (lo, hi, shape) in views},
        {(b, a): down[lo:hi].reshape(shape) for (a, b), (lo, hi, shape) in views},
    )


def assert_greedy_colouring(graph, levels):
    """``levels`` are the greedy colours of ``graph``'s subsets, one level per colour.

    No level holds two subsets that share a cluster; each subset's level is
    the lowest that no lower-id subset sharing a cluster with it holds; and
    within a level the subsets are in ascending id.
    """
    colour = {b: i for i, level in enumerate(levels) for b in level}
    assert sorted(b for level in levels for b in level) == sorted(colour) == sorted(graph.subset_ids)
    cont = {b: set(graph.containing_outers[b]) for b in graph.subset_ids}
    for level in levels:
        assert level and list(level) == sorted(level)
        assert all(not cont[b] & cont[b2] for b, b2 in combinations(level, 2))
    for b in graph.subset_ids:
        held = {colour[b2] for b2 in graph.subset_ids if b2 < b and cont[b] & cont[b2]}
        assert colour[b] == next(c for c in count() if c not in held), b


def cluster_tables(model, graph):
    """``outer_log_potentials(model, graph)`` as one log table per outer
    cluster, keyed by id: views of its flat ``logs``."""
    pots = outer_log_potentials(model, graph)
    return {a: pots.logs[lo:hi].reshape(shape)
            for a in graph.outer_ids for lo, hi, shape in [pots.layout.views[a]]}


def _xlogy(t, a):
    return float((t * np.log(np.maximum(a, 1e-300))).sum())


def dict_free_energy(g, m, q, kept=None, anchor=None):
    """The counted energy/entropy sum, table by table, with floored logs."""
    pots = cluster_tables(m, g)
    counts = g.subset_overcounts()
    kept = counts if kept is None else kept
    total = sum(-float((q.tables[a] * pots[a]).sum()) + _xlogy(q.tables[a], q.tables[a])
                for a in g.outer_ids)
    for b in g.subset_ids:
        t, ct = q.tables[b], kept.get(b, counts[b])
        total += ct * _xlogy(t, t)
        if anchor is not None:
            total += (counts[b] - ct) * _xlogy(t, anchor.tables[b])
    return total
