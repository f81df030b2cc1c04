"""Shared model builders, message draws and message views for the test suite."""
from __future__ import annotations

from itertools import combinations, count

import numpy as np

from kikuchi import FactorModel, MessageSet


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
