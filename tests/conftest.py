"""Shared model builders and message draws for the test suite."""
from __future__ import annotations

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


def random_messages(plan, rng):
    """Warm messages on ``plan``: Gamma(1) tables, normalized, as flat logs."""

    def draw():
        x = np.log(rng.gamma(1.0, size=len(plan.msg_pair)))
        return x - np.log(np.add.reduceat(np.exp(x), plan.msg_starts))[plan.msg_pair]

    return MessageSet(plan, draw(), draw())
