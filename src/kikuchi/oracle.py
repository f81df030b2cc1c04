"""Exact inference by calibrating one junction tree.

The moral graph of the factor scopes, with every requested region's
variables joined into a clique as well, is triangulated by a min-fill
elimination order, ties broken by variable id.  Each variable's elimination
clique (the variable and its neighbours when it is eliminated) is a node of a
junction forest, parented at the clique of its earliest-eliminated separator
variable; a clique with an empty separator is a root.  A factor, and a
region, lies inside the clique of its first-eliminated variable.  One upward
and one downward pass of Shafer–Shenoy messages calibrate the forest, and
each region's marginal is read off its clique.  The reach is bounded by the
largest clique table, not by the number of joint states.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import FactorModel
from .regions import RegionGraph

CLIQUE_LIMIT = 1 << 22


class OracleLimitError(ValueError):
    """Model beyond the oracle's reach."""


@dataclass
class ExactResult:
    log_z: float
    marginals: dict[int, np.ndarray]


def _min_fill_cliques(n, varsets):
    """Each variable's elimination clique, in min-fill order (ties by id).

    ``varsets`` are joined into cliques of the graph first.  Returns a list
    of ``(v, separator)`` pairs, one per eliminated variable ``v``, where
    ``separator`` is the set of ``v``'s neighbours when it is eliminated.
    """
    nbrs = [set() for _ in range(n)]
    for vs in varsets:
        for v in vs:
            nbrs[v].update(vs)
    for v in range(n):
        nbrs[v].discard(v)

    def fill(v):
        ns = list(nbrs[v])
        return sum(b not in nbrs[a] for i, a in enumerate(ns) for b in ns[i + 1:])

    score = {v: fill(v) for v in range(n)}
    heap = [(f, v) for v, f in score.items()]
    heapq.heapify(heap)
    out = []
    while heap:
        f, v = heapq.heappop(heap)
        if score.get(v) != f:
            continue  # eliminated, or its score has changed since this push
        del score[v]
        sep = nbrs[v]
        out.append((v, sep))
        touched = set(sep)
        for a in sep:
            nbrs[a] |= sep
            nbrs[a] -= {a, v}
            touched |= nbrs[a]
        for u in touched & score.keys():
            score[u] = fill(u)
            heapq.heappush(heap, (score[u], u))
    return out


def exact_inference(model: FactorModel, regions=()) -> ExactResult:
    """Partition function and exact marginals by junction-tree calibration.

    ``regions`` is either a RegionGraph (marginals keyed by region id) or an
    iterable of variable tuples (keyed by position); each table's axes follow
    ascending variable order, and an empty region gets ``1.0``.  Each
    clique's log potential, the sum of the factors assigned to it, is shifted
    by its maximum and exponentiated.  The upward pass runs in elimination
    order and the downward pass in reverse, each message the product of the
    clique potential and the clique's other incoming messages, summed onto
    the separator and normalized.  ``log_z`` is the sum of the shifts and of
    the logs of the upward normalizers (a root's is the forest component's
    total).  Raises ``OracleLimitError`` before allocating any table when the
    largest clique table exceeds ``CLIQUE_LIMIT`` entries, and when a
    message sums to zero: hard zeros that leave no state with nonzero
    probability.
    """
    cards = model.cards
    if isinstance(regions, RegionGraph):
        regions = ((r.id, r.vars) for r in regions.regions)
    else:
        regions = enumerate(regions)
    items = [(k, sorted({int(v) for v in vs})) for k, vs in regions]

    elim = _min_fill_cliques(len(cards), [*model.scopes, *(vs for _, vs in items)])
    pos = {v: i for i, (v, _) in enumerate(elim)}
    cliques = [sorted(sep | {v}) for v, sep in elim]
    seps = [sorted(sep) for _, sep in elim]
    size = max((math.prod(cards[u] for u in c) for c in cliques), default=1)
    if size > CLIQUE_LIMIT:
        raise OracleLimitError(
            f"the largest clique table has {size} entries, beyond the limit of 2**22"
        )
    parent = [min(pos[u] for u in s) if s else None for s in seps]
    children = [[] for _ in cliques]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)

    # Clique log potentials, shifted by their maxima and exponentiated in place.
    log_z = 0.0
    pots = [np.zeros(tuple(cards[u] for u in c)) for c in cliques]
    for scope, table in zip(model.scopes, model.tables):
        c = min(pos[u] for u in scope)
        pots[c] += table.reshape(tuple(cards[u] if u in scope else 1 for u in cliques[c]))
    for t in pots:
        m = float(t.max())
        log_z += m
        t -= m
        np.exp(t, out=t)

    up, down = [None] * len(cliques), [None] * len(cliques)

    def labels(i, vars_):
        return [cliques[i].index(u) for u in vars_]

    def product(i, skip, out):
        """Sum onto ``out`` of clique ``i``'s potential times its incoming
        messages, all but the one from clique ``skip``."""
        ops = [pots[i], list(range(len(cliques[i])))]
        if parent[i] is not None and parent[i] != skip:
            ops += [down[i], labels(i, seps[i])]
        for c in children[i]:
            if c != skip:
                ops += [up[c], labels(i, seps[c])]
        t = np.einsum(*ops, labels(i, out))
        total = float(t.sum())
        if not total > 0.0:
            raise OracleLimitError(
                "every joint state has probability zero: the clique products underflow"
            )
        return t / total, total

    for i in range(len(cliques)):
        up[i], total = product(i, parent[i], seps[i])
        log_z += math.log(total)
    for i in reversed(range(len(cliques))):
        if parent[i] is not None:
            down[i] = product(parent[i], i, seps[i])[0]

    tabs = {}
    for key, vs in items:
        tabs[key] = product(min(pos[u] for u in vs), None, vs)[0] if vs else np.ones(())
    return ExactResult(log_z, tabs)
