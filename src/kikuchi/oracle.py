"""Exact inference by calibrating one junction tree in the log domain.

The moral graph of the factor scopes, with every requested region (a
variable tuple) joined into a clique as well, is triangulated by a min-fill
elimination order, ties broken by variable id.  Each variable's elimination
clique (the variable and its neighbours when it is eliminated) is a node of a
junction forest, parented at the clique of its earliest-eliminated separator
variable; a clique with an empty separator is a root.  A factor, and a
region, lies inside the clique of its first-eliminated variable.  One upward
and one downward pass of Shafer–Shenoy messages calibrate the forest, all in
the log domain, and each region's marginal is read off its clique.  The reach
is bounded by the largest clique table, not by the number of joint states.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import FactorModel
from .regions import _is_integer

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

    ``regions`` is an iterable of variable tuples, and the marginals are
    keyed by position, so ``[r.vars for r in graph.regions]`` keys a built
    graph's by region id; each table's axes follow ascending variable order,
    and an empty region gets ``1.0``.  A clique's log potential sums the
    factors assigned to it, less its maximum: the entries that carry the
    mass then lie near zero, where rounding is finest.  The upward pass runs
    in elimination order and the downward pass in reverse, each log message
    the clique's log potential plus its other incoming log messages,
    log-sum-exp'd onto the separator and normalized.  ``log_z`` sums those
    maxima and the upward log normalizers (a root's is its forest
    component's total).  Before any table is allocated, it refuses a region
    holding a variable that is no integer (a ``bool`` included) or lies
    outside the model (``ValueError``), and a clique table over
    ``CLIQUE_LIMIT`` entries (``OracleLimitError``).
    """
    cards = model.cards
    items = [(k, tuple(vs)) for k, vs in enumerate(regions)]
    odd = [(k, v) for k, vs in items for v in vs if not _is_integer(v)]
    if odd:
        raise ValueError("region {}: variable {!r} is not an integer".format(*odd[0]))
    items = [(k, sorted({int(v) for v in vs})) for k, vs in items]
    outside = [(k, v) for k, vs in items for v in vs if not 0 <= v < len(cards)]
    if outside:
        raise ValueError("region {}: variable {} is outside the model's {} variables".format(*outside[0], len(cards)))

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

    def onto(i, vars_):  # the shape of a table over vars_ on clique i's axes
        return tuple(cards[u] if u in vars_ else 1 for u in cliques[i])

    pots = [np.zeros(tuple(cards[u] for u in c)) for c in cliques]
    for scope, table in zip(model.scopes, model.tables):
        c = min(pos[u] for u in scope)
        pots[c] += table.reshape(onto(c, scope))
    shifts = [float(t.max()) for t in pots]
    for t, top in zip(pots, shifts):
        t -= top

    up, down, norms = ([None] * len(cliques) for _ in range(3))

    def product(i, skip, out):
        """Log-sum-exp onto ``out`` of clique ``i``'s log potential plus every log
        message into it but ``skip``'s, normalized, and its log normalizer."""
        t = pots[i].copy()
        if parent[i] is not None and parent[i] != skip:
            t += down[i].reshape(onto(i, seps[i]))
        for c in children[i]:
            if c != skip:
                t += up[c].reshape(onto(i, seps[c]))
        axes = tuple(a for a, u in enumerate(cliques[i]) if u not in out)
        top = t.max(axis=axes, keepdims=True)
        t -= top
        np.exp(t, out=t)
        s = np.log(t.sum(axis=axes))
        s += top.reshape(s.shape)
        norm = float(np.logaddexp.reduce(s, axis=None))
        s -= norm
        return s, norm

    for i in range(len(cliques)):
        up[i], norms[i] = product(i, parent[i], seps[i])
    for i in reversed(range(len(cliques))):
        if parent[i] is not None:
            down[i] = product(parent[i], i, seps[i])[0]

    tabs = {}
    for key, vs in items:
        tabs[key] = np.exp(product(min(pos[u] for u in vs), None, vs)[0]) if vs else np.ones(())
    return ExactResult(math.fsum(norms + shifts), tabs)
