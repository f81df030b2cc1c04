"""Brute-force inference by dense enumeration, for small models only.

Each call builds the joint once, in one array that it normalizes in place,
and reads every marginal off that array: a region inside the first or the
second half of the variable order comes off that half's marginal table, and
only a region straddling both halves is summed from the joint itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FactorModel
from .regions import RegionGraph

STATE_LIMIT = 1 << 22


class OracleLimitError(ValueError):
    """Model too large to enumerate."""


@dataclass
class ExactResult:
    log_z: float
    marginals: dict[int, np.ndarray]


def exact_inference(model: FactorModel, regions=()) -> ExactResult:
    """Enumerate the joint in log space and marginalize onto the regions.

    ``regions`` is either a RegionGraph (marginals keyed by region id) or an
    iterable of variable tuples (keyed by position); each table's axes follow
    ascending variable order.  The log joint is summed into one array, then
    shifted by its maximum, exponentiated and normalized in place, so
    ``log_z`` is that maximum plus the log of the shifted sum.  With
    ``h = n // 2``, two sums of the joint as a ``(prod(cards[:h]), rest)``
    matrix give the marginal tables of the two halves of the variable order.
    Refuses models beyond ``STATE_LIMIT`` joint states.
    """
    cards = model.cards
    states = math.prod(cards)
    if states > STATE_LIMIT:
        raise OracleLimitError(
            f"{states} joint states exceed the enumeration limit of 2**22"
        )
    n = len(cards)
    p = np.zeros(tuple(cards))
    for scope, table in zip(model.scopes, model.tables):
        p += table.reshape(tuple(cards[v] if v in scope else 1 for v in range(n)))
    m = float(p.max())
    p -= m
    np.exp(p, out=p)
    total = float(p.sum())
    p /= total
    log_z = m + float(np.log(total))

    h = n // 2
    matrix = p.reshape(math.prod(cards[:h]), -1)
    sources = (
        (range(h), matrix.sum(axis=1).reshape(cards[:h])),
        (range(h, n), matrix.sum(axis=0).reshape(cards[h:])),
        (range(n), p),
    )
    if isinstance(regions, RegionGraph):
        items = [(r.id, r.vars) for r in regions.regions]
    else:
        items = [(k, tuple(v)) for k, v in enumerate(regions)]
    tabs = {}
    for key, vars_ in items:
        span, table = next((s, t) for s, t in sources if all(v in s for v in vars_))
        tabs[key] = table.sum(axis=tuple(i for i, v in enumerate(span) if v not in vars_))
    return ExactResult(log_z, tabs)
