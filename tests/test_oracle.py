"""Enumeration oracle: partition function and exact marginals."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    FactorModel,
    OracleLimitError,
    build_bethe,
    exact_inference,
)
from conftest import chain_model


def test_two_variable_model_by_hand():
    t = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
    m = FactorModel([2, 2], [(0, 1)], [t])
    res = exact_inference(m, regions=[(0,), (1,), (0, 1)])
    assert abs(res.log_z - math.log(10.0)) < 1e-12
    assert np.allclose(res.marginals[0], [0.3, 0.7])
    assert np.allclose(res.marginals[1], [0.4, 0.6])
    assert np.allclose(res.marginals[2], np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_independent_factors_product_form():
    rng = np.random.default_rng(3)
    logits = [rng.normal(size=2) for _ in range(3)]
    m = FactorModel([2, 2, 2], [(0,), (1,), (2,)], logits)
    res = exact_inference(m, regions=[(v,) for v in range(3)])
    for v in range(3):
        p = np.exp(logits[v])
        p /= p.sum()
        assert np.allclose(res.marginals[v], p)
    assert abs(res.log_z - sum(np.log(np.exp(l).sum()) for l in logits)) < 1e-12


def test_region_graph_keying():
    m = chain_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    res = exact_inference(m, g)
    assert set(res.marginals) == {r.id for r in g.regions}
    for r in g.regions:
        assert res.marginals[r.id].shape == tuple(
            m.cards[v] for v in r.vars
        )
        assert abs(res.marginals[r.id].sum() - 1.0) < 1e-12


def test_oracle_refuses_large_models():
    n = 23
    m = FactorModel(
        [2] * n, [(v,) for v in range(n)], [np.zeros(2) for _ in range(n)]
    )
    with pytest.raises(OracleLimitError, match="2\\*\\*22"):
        exact_inference(m)


def test_log_z_shift_stability():
    m = FactorModel([2], [(0,)], [np.array([700.0, 710.0])])
    res = exact_inference(m, regions=[(0,)])
    assert math.isfinite(res.log_z)
    assert abs(res.log_z - (710.0 + math.log(1.0 + math.exp(-10.0)))) < 1e-9


def _reference(model, regions):
    """log Z and each region's marginal in ascending variable order, by one
    pass over the states."""
    states = list(product(*(range(c) for c in model.cards)))
    logw = [
        sum(t[tuple(x[v] for v in scope)] for scope, t in zip(model.scopes, model.tables))
        for x in states
    ]
    top = max(logw)
    w = [math.exp(lw - top) for lw in logw]
    z = math.fsum(w)
    tabs = [np.zeros(tuple(model.cards[v] for v in sorted(r))) for r in regions]
    for x, wx in zip(states, w):
        for tab, r in zip(tabs, regions):
            tab[tuple(x[v] for v in sorted(r))] += wx / z
    return top + math.log(z), tabs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cards=st.lists(st.integers(2, 3), min_size=1, max_size=7),
    seed=st.integers(0, 2**16),
)
@example(cards=[3], seed=0)  # the first half is empty
@example(cards=[2, 3], seed=1)
def test_matches_per_state_enumeration(cards, seed):
    rng = np.random.default_rng(seed)
    n = len(cards)
    scopes = sorted({
        tuple(sorted(rng.choice(n, size=rng.integers(1, min(n, 3) + 1), replace=False)))
        for _ in range(rng.integers(1, 6))
    })
    tables = [rng.normal(scale=2.0, size=tuple(cards[v] for v in s)) for s in scopes]
    m = FactorModel(cards, scopes, tables)

    # Regions of every kind: empty, one variable, inside the first half,
    # inside the second half, straddling both, and the full scope; their
    # variables come in shuffled order.
    h = n // 2
    first, second = list(range(h)), list(range(h, n))
    regions = [(), tuple(range(n))] + [(v,) for v in range(n)]
    for half in (first, second):
        if half:
            regions.append(tuple(rng.choice(half, size=rng.integers(1, len(half) + 1), replace=False)))
    if first:
        regions.append((int(rng.choice(first)), int(rng.choice(second))) + tuple(
            rng.choice(n, size=rng.integers(0, n + 1), replace=False)))
    regions = [tuple(rng.permutation(sorted({int(v) for v in r}))) for r in regions]

    res = exact_inference(m, regions=regions)
    log_z, tabs = _reference(m, regions)
    assert abs(res.log_z - log_z) <= 1e-12
    for k, want in enumerate(tabs):
        got = np.asarray(res.marginals[k])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
