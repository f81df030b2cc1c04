"""Junction-tree oracle: partition function and exact marginals, checked
against per-state enumeration and closed forms."""
from __future__ import annotations

import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    CLAMP_LOG,
    FactorModel,
    ModelSpec,
    OracleLimitError,
    build_bethe,
    exact_inference,
    generate,
)
from conftest import chain_model

# A floating-point warning anywhere in the oracle fails its test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def test_regions_are_keyed_by_position():
    # Regions are variable tuples only; a built graph's regions, in order,
    # are keyed by their positions, which are their ids.
    m = chain_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    res = exact_inference(m, [r.vars for r in g.regions])
    assert set(res.marginals) == set(range(len(g.regions)))
    for k, r in enumerate(g.regions):
        assert r.id == k
        assert res.marginals[k].shape == tuple(
            m.cards[v] for v in r.vars
        )
        assert abs(res.marginals[k].sum() - 1.0) < 1e-12
    with pytest.raises(TypeError):
        exact_inference(m, g)


def test_oracle_refuses_large_models():
    # The limit is on the largest clique table, not on the joint: 23
    # independent variables (2**23 joint states) solve in product form, and
    # a fully pairwise model over the same variables, whose one clique holds
    # 2**23 entries, is refused before any table is allocated.
    n = 23
    rng = np.random.default_rng(0)
    logits = [rng.normal(size=2) for _ in range(n)]
    m = FactorModel([2] * n, [(v,) for v in range(n)], logits)
    res = exact_inference(m, regions=[(v,) for v in range(n)])
    for v in range(n):
        assert np.allclose(res.marginals[v], np.exp(logits[v]) / np.exp(logits[v]).sum(),
                           rtol=0.0, atol=1e-15)
    assert abs(res.log_z - sum(np.logaddexp(*l) for l in logits)) < 1e-12

    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = FactorModel([2] * n, edges, [np.zeros((2, 2)) for _ in edges])
    tracemalloc.start()
    try:
        with pytest.raises(OracleLimitError, match="8388608 entries.*limit of 2\\*\\*22"):
            exact_inference(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the clique table alone would be 64 MiB


@pytest.mark.parametrize("regions, position, var", [([(0, 9)], 0, 9), ([(-1,)], 0, -1), ([(1,), (2, 4)], 1, 4)])
def test_a_region_outside_the_model_is_refused(regions, position, var):
    m = generate(ModelSpec("grid_boltzmann", rows=2, cols=2))
    with pytest.raises(ValueError, match=f"^region {position}: variable {var} is outside the model's 4 variables$"):
        exact_inference(m, regions)


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


def _assert_matches_reference(model, regions):
    res = exact_inference(model, regions=regions)
    log_z, tabs = _reference(model, regions)
    assert abs(res.log_z - log_z) <= 1e-12
    for k, want in enumerate(tabs):
        got = np.asarray(res.marginals[k])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_sixty_variables_in_thirty_components():
    # 60 variables in 30 disjoint pairs: each pair is its own component,
    # and a region joining two pairs makes their cliques one.
    rng = np.random.default_rng(7)
    n = 60
    scopes = [(v, v + 1) for v in range(0, n, 2)]
    tables = [rng.normal(size=(2, 2)) for _ in scopes]
    m = FactorModel([2] * n, scopes, tables)
    res = exact_inference(m, regions=scopes + [(59, 0)])
    for k, t in enumerate(tables):
        assert np.allclose(res.marginals[k], np.exp(t) / np.exp(t).sum(), rtol=0.0, atol=1e-15)
    joined = np.multiply.outer(res.marginals[0].sum(axis=1), res.marginals[29].sum(axis=0))
    assert np.allclose(res.marginals[30], joined, rtol=0.0, atol=1e-15)
    want = math.fsum(float(np.log(np.exp(t).sum())) for t in tables)
    assert abs(res.log_z - want) < 1e-12


def test_disconnected_components_empty_and_shuffled_regions():
    # Two chains and a variable no factor touches; regions come empty,
    # shuffled and straddling the components.
    rng = np.random.default_rng(8)
    scopes = [(0, 1), (1, 2), (3, 4), (4, 5)]
    cards = [2, 3, 2, 3, 2, 2, 3]
    m = FactorModel(cards, scopes, [rng.normal(scale=2.0, size=(cards[i], cards[j]))
                                    for i, j in scopes])
    regions = [(), (6,), (5, 3, 4), (2, 0), (4, 1), (6, 2, 5)]
    _assert_matches_reference(m, regions)
    assert exact_inference(m, regions=[()]).marginals[0] == 1.0


def test_hard_zeros():
    # A 4-cycle whose edges forbid some joint values outright (log 0 is
    # stored as CLAMP_LOG), plus a clamped single-variable factor.
    rng = np.random.default_rng(9)
    scopes = [(0, 1), (0, 3), (1, 2), (2, 3), (3,)]
    tables = [rng.normal(size=(3, 3)) for _ in range(4)] + [np.array([0.5, -np.inf, 0.0])]
    for t in tables[:4]:
        t[np.arange(3), (np.arange(3) + 1) % 3] = -np.inf
    m = FactorModel([3] * 4, scopes, tables)
    assert m.tables[0].min() == CLAMP_LOG
    _assert_matches_reference(m, [(v,) for v in range(4)] + [(2, 0), (3, 1)])


def test_zero_mass_model_gets_its_stored_marginals():
    # Variable 0 must equal 1 and 2, which must differ: every joint state
    # hits a hard zero, stored as CLAMP_LOG, and the oracle reports the
    # model as stored, as enumeration does.
    eq = np.where(np.eye(2, dtype=bool), 0.0, -np.inf)
    m = FactorModel([2] * 3, [(0, 1), (0, 2), (1, 2)], [eq, eq, eq[::-1]])
    _assert_matches_reference(m, [(0,), (1,), (2,), (0, 1), (0, 1, 2)])


def _strong_random_model(seed, scale):
    """Five variables of two or three states under up to six random factors
    of one to three variables, their log tables drawn at ``scale``."""
    rng = np.random.default_rng(seed)
    cards = [int(c) for c in rng.integers(2, 4, size=5)]
    scopes = sorted({
        tuple(sorted(int(v) for v in rng.choice(5, size=rng.integers(1, 4), replace=False)))
        for _ in range(6)
    })
    tables = [rng.normal(scale=scale, size=tuple(cards[v] for v in s)) for s in scopes]
    return FactorModel(cards, scopes, tables)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: generate(ModelSpec("full_boltzmann", nodes=4, weight_scale=5000.0,
                                            seed=0)), id="full_n4_w5000"),
    pytest.param(lambda: _strong_random_model(0, 1e3), id="random0_1e3"),
    pytest.param(lambda: _strong_random_model(2, 1e4), id="random2_1e4"),
    pytest.param(lambda: _strong_random_model(6, 1e3), id="random6_1e3"),
    pytest.param(lambda: _strong_random_model(8, 1e3), id="random8_1e3"),
    pytest.param(lambda: _strong_random_model(17, 1e4), id="random17_1e4"),
])
def test_strong_couplings_match_enumeration(make):
    # Log potentials in the thousands put almost every state's weight far
    # below the largest one's; the marginals and log Z stay exact.
    m = make()
    n = m.num_vars
    regions = [(v,) for v in range(n)] + list(combinations(range(n), 2)) + [tuple(range(n))]
    res = exact_inference(m, regions=regions)
    log_z, tabs = _reference(m, regions)
    assert abs(res.log_z - log_z) <= 1e-12 * abs(log_z)
    for k, want in enumerate(tabs):
        got = np.asarray(res.marginals[k])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1.5e-13


def test_memory_stays_within_a_few_clique_tables():
    # A fully pairwise model over 16 binary variables: one clique holds all
    # 2**16 entries.  The calibration's peak stays within six such tables.
    n = 16
    rng = np.random.default_rng(0)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = FactorModel([2] * n, edges, [rng.normal(size=(2, 2)) for _ in edges])
    tracemalloc.start()
    try:
        exact_inference(m, regions=[(v,) for v in range(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * 2**n
