"""Free energy functionals: values, touching, bounding, samplers."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from kikuchi import (
    Beliefs,
    VARIANTS,
    build_bethe,
    build_cvm,
    constraint_residual,
    free_energy,
    kl_marginals,
    make_bound_spec,
    outer_log_potentials,
    random_consistent_beliefs,
    uniform_beliefs,
)
from conftest import cycle_model, pairwise_model

PLAQUETTES_3X3 = [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def _reference_free_energy(graph, model, q):
    """Independent accumulation of the counted energy/entropy sum."""
    pots = outer_log_potentials(model, graph)
    total = 0.0
    for r in graph.regions:
        t = q.tables[r.id]
        c = float(r.overcount)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), 0.0)
        entropy = -(t * logs).sum()
        if r.kind == "outer":
            total += -(t * pots[r.id]).sum() - entropy
        elif c != 0.0:
            total += -c * entropy
    return total


def test_free_energy_matches_reference():
    rng = np.random.default_rng(2)
    m = cycle_model(5, seed=4)
    g = build_bethe(m.scopes, m.num_vars)
    for _ in range(10):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert abs(free_energy(g, m, q) - _reference_free_energy(g, m, q)) < 1e-10


def test_uniform_free_energy_closed_form():
    # zero potentials: F is minus the counted sum of log state-space sizes
    m = pairwise_model(3, [(0, 1), (0, 2), (1, 2)], np.random.default_rng(0), 0.0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)
    want = -3 * math.log(4.0) + 3 * math.log(2.0)
    assert abs(free_energy(g, m, q) - want) < 1e-12


def test_belief_validation():
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)

    missing = Beliefs({k: v for k, v in q.tables.items() if k != g.subset_ids[0]})
    with pytest.raises(ValueError, match="missing"):
        free_energy(g, m, missing)

    bad_shape = q.copy()
    bad_shape.tables[g.outer_ids[0]] = np.full((3, 3), 1.0 / 9.0)
    with pytest.raises(ValueError, match="shape"):
        free_energy(g, m, bad_shape)

    unnorm = q.copy()
    unnorm.tables[g.outer_ids[0]] = np.full((2, 2), 0.3)
    with pytest.raises(ValueError, match="normalized"):
        free_energy(g, m, unnorm)

    negative = q.copy()
    negative.tables[g.outer_ids[0]] = np.array([[1.2, -0.2], [0.0, 0.0]])
    with pytest.raises(ValueError, match="negative"):
        free_energy(g, m, negative)

    # Every comparison with NaN is false, so a NaN table passes the sign and
    # normalization tests; it needs a check of its own, in both forms.
    bound = make_bound_spec(g, "conv1").inner_overcounts
    for bad in (np.nan, np.inf, -np.inf):
        for rid in (g.outer_ids[1], g.subset_ids[1]):
            nonfinite = q.copy()
            nonfinite.tables[rid].flat[0] = bad
            for args in ((), (bound, q)):
                with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
                    free_energy(g, m, nonfinite, *args)


def test_zero_entries_contribute_zero_entropy():
    m = pairwise_model(2, [(0, 1)], np.random.default_rng(1), 1.0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards).copy()
    q.tables[0] = np.array([[0.5, 0.5], [0.0, 0.0]])
    q.tables[1] = np.array([1.0, 0.0])
    q.tables[2] = np.array([0.5, 0.5])
    f = free_energy(g, m, q)
    assert math.isfinite(f)


def test_touching_and_bounding_consistent_beliefs():
    rng = np.random.default_rng(7)
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    m = pairwise_model(9, edges, rng, 1.0)
    for g in (build_bethe(m.scopes, m.num_vars), None):
        if g is None:
            g = build_cvm(PLAQUETTES_3X3, 9)
        specs = {v: make_bound_spec(g, v) for v in VARIANTS}
        for _ in range(20):
            q = random_consistent_beliefs(g, m.cards, rng)
            anchor = random_consistent_beliefs(g, m.cards, rng)
            f = free_energy(g, m, q)
            vals = {}
            for v, spec in specs.items():
                assert abs(free_energy(g, m, q, spec.inner_overcounts, q) - f) < 1e-10
                vals[v] = free_energy(g, m, q, spec.inner_overcounts, anchor)
                assert vals[v] >= f - 1e-9
            assert vals["conv2"] <= vals["conv1"] + 1e-9
            assert vals["conv1"] <= vals["cccp"] + 1e-9
            assert vals["conv3"] <= vals["conv1"] + 1e-9
            assert vals["none"] == pytest.approx(f, abs=1e-12)


def test_pointwise_bounding_without_consistency():
    # conv1 and cccp dominate even for mutually inconsistent region tables
    rng = np.random.default_rng(8)
    m = cycle_model(6, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    for v in ("conv1", "cccp"):
        spec = make_bound_spec(g, v)
        for _ in range(20):
            tabs, anch = {}, {}
            for r in g.regions:
                shape = tuple(m.cards[u] for u in r.vars)
                t = rng.gamma(1.0, size=shape)
                tabs[r.id] = t / t.sum()
                a = rng.gamma(1.0, size=shape)
                anch[r.id] = a / a.sum()
            q, anchor = Beliefs(tabs), Beliefs(anch)
            f = free_energy(g, m, q)
            assert free_energy(g, m, q, spec.inner_overcounts, anchor) >= f - 1e-9


def test_dense_sampler_consistency():
    rng = np.random.default_rng(5)
    m = cycle_model(6, seed=1)
    g = build_cvm([(0, 1, 2), (2, 3, 4), (4, 5, 0)], 6)
    for _ in range(5):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert constraint_residual(g, q) < 1e-12
        for rid, t in q.tables.items():
            assert abs(t.sum() - 1.0) < 1e-12
            assert t.min() >= 0.0


def test_mixture_sampler_consistency():
    rng = np.random.default_rng(6)
    n = 20  # beyond the dense-joint limit
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    g = build_bethe(edges, n)
    cards = [2] * n
    q = random_consistent_beliefs(g, cards, rng)
    assert constraint_residual(g, q) < 1e-12
    r = random_consistent_beliefs(g, cards, rng)
    assert q.delta(r) > 1e-3  # distinct draws differ


def test_kl_marginals():
    p = Beliefs({0: np.array([0.5, 0.5]), 1: np.array([0.25, 0.75])})
    q = Beliefs({0: np.array([0.5, 0.5]), 1: np.array([0.75, 0.25])})
    assert kl_marginals(p, p, [0, 1]) == 0.0
    val = kl_marginals(p, q, [1])
    want = 0.25 * math.log(0.25 / 0.75) + 0.75 * math.log(0.75 / 0.25)
    assert abs(val - want) < 1e-12

    degenerate = Beliefs({0: np.array([1.0, 0.0]), 1: np.array([0.25, 0.75])})
    with pytest.warns(UserWarning):
        assert kl_marginals(p, degenerate, [0]) == math.inf
    # 0 log 0 on the p side is fine
    assert kl_marginals(degenerate, p, [0]) == pytest.approx(math.log(2.0))


def test_bound_warns_on_floored_anchor():
    m = pairwise_model(3, [(0, 1), (1, 2)], np.random.default_rng(3), 1.0)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv1")
    q = uniform_beliefs(g, m.cards)
    anchor = uniform_beliefs(g, m.cards).copy()
    b = g.neg_ids[0]  # only gapped subsets consult the anchor
    anchor.tables[b] = np.array([1.0, 0.0])
    with pytest.warns(UserWarning, match="floor"):
        free_energy(g, m, q, spec.inner_overcounts, anchor)


def test_delta_ignores_extra_ids():
    # The change is taken over the regions of the first beliefs only.
    a = Beliefs({1: np.ones(2)})
    b = Beliefs({0: np.zeros(2), 1: np.ones(2)})
    assert a.delta(b) == 0.0
    assert Beliefs({0: np.ones(2), 1: np.ones(2)}).delta(b) == 1.0
