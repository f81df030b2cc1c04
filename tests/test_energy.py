"""Free energy functionals: values, touching, bounding, samplers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from kikuchi import (
    Beliefs,
    BoundSpec,
    ClusterPotentials,
    VARIANTS,
    build_bethe,
    build_cvm,
    constraint_residual,
    free_energy,
    inner_potentials,
    kl_marginals,
    make_bound_spec,
    outer_log_potentials,
    run_gbp,
    uniform_beliefs,
)
from conftest import beliefs_from_tables, cycle_model, pairwise_model, random_consistent_beliefs

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
    pots = ClusterPotentials.of(m, g)
    for _ in range(10):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert abs(free_energy(pots, q) - _reference_free_energy(g, m, q)) < 1e-10


def test_uniform_free_energy_closed_form():
    # zero potentials: F is minus the counted sum of log state-space sizes
    m = pairwise_model(3, [(0, 1), (0, 2), (1, 2)], np.random.default_rng(0), 0.0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)
    want = -3 * math.log(4.0) + 3 * math.log(2.0)
    assert abs(free_energy(ClusterPotentials.of(m, g), q) - want) < 1e-12


def test_belief_validation():
    # A NaN or +inf log is a non-finite entry, and a log of -inf is a zero
    # entry whose entropy term 0 * -inf has no value: each is refused, in q
    # and in the anchor, before any arithmetic.
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    layout = g.layout(m.cards)
    q = uniform_beliefs(g, m.cards)
    spec = make_bound_spec(g, "conv1")
    pots = ClusterPotentials.of(m, g)
    for bad in (np.nan, np.inf, -np.inf):
        for rid in (g.outer_ids[1], g.subset_ids[1]):
            logs = q.logs.copy()
            logs[layout.views[rid][0]] = bad
            b = Beliefs(layout, logs)
            calls = (
                lambda: free_energy(pots, b),
                lambda: free_energy(pots, q, spec.inner_overcounts, b),
                lambda: inner_potentials(pots, spec, b),
            )
            for call in calls:
                with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
                    call()


def test_beliefs_on_another_layout_are_refused():
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv1")
    pots = ClusterPotentials.of(m, g)
    q = uniform_beliefs(g, m.cards)
    other_cards = uniform_beliefs(g, [3] + list(m.cards[1:]))
    other_graph = uniform_beliefs(build_bethe(m.scopes, m.num_vars), m.cards)
    for foreign in (other_cards, other_graph):
        with pytest.raises(ValueError, match="laid out"):
            free_energy(pots, foreign)
        with pytest.raises(ValueError, match="laid out"):
            free_energy(pots, q, spec.inner_overcounts, foreign)
        with pytest.raises(ValueError, match="laid out"):
            inner_potentials(pots, spec, foreign)
        with pytest.raises(ValueError, match="laid out"):
            q.delta(foreign)
        # The residual reads the graph off the beliefs' own layout.
        assert constraint_residual(foreign) < 1e-12


def test_zero_entries_contribute_zero_entropy():
    # A zero entry is written as a log of -1e3: its exponential underflows
    # to 0, so its entropy term is 0 * -1e3 == 0 and the value is finite.
    # Variable 1 is 0 for sure; clusters (0, 1) and (1, 2) and the subset
    # (1,) each hold zero entries.
    m = pairwise_model(3, [(0, 1), (1, 2)], np.random.default_rng(1), 1.0)
    g = build_bethe(m.scopes, m.num_vars)
    layout = g.layout(m.cards)
    zero, half = -1e3, math.log(0.5)
    by_vars = {(0, 1): [[half, zero], [half, zero]], (1, 2): [[half, half], [zero, zero]], (1,): [0.0, zero]}
    logs = np.concatenate([np.ravel(by_vars[g.region_vars(rid)]) for rid in layout.views])
    q = Beliefs(layout, logs)
    assert (q.probs == 0.0).sum() == 5
    assert constraint_residual(q) == 0.0
    f = free_energy(ClusterPotentials.of(m, g), q)
    assert math.isfinite(f)


def test_a_count_for_no_subset_region_is_refused():
    # A key that names no subset region (a typo, or an outer cluster) is an
    # error wherever a count map is read, not a count silently dropped.
    m = cycle_model(4, seed=1)
    g = build_bethe(m.scopes, m.num_vars)
    pots = ClusterPotentials.of(m, g)
    q = uniform_beliefs(g, m.cards)
    for key in (999, g.outer_ids[0]):
        counts = {**g.subset_overcounts(), key: 0.0}
        with pytest.raises(ValueError, match=f"region {key}, "):
            free_energy(pots, q, counts)
        with pytest.raises(ValueError, match=f"region {key}, "):
            run_gbp(pots, counts)
        with pytest.raises(ValueError, match=f"region {key}, "):
            inner_potentials(pots, BoundSpec("conv1", counts), q)


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
        pots = ClusterPotentials.of(m, g)
        for _ in range(20):
            q = random_consistent_beliefs(g, m.cards, rng)
            anchor = random_consistent_beliefs(g, m.cards, rng)
            f = free_energy(pots, q)
            vals = {}
            for v, spec in specs.items():
                assert abs(free_energy(pots, q, spec.inner_overcounts, q) - f) < 1e-10
                vals[v] = free_energy(pots, q, spec.inner_overcounts, anchor)
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
    pots = ClusterPotentials.of(m, g)
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
            layout = g.layout(m.cards)
            q, anchor = beliefs_from_tables(layout, tabs), beliefs_from_tables(layout, anch)
            f = free_energy(pots, q)
            assert free_energy(pots, q, spec.inner_overcounts, anchor) >= f - 1e-9


def test_dense_sampler_consistency():
    rng = np.random.default_rng(5)
    m = cycle_model(6, seed=1)
    g = build_cvm([(0, 1, 2), (2, 3, 4), (4, 5, 0)], 6)
    for _ in range(5):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert constraint_residual(q) < 1e-12
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
    assert constraint_residual(q) < 1e-12
    r = random_consistent_beliefs(g, cards, rng)
    assert q.delta(r) > 1e-3  # distinct draws differ


def test_kl_marginals():
    p = {0: np.array([0.5, 0.5]), 1: np.array([0.25, 0.75])}
    q = {0: np.array([0.5, 0.5]), 1: np.array([0.75, 0.25])}
    assert kl_marginals(p, p, [0, 1]) == 0.0
    val = kl_marginals(p, q, [1])
    want = 0.25 * math.log(0.25 / 0.75) + 0.75 * math.log(0.75 / 0.25)
    assert abs(val - want) < 1e-12

    degenerate = {0: np.array([1.0, 0.0]), 1: np.array([0.25, 0.75])}
    with pytest.warns(UserWarning):
        assert kl_marginals(p, degenerate, [0]) == math.inf
    # 0 log 0 on the p side is fine
    assert kl_marginals(degenerate, p, [0]) == pytest.approx(math.log(2.0))



def test_public_surface_has_one_way_in_for_beliefs():
    # Every exported name resolves, and beliefs are made only by
    # Beliefs(layout, logs): no dict door, log floor, sampler or spec witness.
    import kikuchi
    from kikuchi import energy

    for name in kikuchi.__all__:
        assert hasattr(kikuchi, name), name
    for module in (kikuchi, energy):
        for name in ("random_consistent_beliefs", "LOG_FLOOR", "MAX_JOINT_SAMPLER"):
            assert not hasattr(module, name), name
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)
    for name in ("from_tables", "floored"):
        assert not hasattr(q, name), name
    for variant in ("conv2", "conv3"):
        assert not hasattr(make_bound_spec(g, variant), "witness"), variant
