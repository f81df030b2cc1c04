"""Region graph construction, counting numbers, and poset structure."""
from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from kikuchi import (
    GraphError,
    ModelSpec,
    RecipeError,
    Region,
    RegionGraph,
    build_bethe,
    build_cvm,
    generate,
    is_singly_connected,
    per_variable_counting_sums,
    recipe_graph,
)

PLAQUETTES_3X3 = [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def test_bethe_triangle_counts():
    g = build_bethe([(0, 1), (0, 2), (1, 2)], 3)
    assert len(g.outer_ids) == 3
    counts = {g.by_id[b].vars: g.by_id[b].overcount for b in g.subset_ids}
    assert counts == {(0,): -1, (1,): -1, (2,): -1}
    assert set(g.neg_ids) == set(g.subset_ids)
    assert g.pos_ids == () and g.zero_ids == ()


def test_bethe_single_membership_variable_gets_no_region():
    # A variable in one cluster only would count zero: it gets no region.
    g = build_bethe([(0, 1), (1, 2), (3, 4)], 5)
    counts = {g.by_id[b].vars: g.by_id[b].overcount for b in g.subset_ids}
    assert counts == {(1,): -1}
    assert not g.zero_ids


def test_bethe_singleton_outer_not_duplicated():
    g = build_bethe([(0, 1), (2,)], 3)
    assert len(g.outer_ids) == 2
    subset_vars = {g.by_id[b].vars for b in g.subset_ids}
    assert subset_vars == set()


def test_plaquette_cvm_counts_and_structure():
    g = build_cvm(PLAQUETTES_3X3, 9)
    by_vars = {r.vars: r for r in g.regions}
    assert len(g.regions) == 9
    for edge in [(1, 4), (3, 4), (4, 5), (4, 7)]:
        assert by_vars[edge].overcount == -1
    assert by_vars[(4,)].overcount == 1
    assert [g.by_id[b].vars for b in g.pos_ids] == [(4,)]
    sums = per_variable_counting_sums(g)
    assert all(s == 1 for s in sums.values())
    center = next(b for b in g.subset_ids if g.by_id[b].vars == (4,))
    # and its Hasse parents are the four edge regions, not the plaquettes
    parents = {p for p, c in g.hasse_edges if c == center}
    edge_ids = {b for b in g.subset_ids if len(g.by_id[b].vars) == 2}
    assert parents == edge_ids
    # every containing outer is still tracked for the center
    assert len(g.containing_outers[center]) == 4


def test_cvm_closes_under_repeated_intersection():
    # {3} only appears as an intersection of intersections
    g = build_cvm([(0, 1, 2, 3), (2, 3, 4, 5), (0, 3, 4, 6)], 7)
    varsets = {r.vars for r in g.regions}
    assert (2, 3) in varsets and (0, 3) in varsets and (3, 4) in varsets
    assert (3,) in varsets


def test_bethe_per_variable_sums_are_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        k = min(int(rng.integers(2, 7)), n * (n - 1) // 2)
        clusters = set()
        while len(clusters) < k:
            pair = rng.choice(n, size=2, replace=False)
            clusters.add(tuple(np.sort(pair)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = build_bethe(sorted(clusters), n)
        sums = per_variable_counting_sums(g)
        for v in sorted({u for c in clusters for u in c}):
            assert sums[v] == 1


def test_contained_cluster_absorbed_with_warning():
    with pytest.warns(UserWarning):
        g = build_cvm([(0, 1, 2), (0, 1), (0, 1, 2)], 3)
    assert len(g.outer_ids) == 1


def test_cluster_validation_errors():
    with pytest.raises(GraphError):
        build_cvm([()], 3)
    with pytest.raises(GraphError):
        build_cvm([(0, 5)], 3)
    with pytest.raises(GraphError):
        build_cvm([], 3)


def test_region_validation():
    with pytest.raises(GraphError):
        Region(0, (1, 0), Fraction(1), "outer")
    with pytest.raises(GraphError):
        Region(0, (), Fraction(1), "outer")
    with pytest.raises(GraphError):
        Region(0, (0,), Fraction(2), "outer")
    with pytest.raises(GraphError):
        Region(0, (0,), Fraction(1), "middle")


def test_duplicate_variable_sets_rejected():
    regions = [
        Region(0, (0, 1), Fraction(1), "outer"),
        Region(1, (0, 1), Fraction(-1), "subset"),
    ]
    with pytest.raises(GraphError):
        RegionGraph(regions)


def test_strict_mode_requires_containing_outer():
    regions = [
        Region(0, (0, 1), Fraction(1), "outer"),
        Region(1, (2,), Fraction(-1), "subset"),
    ]
    with pytest.raises(GraphError):
        RegionGraph(regions)
    g = RegionGraph(regions, strict=False)
    assert g.containing_outers[1] == ()


def test_singly_connected():
    chain = build_bethe([(0, 1), (1, 2), (2, 3)], 4)
    assert is_singly_connected(chain)
    triangle = build_bethe([(0, 1), (0, 2), (1, 2)], 3)
    assert not is_singly_connected(triangle)
    forest = build_bethe([(0, 1), (1, 2), (3, 4)], 5)
    assert is_singly_connected(forest)


def test_plaquette_graph_not_singly_connected():
    assert not is_singly_connected(build_cvm(PLAQUETTES_3X3, 9))


def test_recipe_graph_builds_and_rejects():
    grid = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
    plaq = recipe_graph(grid, "grid-plaquettes")
    assert [plaq.region_vars(a) for a in plaq.outer_ids] == PLAQUETTES_3X3
    assert len(recipe_graph(grid, "bethe").outer_ids) == 12
    full = generate(ModelSpec("full_boltzmann", nodes=5, seed=0))
    assert len(recipe_graph(full, "all-triplets").outer_ids) == 10
    qmr = generate(ModelSpec("qmr_like", diseases=4, findings=2, seed=0))
    for model, recipe in ((qmr, "grid-plaquettes"), (grid, "plaquettes")):
        with pytest.raises(RecipeError) as info:
            recipe_graph(model, recipe)
        assert not isinstance(info.value, GraphError)
