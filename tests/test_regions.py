"""Region graph construction, counting numbers, and poset structure."""
from __future__ import annotations

import json
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
    make_bound_spec,
    minimize,
    per_variable_counting_sums,
    recipe_graph,
    uniform_beliefs,
    write_trace,
)
from kikuchi.regions import Layout

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


def test_a_layout_refuses_cards_that_leave_a_variable_without_one():
    # A 2x2 grid model meets the Bethe graph of a 2x3 grid, whose last
    # variables get no card; a card of 0 would give a region an empty table.
    m = generate(ModelSpec("grid_boltzmann", rows=2, cols=2))
    g4 = recipe_graph(m, "bethe")
    g6 = recipe_graph(generate(ModelSpec("grid_boltzmann", rows=2, cols=3)), "bethe")
    for refused in (
        lambda: minimize(m, g6, make_bound_spec(g6, "conv1")),
        lambda: g6.layout((2, 2)),
        lambda: uniform_beliefs(g6, (2, 2, 2, 2)),
    ):
        with pytest.raises(GraphError, match=r"^region \d+: variable [2-5] has no card; [24] cards given$"):
            refused()
    with pytest.raises(GraphError, match=r"^region \d+: variable 0 has card 0, below 1$"):
        uniform_beliefs(g4, (0, 0, 0, 0))
    with pytest.raises(GraphError, match=r"^region \d+: variable 2 has card -1, below 1$"):
        g4.layout((2, 2, -1, 2))
    assert g4.layout((1, 1, 1, 1)).size == len(g4.regions)


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


def test_a_negative_variable_is_refused():
    with pytest.raises(GraphError, match="region 0: negative variable -2"):
        Region(0, (-2, 1), 1, "outer")
    with pytest.raises(GraphError, match="unknown variable"):
        build_bethe([(-1, 0), (0, 1)], 2)


def test_public_surface_has_one_form_at_each_door(tmp_path):
    # One trace writer; the builders take the variable count; any poset
    # builds, and only its layout needs each subset inside a cluster.
    import kikuchi

    for name in ("trace_metadata", "write_trace_csv", "write_trace_json"):
        assert not hasattr(kikuchi, name), name
    with pytest.raises(TypeError):
        build_bethe([(0, 1), (1, 2)])
    regions = [
        Region(0, (0, 1), Fraction(1), "outer"),
        Region(1, (2,), Fraction(-1), "subset"),
    ]
    g = RegionGraph(regions)
    assert g.containing_outers[1] == ()
    with pytest.raises(GraphError, match="subset region 1 is not strictly inside any outer cluster"):
        g.layout((2, 2, 2))
    # The trace's JSON carries the extra keys, never its stop reason.
    m = generate(ModelSpec("grid_boltzmann", rows=2, cols=2, seed=0))
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv1")
    trace = minimize(m, g, spec)
    write_trace(trace, spec, tmp_path / "trace", m.meta, seed=7, kl_to_oracle=None)
    text = (tmp_path / "trace.json").read_text()
    meta = json.loads(text)
    assert (meta["seed"], meta["kl_to_oracle"], meta["variant"]) == (7, None, "conv1")
    assert "stop_reason" not in text
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == len(trace.outer) + 1


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


def _per_pair_sums(layout, pairs):
    """``Layout.sums`` pair by pair, one ``moveaxis`` of p's entries each: the reference."""
    src, at, width = [], [], []
    for p, c in pairs:
        lo, hi, shape = layout.views[p]
        inside = [i for i, v in enumerate(layout.graph.region_vars(p)) if v in layout.graph.region_vars(c)]
        src.append(np.moveaxis(np.arange(lo, hi).reshape(shape), inside, range(len(inside))).ravel())
        at.append(np.arange(*layout.views[c][:2]))
        width.append(np.full(len(at[-1]), len(src[-1]) // len(at[-1])))
    src, at, width = (np.concatenate(x) if x else np.zeros(0, dtype=np.intp) for x in (src, at, width))
    return src, np.repeat(np.arange(len(at)), width), np.cumsum(width) - width, at


def _layout_case(case):
    if case == "qmr-bethe":  # clusters of two and three variables
        m = generate(ModelSpec("qmr_like", diseases=20, findings=10, seed=0))
        return recipe_graph(m, "bethe"), m.cards
    if case in ("cards3-cvm", "cards3-bethe"):
        cards = (3, 2, 3, 3, 2, 3)
        scopes = [(0, 1, 2), (1, 2, 3), (2, 3, 4, 5), (0, 5), (0, 3, 4)]
        return (build_cvm if case == "cards3-cvm" else build_bethe)(scopes, 6), cards
    if case == "one-cluster":  # no pairs at all
        return build_cvm([(0, 1, 2)], 3), (2, 3, 2)
    if case == "plaquettes-4x4":
        m = generate(ModelSpec("grid_boltzmann", rows=4, cols=4, seed=0))
        return recipe_graph(m, "grid-plaquettes"), m.cards
    m = generate(ModelSpec("full_boltzmann", nodes=5, seed=0))
    return recipe_graph(m, "all-triplets"), m.cards


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    else:
        assert got == want


@pytest.mark.parametrize(
    "case", ["qmr-bethe", "cards3-cvm", "cards3-bethe", "one-cluster", "plaquettes-4x4", "triplets-5"]
)
def test_shape_class_sums_match_the_per_pair_reference(case):
    # Layout.sums lays out each class of pairs sharing p's shape and kept
    # axes in one broadcast; every index map must equal the per-pair one,
    # and so must the sweep steps compiled from it.
    g, cards = _layout_case(case)
    layout = g.layout(cards)
    _assert_same(layout.cluster_sums, _per_pair_sums(layout, layout.edge_views))
    _assert_same(layout.hasse_sums, _per_pair_sums(layout, g.hasse_edges))
    ref = Layout(g, cards)
    ref.cluster_sums = _per_pair_sums(ref, ref.edge_views)
    assert len(layout.sweep_steps) == len(ref.sweep_steps) == len(layout.levels)
    for got, want in zip(layout.sweep_steps, ref.sweep_steps):
        _assert_same(got, want)
