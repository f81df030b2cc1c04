"""Bound construction: feasibility checks, effective counts, inner potentials."""
from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import chain, combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    ConvexityError,
    Region,
    RegionGraph,
    VARIANTS,
    build_bethe,
    build_cvm,
    check_conv2_bound,
    check_convex_over_constraints,
    free_energy,
    inner_potentials,
    make_bound_spec,
    outer_log_potentials,
    uniform_beliefs,
)
from kikuchi import bounds
from kikuchi.bounds import FLOW_TOL
from conftest import cycle_model, k4_model, pairwise_model, random_consistent_beliefs

PLAQUETTES_3X3 = [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def _given(alloc, donor):
    return sum(v for (g, _), v in alloc.entries.items() if g == donor)


def _received(alloc, receiver):
    return sum(v for (_, b), v in alloc.entries.items() if b == receiver)


def _conv3_first_flow(graph):
    """conv3's first flow: positive regions charged with the negative subsets' demand."""
    counts = graph.subset_overcounts()
    supply = [(g, c) for g, c in graph.counts.items() if c > FLOW_TOL]
    demand = [(b, -counts[b]) for b in graph.neg_ids]
    return bounds._allocate(graph, supply, demand)[0]


def _verify_witness(graph, counts, alloc):
    """Check all witness conditions by direct summation."""
    for (g, b), v in alloc.entries.items():
        assert v >= -1e-12
        assert set(graph.region_vars(b)) < set(graph.region_vars(g))
    for rid, c in counts.items():
        if c > 0:
            assert _given(alloc, rid) <= c + 1e-9
        elif c < 0:
            assert _received(alloc, rid) >= -c - 1e-9


def test_cycle_bethe_is_certified_convex():
    for n in range(3, 9):
        m = cycle_model(n, seed=0)
        g = build_bethe(m.scopes, m.num_vars)
        counts = {r.id: float(r.overcount) for r in g.regions}
        alloc = check_convex_over_constraints(g, counts)
        assert alloc is not None
        _verify_witness(g, counts, alloc)
        # each variable region needs one unit charged to its two edge regions
        for b in g.neg_ids:
            assert _received(alloc, b) == pytest.approx(1.0)


def test_k4_bethe_is_not_certified():
    m = k4_model(seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    counts = {r.id: float(r.overcount) for r in g.regions}
    assert check_convex_over_constraints(g, counts) is None


def test_two_cycles_sharing_edge_not_certified():
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    m = pairwise_model(4, edges, np.random.default_rng(0), 1.0)
    g = build_bethe(m.scopes, m.num_vars)
    counts = {r.id: float(r.overcount) for r in g.regions}
    assert check_convex_over_constraints(g, counts) is None


def test_fractional_supply_saturates():
    # two half-unit donors must both be spent to cover one unit of demand
    regions = [
        Region(0, (0, 1, 2), Fraction(1), "outer"),
        Region(1, (0, 1), Fraction(1, 2), "subset"),
        Region(2, (0, 2), Fraction(1, 2), "subset"),
        Region(3, (0,), Fraction(-1), "subset"),
    ]
    g = RegionGraph(regions)
    counts = {r.id: float(r.overcount) for r in g.regions if r.kind == "subset"}
    alloc = check_convex_over_constraints(g, counts)
    assert alloc is not None
    assert alloc.entries[(1, 3)] == pytest.approx(0.5)
    assert alloc.entries[(2, 3)] == pytest.approx(0.5)


def test_admissibility_requires_strict_containment():
    # donor shares no variables with the receiver: infeasible
    regions = [
        Region(0, (0, 1, 2, 3), Fraction(1), "outer"),
        Region(1, (0, 1), Fraction(1), "subset"),
        Region(2, (2,), Fraction(-1), "subset"),
    ]
    g = RegionGraph(regions)
    counts = {1: 1.0, 2: -1.0}
    assert check_convex_over_constraints(g, counts) is None


def test_variant_counts_on_triangle():
    m = cycle_model(3, seed=1)
    g = build_bethe(m.scopes, m.num_vars)
    counts = g.subset_overcounts()
    assert sorted(counts.values()) == [-1.0, -1.0, -1.0]
    specs = {v: make_bound_spec(g, v) for v in VARIANTS}
    assert specs["none"].inner_overcounts == counts
    assert all(v == 0.0 for v in specs["conv1"].inner_overcounts.values())
    assert all(v == 0.0 for v in specs["conv2"].inner_overcounts.values())
    assert all(v == 1.0 for v in specs["cccp"].inner_overcounts.values())
    # enough edge-region capacity here: conv3 retains every negative count
    assert specs["conv3"].inner_overcounts == counts


def test_variant_counts_on_plaquette_cvm():
    g = build_cvm(PLAQUETTES_3X3, 9)
    counts = g.subset_overcounts()
    ct = make_bound_spec(g, "conv3").inner_overcounts
    for b, c in counts.items():
        if c < 0:
            assert c - 1e-12 <= ct[b] <= 1e-12
        else:
            assert -1e-12 <= ct[b] <= c + 1e-12
    # the interior variable region is positive and gets clipped toward zero
    center = next(b for b in g.subset_ids if g.region_vars(b) == (4,))
    assert counts[center] == 1.0
    conv1 = make_bound_spec(g, "conv1").inner_overcounts
    assert conv1[center] == 1.0
    assert all(conv1[b] == 0.0 for b in g.neg_ids)


def test_none_variant_keeps_counts_without_certificate():
    m = k4_model(seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "none")
    assert spec.inner_overcounts == g.subset_overcounts()


def test_conv2_feasible_on_plaquette_cvm():
    g = build_cvm(PLAQUETTES_3X3, 9)
    alloc = check_conv2_bound(g)
    assert alloc is not None
    counts = g.subset_overcounts()
    center = next(b for b in g.subset_ids if g.region_vars(b) == (4,))
    assert _received(alloc, center) >= counts[center] - 1e-9
    spec = make_bound_spec(g, "conv2")
    assert all(v == 0.0 for v in spec.inner_overcounts.values())


def test_conv2_infeasible_raises_and_names_fallback():
    # a positive subset with no negative superset region cannot be absorbed
    regions = [
        Region(0, (0, 1, 2), Fraction(1), "outer"),
        Region(1, (0, 1), Fraction(1, 2), "subset"),
        Region(2, (0,), Fraction(-1, 4), "subset"),
    ]
    g = RegionGraph(regions)
    with pytest.raises(ConvexityError, match="conv1"):
        make_bound_spec(g, "conv2")


def test_unknown_variant_rejected():
    m = cycle_model(3, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    with pytest.raises(ValueError):
        make_bound_spec(g, "conv9")


def test_conv3_respects_outer_capacity():
    g = build_cvm(PLAQUETTES_3X3, 9)
    counts = g.subset_overcounts()
    spec = make_bound_spec(g, "conv3")
    retained = {b: -min(spec.inner_overcounts[b], 0.0) for b in g.subset_ids}
    # retained negative mass must be chargeable: re-run the certificate
    eff = {a: 1.0 for a in g.outer_ids}
    for b in g.subset_ids:
        c = counts[b]
        eff[b] = -retained[b] if c < 0 else counts[b]
    # positive subsets spent in step three no longer back the retained mass
    for b in g.pos_ids:
        eff[b] = counts[b] - _given(_conv3_first_flow(g), b)
    assert check_convex_over_constraints(g, eff) is not None


def test_conv3_positive_subset_donates_down_then_spends_up():
    # The outer cluster's one unit can only reach the negative (0, 1, 2), so
    # the positive (0, 1) must feed the negative (0,) in the first flow.  The
    # 1/2 it has left of its 3/2 goes up into (0, 1, 2), whose first flow
    # left one unit of demand.
    regions = [
        Region(0, (0, 1, 2, 3), Fraction(1), "outer"),
        Region(1, (0, 1, 2), Fraction(-2), "subset"),
        Region(2, (0, 1), Fraction(3, 2), "subset"),
        Region(3, (0,), Fraction(-1), "subset"),
    ]
    g = RegionGraph(regions)
    spec = make_bound_spec(g, "conv3")
    assert _conv3_first_flow(g).entries == {(0, 1): 1.0, (2, 3): 1.0}
    assert spec.inner_overcounts == {1: -1.0, 2: 1.0, 3: -1.0}
    kept = {0: 1.0, **spec.inner_overcounts}
    assert check_convex_over_constraints(g, kept) is not None


def test_inner_counts_match_bound_functional():
    # minimizing the counted sum with anchored potentials is the bound:
    # both sides agree on every consistent belief set
    rng = np.random.default_rng(11)
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    m = pairwise_model(9, edges, rng, 1.0)
    for g in (build_bethe(m.scopes, m.num_vars), build_cvm(PLAQUETTES_3X3, 9)):
        anchor = random_consistent_beliefs(g, m.cards, rng)
        base = outer_log_potentials(m, g)
        for variant in ("conv1", "conv2", "conv3", "cccp"):
            spec = make_bound_spec(g, variant)
            inner = inner_potentials(base, spec.inner_overcounts, anchor)
            for _ in range(5):
                q = random_consistent_beliefs(g, m.cards, rng)
                lhs = free_energy(inner, q, subset_counts=spec.inner_overcounts)
                rhs = free_energy(base, q, spec.inner_overcounts, anchor)
                assert abs(lhs - rhs) < 1e-10


def test_inner_potentials_metadata_and_scopes():
    m = cycle_model(4, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "cccp")
    anchor = uniform_beliefs(g, m.cards)
    inner = inner_potentials(outer_log_potentials(m, g), spec.inner_overcounts, anchor)
    # The layout carries the outer scopes: the graph's, for the model's cards.
    assert inner.layout is g.layout(m.cards)
    # The metadata is the model's, passed through.
    assert inner.meta == m.meta


def _gale_feasible(supply, demand, admissible):
    """Transportation feasibility by subset enumeration."""
    names = [b for b, _ in demand]
    dem = dict(demand)
    for k in range(1, len(names) + 1):
        for group in combinations(names, k):
            need = sum(dem[b] for b in group)
            reach = sum(c for g, c in supply
                        if any(admissible(g, b) for b in group))
            if need > reach + 1e-9:
                return False
    return True


def test_flow_certificate_matches_subset_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n_vars = int(rng.integers(4, 7))
        universe = list(range(n_vars))
        regions = [Region(0, tuple(universe), Fraction(1), "outer")]
        counts = {}
        rid = 1
        seen = {tuple(universe)}
        for _ in range(int(rng.integers(2, 9))):
            k = int(rng.integers(1, n_vars))
            vs = tuple(sorted(rng.choice(universe, size=k, replace=False).tolist()))
            if vs in seen:
                continue
            seen.add(vs)
            c = Fraction(int(rng.integers(-8, 9)), 4)
            regions.append(Region(rid, vs, c, "subset"))
            counts[rid] = float(c)
            rid += 1
        g = RegionGraph(regions)
        varsets = {r.id: set(r.vars) for r in regions}
        supply = [(i, c) for i, c in counts.items() if c > 0]
        supply.append((0, 1.0))
        demand = [(i, -c) for i, c in counts.items() if c < 0]
        counts[0] = 1.0

        def admissible(gid, b):
            return varsets[b] < varsets[gid]

        got = check_convex_over_constraints(g, counts)
        want = _gale_feasible(supply, demand, admissible)
        assert (got is not None) == want
        if got is not None:
            _verify_witness(g, counts, got)


def _reference_max_flow(supply, demand, admissible):
    """Max flow over an all-pairs admissibility predicate, one BFS per path.

    The oracle for ``bounds._max_flow``: a textbook source/sink residual
    network with the same search order (donors, then receivers, each by id,
    in an ascending-index BFS from the source), the same supplies, demands
    and tolerances.
    """
    supply = sorted(supply)
    demand = sorted(demand)
    ns, nd = len(supply), len(demand)
    source, sink = 0, 1
    s_off, d_off = 2, 2 + ns
    size = 2 + ns + nd
    cap = [dict() for _ in range(size)]
    big = sum(c for _, c in supply) + sum(c for _, c in demand) + 1.0
    for i, (_, c) in enumerate(supply):
        cap[source][s_off + i] = float(c)
        cap[s_off + i][source] = 0.0
    for j, (_, c) in enumerate(demand):
        cap[d_off + j][sink] = float(c)
        cap[sink][d_off + j] = 0.0
    for i, (gid, _) in enumerate(supply):
        for j, (bid, _) in enumerate(demand):
            if admissible(gid, bid):
                cap[s_off + i][d_off + j] = big
                cap[d_off + j][s_off + i] = 0.0

    total = 0.0
    while True:
        prev = {source: source}
        queue = [source]
        while queue and sink not in prev:
            u = queue.pop(0)
            for v in sorted(cap[u]):
                if v not in prev and cap[u][v] > FLOW_TOL * 1e-3:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            break
        bottleneck = big
        v = sink
        while v != source:
            u = prev[v]
            bottleneck = min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = prev[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        total += bottleneck

    flows = {}
    for i, (gid, _) in enumerate(supply):
        for j, (bid, _) in enumerate(demand):
            if admissible(gid, bid):
                f = cap[d_off + j].get(s_off + i, 0.0)
                if f > FLOW_TOL * 1e-3:
                    flows[(gid, bid)] = f
    return total, flows


# Quarter units, and capacities a flow treats as spent.
_capacities = st.one_of(
    st.integers(1, 8).map(lambda k: k / 4),
    st.sampled_from((0.0, FLOW_TOL * 1e-4, FLOW_TOL * 1e-3)),
)


@st.composite
def _networks(draw):
    donors = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    receivers = draw(st.lists(st.integers(10, 19), max_size=6, unique=True))
    supply = [(g, draw(_capacities)) for g in donors]
    demand = [(b, draw(_capacities)) for b in receivers]
    pairs = [(g, b) for g in donors for b in receivers]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return supply, demand, arcs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(network=_networks())
def test_max_flow_matches_the_reference_on_random_networks(network):
    supply, demand, arcs = network
    want = _reference_max_flow(supply, demand, lambda g, b: (g, b) in arcs)
    assert bounds._max_flow(supply, demand, arcs) == want


def test_max_flow_finishes_along_an_alternating_path():
    # A fills x directly, so B reaches y only by x, back to A, then on to y.
    supply = [("A", 1.0), ("B", 1.0)]
    demand = [("x", 1.0), ("y", 1.0)]
    arcs = [("A", "x"), ("A", "y"), ("B", "x")]
    assert bounds._max_flow(supply, demand, arcs) == (2.0, {("A", "y"): 1.0, ("B", "x"): 1.0})


def _with_reference_flows(graph, call, upward=()):
    """``call()`` with every max flow checked against, and replaced by, the reference.

    The reference sees brute-force containment: donor strictly contains
    receiver, except for the flows whose call index is in ``upward``, where
    the receiver contains the donor.  Returns the outcome of ``call`` (its
    value, or the type and message of what it raised) and the flow count.
    """
    varsets = {r.id: set(r.vars) for r in graph.regions}
    real, calls = bounds._max_flow, []

    def checked(supply, demand, arcs):
        if len(calls) in upward:
            admissible = lambda g, b: varsets[g] < varsets[b]  # noqa: E731
        else:
            admissible = lambda g, b: varsets[b] < varsets[g]  # noqa: E731
        want = _reference_max_flow(supply, demand, admissible)
        calls.append(supply)
        assert real(supply, demand, arcs) == want
        return want

    with mock.patch.object(bounds, "_max_flow", checked):
        return _outcome(call), len(calls)


def _outcome(call):
    try:
        return call()
    except ConvexityError as exc:
        return type(exc), str(exc)


def _plaquettes(rows, cols):
    return build_cvm([
        (r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
        for r in range(rows - 1) for c in range(cols - 1)
    ], rows * cols)


def _bethe_grid(rows, cols):
    n = rows * cols
    edges = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range(n - cols)]
    return build_bethe(edges, n)


@st.composite
def _region_graphs(draw):
    kind = draw(st.sampled_from(("poset", "cvm", "bethe", "triplets", "plaquettes")))
    if kind == "triplets":
        n = draw(st.integers(4, 7))
        return build_cvm(list(combinations(range(n), 3)), n)
    if kind == "plaquettes":
        return _plaquettes(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    n = draw(st.integers(3, 7))
    sets = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4),
        min_size=2, max_size=10, unique=True,
    ))
    if kind == "poset":
        # synthetic: the first sets are outer clusters, the rest carry random counts
        n_outer = draw(st.integers(1, len(sets) - 1))
        regions = [
            Region(i, tuple(sorted(s)), Fraction(1), "outer") if i < n_outer
            else Region(i, tuple(sorted(s)), Fraction(draw(st.integers(-8, 8)), 4), "subset")
            for i, s in enumerate(sets)
        ]
        return RegionGraph(regions)
    clusters = [tuple(sorted(s)) for s in sets]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return (build_cvm if kind == "cvm" else build_bethe)(clusters, n)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(graph=_region_graphs())
# The draws stay small; these add larger networks.  Every augmentation on the
# 12x12 plaquettes and the 12 triplets is a direct donor-to-receiver path; the
# 12x12 Bethe grid takes one alternating path, in the convexity certificate and
# in conv3's first flow.
@example(graph=_plaquettes(12, 12))
@example(graph=build_cvm(list(combinations(range(12), 3)), 12))
@example(graph=_bethe_grid(12, 12))
def test_max_flow_matches_the_predicate_reference(graph):
    counts = graph.counts
    # Both certificates.
    for call in (lambda: check_convex_over_constraints(graph, counts),
                 lambda: check_conv2_bound(graph)):
        assert _with_reference_flows(graph, call)[0] == _outcome(call)
    # Every variant; conv3's second flow runs from a subset up to a superset.
    for variant in VARIANTS:
        call = lambda: make_bound_spec(graph, variant)  # noqa: E731
        want, flows = _with_reference_flows(graph, call, upward={1} if variant == "conv3" else ())
        assert want == _outcome(call)
        if variant in ("none", "conv1", "cccp"):
            assert flows == 0
