"""Property tests: region graphs against brute-force definitions, and the
promises of a returned trace on random small models."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    Beliefs,
    ConvexityError,
    ModelSpec,
    OuterSettings,
    build_bethe,
    build_cvm,
    constraint_residual,
    free_energy,
    generate,
    inner_potentials,
    is_singly_connected,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    uniform_beliefs,
)
from conftest import assert_greedy_colouring, cluster_tables, dict_free_energy


def _brute_poset(g):
    """Supersets, containing outers, Hasse edges and overcounts by all-pairs tests."""
    vs = {r.id: set(r.vars) for r in g.regions}
    ids = sorted(vs)
    sups = {c: tuple(p for p in ids if vs[c] < vs[p]) for c in ids}
    outers = {b: tuple(a for a in g.outer_ids if vs[b] < vs[a]) for b in g.subset_ids}
    hasse = sorted(
        (p, c) for c in ids for p in sups[c]
        if not any(vs[c] < vs[m] < vs[p] for m in ids)
    )
    counts = {}
    for i in sorted(ids, key=lambda i: -len(vs[i])):
        counts[i] = 1 - sum((counts[j] for j in sups[i]), Fraction(0))
    return sups, outers, hasse, counts


def _brute_closure(clusters):
    """Every non-empty intersection of two or more clusters, by all-pairs rounds."""
    closure = {frozenset(t) for t in clusters}
    while True:
        fresh = {a & b for a, b in combinations(closure, 2)} - closure - {frozenset()}
        if not fresh:
            return closure
        closure |= fresh


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 8),
    raw=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=9),
    bethe=st.booleans(),
)
@example(n=7, raw=[[0, 1, 2, 3], [2, 3, 4, 5], [0, 3, 4, 6]], bethe=False)  # {3} takes two rounds
def test_region_graphs_match_brute_force_definitions(n, raw, bethe):
    clusters = [tuple(v % n for v in cl) for cl in raw]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = (build_bethe if bethe else build_cvm)(clusters, n)
    # Absorption: duplicates and clusters inside another one go, with one warning.
    uniq = list(dict.fromkeys(tuple(sorted(set(cl))) for cl in clusters))
    kept = [t for t in uniq if not any(set(t) < set(u) for u in uniq)]
    assert [g.region_vars(a) for a in g.outer_ids] == kept
    dropped = len(clusters) - len(kept)
    assert [str(w.message) for w in caught] == (
        [f"absorbed {dropped} duplicate or contained cluster(s)"] if dropped else []
    )
    # The subset regions: the intersection closure, or the single variables
    # that two or more clusters share and that are not themselves a cluster.
    # Either way every subset lies in two or more clusters.
    if bethe:
        shared = {v for v in range(n) if sum(v in t for t in kept) >= 2}
        want = {frozenset((v,)) for v in shared} - {frozenset(t) for t in kept}
    else:
        want = _brute_closure(kept)
    assert {frozenset(r.vars) for r in g.regions} == want | {frozenset(t) for t in kept}
    assert all(len(g.containing_outers[b]) >= 2 for b in g.subset_ids)
    sups, outers, hasse, counts = _brute_poset(g)
    assert g.supersets == sups
    assert g.containing_outers == outers
    assert list(g.hasse_edges) == hasse
    assert {r.id: r.overcount for r in g.regions} == counts
    # The recursion only adds and subtracts integers, so the counts are ints.
    assert all(type(r.overcount) is int for r in g.regions)
    # Factor placement: the lowest-id outer holding a scope, else None.  Every
    # region is placed; pairs across outers, all variables together and a
    # variable no region holds are not.
    vs = {r.id: set(r.vars) for r in g.regions}
    scopes = [r.vars for r in g.regions] + list(combinations(range(n + 1), 2))
    scopes += [tuple(range(n)), (n,)]
    for s in scopes:
        want = next((a for a in g.outer_ids if set(s) <= vs[a]), None)
        assert g.outer_containing(s) == want, s
    assert g.outer_containing((n,)) is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 7),
    raw=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=8),
)
def test_cvm_regions_are_the_intersections_of_cluster_families(n, raw):
    # The regions are every nonempty intersection of a nonempty family of
    # the clusters left after absorption, enumerated family by family; the
    # count of each is 1 minus the counts of the regions strictly containing
    # it (none, for a cluster).
    clusters = {frozenset(v % n for v in cl) for cl in raw}
    kept = {c for c in clusters if not any(c < d for d in clusters)}
    want = {frozenset.intersection(*f) for k in range(1, len(kept) + 1) for f in combinations(kept, k)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_cvm([tuple(v % n for v in cl) for cl in raw], n)
    got = {frozenset(r.vars): r for r in g.regions}
    assert got.keys() == want - {frozenset()}
    assert {s for s, r in got.items() if r.kind == "outer"} == kept
    for s, r in got.items():
        assert r.overcount == 1 - sum(q.overcount for t, q in got.items() if s < t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    raw=st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=5), min_size=1, max_size=12),
    bethe=st.booleans(),
)
def test_sweep_levels_are_the_greedy_colouring(n, raw, bethe):
    # The inner sweep's levels colour the subsets greedily in id order, and
    # the layout holds the subsets level by level.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = (build_bethe if bethe else build_cvm)([tuple(v % n for v in cl) for cl in raw], n)
    layout = g.layout((2,) * n)
    assert_greedy_colouring(g, layout.levels)
    assert layout.ids == g.outer_ids + tuple(b for level in layout.levels for b in level)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    diseases=st.integers(3, 8),
    findings=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(("conv1", "conv2", "conv3", "cccp")),
)
def test_qmr_bethe_traces_keep_their_promises(diseases, findings, seed, variant):
    m = generate(ModelSpec("qmr_like", diseases=diseases, findings=findings, seed=seed))
    g = build_bethe(m.scopes, m.num_vars)
    try:
        spec = make_bound_spec(g, variant)
    except ConvexityError:
        assume(False)
    _assert_promises(minimize(m, g, spec))


def _assert_promises(trace):
    fs = [r.f_kik for r in trace.outer]
    assert all(math.isfinite(f) for f in fs)
    for t, (a, b) in enumerate(zip(fs, fs[1:])):
        assert b <= a + 1e-9, f"rise at outer {t + 1}"
    if trace.converged:
        assert trace.outer[-1].constraint_residual <= 1e-6
    # Only the record of a step the run did not take may hold a failed solve.
    taken = trace.outer[:-1] if trace.stop_reason in ("rejected_rise", "inner_failed") else trace.outer
    assert all(r.inner_converged for r in taken)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("bethe-grid", "plaquettes", "bethe-full", "triplets")),
    size=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(("conv1", "conv2", "conv3", "cccp")),
    max_sweeps=st.sampled_from((3, 2000)),
)
@example(kind="bethe-grid", size=1, seed=3, variant="conv1", max_sweeps=2000)
@example(kind="plaquettes", size=0, seed=0, variant="conv1", max_sweeps=3)
def test_grid_and_full_traces_keep_their_promises(kind, size, seed, variant, max_sweeps):
    m, g = _graph_problem(kind, size, seed)
    try:
        spec = make_bound_spec(g, variant)
    except ConvexityError:
        assume(False)
    trace = minimize(m, g, spec, OuterSettings(inner_max_sweeps=max_sweeps))
    _assert_promises(trace)
    if max_sweeps == 3 and not is_singly_connected(g):
        # Three sweeps reach no fixed point on a loopy graph: the first solve
        # fails and the run keeps the uniform start, unconverged.  (Two
        # plaquettes of a 2x3 grid share one edge, a singly connected graph
        # on which undamped sweeps may settle within three.)
        assert trace.stop_reason == "inner_failed" and not trace.converged
        assert trace.outer_iterations == 1 and not trace.outer[1].inner_converged
        assert trace.final_f == trace.outer[0].f_kik


def _graph_problem(kind, size, seed):
    """A (model, region graph) pair: Bethe grid, plaquettes, full Bethe, all triplets or QMR Bethe."""
    if kind == "bethe-full":
        m = generate(ModelSpec("full_boltzmann", nodes=4 + size % 2, weight_scale=2.0, seed=seed))
        return m, build_bethe(m.scopes, m.num_vars)
    if kind in ("bethe-grid", "plaquettes"):
        rows, cols = 2 + size % 2, 3
        m = generate(ModelSpec("grid_boltzmann", rows=rows, cols=cols, seed=seed))
        if kind == "bethe-grid":
            return m, build_bethe(m.scopes, m.num_vars)
        plaq = [(r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
                for r in range(rows - 1) for c in range(cols - 1)]
        return m, build_cvm(plaq, m.num_vars)
    if kind == "triplets":
        m = generate(ModelSpec("full_boltzmann", nodes=4 + size % 2, weight_scale=2.0, seed=seed))
        return m, build_cvm(list(combinations(range(m.num_vars), 3)), m.num_vars)
    m = generate(ModelSpec("qmr_like", diseases=3 + size, findings=2 + size % 3, seed=seed))
    return m, build_bethe(m.scopes, m.num_vars)


def _outside(g, p, c):
    return tuple(i for i, v in enumerate(g.region_vars(p)) if v not in g.region_vars(c))


def _dict_fold(g, m, kept, anchor):
    """Outer log potentials minus each subset's anchored share, cluster by cluster."""
    pots = cluster_tables(m, g)
    counts = g.subset_overcounts()
    for b in g.subset_ids:
        share = (counts[b] - kept.get(b, counts[b])) / len(g.containing_outers[b])
        share = share * np.log(np.maximum(anchor.tables[b], 1e-300))
        for a in g.containing_outers[b]:
            pots[a] = pots[a] - np.expand_dims(share, _outside(g, a, b))
    return np.concatenate([pots[a].ravel() for a in g.outer_ids])


def _dict_residual(g, q):
    return max((float(np.max(np.abs(q.tables[p].sum(axis=_outside(g, p, c)) - q.tables[c])))
                for p, c in g.hasse_edges), default=0.0)


def _laid_out(g, cards, rng):
    """Independent random tables (so not consistent), as log tables on the layout."""
    layout = g.layout(cards)
    logs = []
    for rid in layout.ids:
        t = rng.gamma(0.5, size=layout.views[rid][2]) + 1e-12
        logs.append(np.log(t / t.sum()).ravel())
    return Beliefs(layout, np.concatenate(logs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("bethe-grid", "plaquettes", "triplets", "qmr")),
    size=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(("conv1", "conv2", "conv3", "cccp")),
)
def test_layout_reductions_match_the_dict_references(kind, size, seed, variant):
    m, g = _graph_problem(kind, size, seed)
    try:
        kept = make_bound_spec(g, variant).inner_overcounts
    except ConvexityError:
        kept = make_bound_spec(g, "conv1").inner_overcounts
    rng = np.random.default_rng(seed)
    q, anchor = _laid_out(g, m.cards, rng), _laid_out(g, m.cards, rng)
    # The double loop starts on uniform beliefs, laid out too: the first
    # free energy and residual read them, and the first fold and delta take
    # them as the anchor.
    uniform = uniform_beliefs(g, m.cards)
    assert uniform.layout is g.layout(m.cards)
    pots = outer_log_potentials(m, g)
    for q_lay, anchor_lay in ((q, anchor), (uniform, q), (q, uniform)):
        for args in ((), (kept, anchor_lay)):
            want = dict_free_energy(g, m, q_lay, *args)
            assert abs(free_energy(pots, q_lay, *args) - want) <= 1e-12
        assert abs(constraint_residual(q_lay) - _dict_residual(g, q_lay)) <= 1e-12
        np.testing.assert_allclose(
            inner_potentials(pots, kept, anchor_lay).logs, _dict_fold(g, m, kept, anchor_lay), rtol=0, atol=1e-12
        )
        want = max(float(np.max(np.abs(q_lay.tables[r] - anchor_lay.tables[r]))) for r in q_lay.tables)
        assert abs(q_lay.delta(anchor_lay) - want) <= 1e-12
    # A non-finite entry is refused, naming its region.
    rid = g.regions[int(rng.integers(len(g.regions)))].id
    logs = q.logs.copy()
    logs[q.layout.views[rid][0]] = rng.choice([np.nan, np.inf])
    bad = Beliefs(q.layout, logs)
    for args in ((), (kept, anchor)):
        with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
            free_energy(pots, bad, *args)
