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
    BoundSpec,
    ConvexityError,
    InnerSettings,
    ModelSpec,
    OuterSettings,
    build_bethe,
    build_cvm,
    constraint_residual,
    free_energy,
    generate,
    inner_potentials,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    recompute_overcounts,
    uniform_beliefs,
)


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
    # The subset regions: the intersection closure, or the single variables.
    if bethe:
        want = {frozenset((v,)) for t in kept for v in t}
    else:
        want = _brute_closure(kept)
    assert {frozenset(r.vars) for r in g.regions} == want | {frozenset(t) for t in kept}
    sups, outers, hasse, counts = _brute_poset(g)
    assert g.supersets == sups
    assert g.containing_outers == outers
    assert list(g.hasse_edges) == hasse
    assert {r.id: r.overcount for r in g.regions} == counts
    assert recompute_overcounts(g) == counts
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
    # Table axes: those of the larger region's variables the smaller one lacks.
    for c, ps in sups.items():
        for p in ps:
            want = tuple(i for i, v in enumerate(g.region_vars(p)) if v not in vs[c])
            assert g.outside_axes(p, c) == want, (p, c)


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
def test_grid_and_full_traces_keep_their_promises(kind, size, seed, variant, max_sweeps):
    m, g = _graph_problem(kind, size, seed)
    try:
        spec = make_bound_spec(g, variant)
    except ConvexityError:
        assume(False)
    trace = minimize(m, g, spec, OuterSettings(inner=InnerSettings(max_sweeps=max_sweeps)))
    _assert_promises(trace)
    if max_sweeps == 3:
        # Three sweeps reach no fixed point on these loopy graphs: the first
        # solve fails and the run keeps the uniform start, unconverged.
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


def _xlogy(t, a):
    return float((t * np.log(np.maximum(a, 1e-300))).sum())


def _outside(g, p, c):
    return tuple(i for i, v in enumerate(g.region_vars(p)) if v not in g.region_vars(c))


def _dict_free_energy(g, m, q, kept=None, anchor=None):
    """The counted energy/entropy sum, table by table, with floored logs."""
    pots = outer_log_potentials(m, g)
    counts = g.subset_overcounts()
    kept = counts if kept is None else kept
    total = sum(-float((q.tables[a] * pots[a]).sum()) + _xlogy(q.tables[a], q.tables[a])
                for a in g.outer_ids)
    for b in g.subset_ids:
        t, ct = q.tables[b], kept.get(b, counts[b])
        total += ct * _xlogy(t, t)
        if anchor is not None:
            total += (counts[b] - ct) * _xlogy(t, anchor.tables[b])
    return total


def _dict_fold(g, m, kept, anchor):
    """Outer log potentials minus each subset's anchored share, cluster by cluster."""
    pots = outer_log_potentials(m, g)
    counts = g.subset_overcounts()
    for b in g.subset_ids:
        share = (counts[b] - kept.get(b, counts[b])) / g.outer_count[b]
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
    return Beliefs.on_layout(layout, np.concatenate(logs))


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
    spec = BoundSpec(variant, kept)
    for q_lay, anchor_lay in ((q, anchor), (uniform, q), (q, uniform)):
        # The same numbers as dicts of tables go through the adapters.
        q_dict, anchor_dict = q_lay.copy(), anchor_lay.copy()
        assert q_dict.layout is None
        for args, dict_args in (((), ()), ((kept, anchor_lay), (kept, anchor_dict))):
            want = _dict_free_energy(g, m, q_dict, *dict_args)
            assert abs(free_energy(g, m, q_lay, *args) - want) <= 1e-12
            assert abs(free_energy(g, m, q_dict, *dict_args) - want) <= 1e-12
        want = _dict_residual(g, q_dict)
        assert abs(constraint_residual(g, q_lay) - want) <= 1e-12
        assert abs(constraint_residual(g, q_dict) - want) <= 1e-12
        want = _dict_fold(g, m, kept, anchor_dict)
        for a in (anchor_lay, anchor_dict):
            np.testing.assert_allclose(inner_potentials(m, g, spec, a).logs, want, rtol=0, atol=1e-12)
        want = max(float(np.max(np.abs(q_dict.tables[r] - anchor_dict.tables[r]))) for r in q_dict.tables)
        assert abs(q_lay.delta(anchor_lay) - want) <= 1e-12
        assert q_dict.delta(anchor_dict) == want
    # A non-finite entry is refused, naming its region, in both forms.
    rid = g.regions[int(rng.integers(len(g.regions)))].id
    logs = q.logs.copy()
    logs[q.layout.views[rid][0]] = rng.choice([np.nan, np.inf])
    bad = Beliefs.on_layout(q.layout, logs)
    for beliefs in (bad, bad.copy()):
        for args in ((), (kept, anchor)):
            with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
                free_energy(g, m, beliefs, *args)
