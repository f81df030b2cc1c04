"""Property tests: region graphs against brute-force definitions, and the
promises of a returned trace on random small models."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    ConvexityError,
    ModelSpec,
    build_bethe,
    build_cvm,
    generate,
    make_bound_spec,
    minimize,
    recompute_overcounts,
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
    trace = minimize(m, g, spec)
    fs = [r.f_kik for r in trace.outer]
    assert all(math.isfinite(f) for f in fs)
    for t, (a, b) in enumerate(zip(fs, fs[1:])):
        assert b <= a + 1e-9, f"rise at outer {t + 1}"
    if trace.converged:
        assert trace.outer[-1].constraint_residual <= 1e-6
