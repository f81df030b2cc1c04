"""Inner-loop propagation: fixed points, validation, zero counts, warm starts."""
from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kikuchi import (
    BoundSpec,
    ConfigurationError,
    ConvexityError,
    FactorModel,
    MessageSet,
    ModelSpec,
    build_bethe,
    build_cvm,
    constraint_residual,
    exact_inference,
    free_energy,
    generate,
    inner_potentials,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    run_gbp,
    uniform_beliefs,
)
from kikuchi.propagation import _Solve, _log_normalize
from conftest import (
    assert_greedy_colouring,
    chain_model,
    cluster_tables,
    cycle_model,
    message_tables,
    pairwise_model,
    random_messages,
)

# The floor of the reference sweep's probability-domain tables.
LOG_FLOOR = 1e-300


def _true_counts(graph):
    return {b: float(graph.by_id[b].overcount) for b in graph.subset_ids}


def test_chain_reaches_exact_marginals():
    m = chain_model(6, seed=3)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, msgs, sweeps, converged = run_gbp(pots, _true_counts(g))
    assert converged
    exact = exact_inference(m, regions=[r.vars for r in g.regions])
    for rid in g.by_id:
        assert np.max(np.abs(q.tables[rid] - exact.marginals[rid])) < 1e-7
    assert constraint_residual(q) < 1e-8
    f = free_energy(pots, q)
    assert abs(f + exact.log_z) < 1e-7


def test_mixed_cardinalities_chain():
    m = chain_model(4, seed=5, cards=[2, 3, 4, 2])
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, _, _, converged = run_gbp(pots, _true_counts(g))
    assert converged
    exact = exact_inference(m, regions=[r.vars for r in g.regions])
    for rid in g.by_id:
        assert np.max(np.abs(q.tables[rid] - exact.marginals[rid])) < 1e-7


def _projected_gradient_minimum(graph, model, steps=20000):
    """Minimize the counted functional over the affine constraint set.

    Stops when the projected gradient vanishes, when no step is accepted, or
    once ``f`` has stopped decreasing: 100 accepted steps in a row that leave
    it unchanged.
    """
    cards = model.cards
    pots = cluster_tables(model, graph)
    ids = [r.id for r in graph.regions]
    outer = set(graph.outer_ids)
    counts = {r.id: float(r.overcount) for r in graph.regions}
    shapes = {r.id: tuple(cards[v] for v in r.vars) for r in graph.regions}
    sizes = {rid: int(np.prod(shapes[rid])) for rid in ids}
    offset, total = {}, 0
    for rid in ids:
        offset[rid] = total
        total += sizes[rid]

    rows = []
    for rid in ids:
        row = np.zeros(total)
        row[offset[rid]:offset[rid] + sizes[rid]] = 1.0
        rows.append(row)
    for p, c in graph.hasse_edges:
        vp, vc = graph.region_vars(p), graph.region_vars(c)
        for ci, cconf in enumerate(np.ndindex(shapes[c])):
            row = np.zeros(total)
            for pi, pconf in enumerate(np.ndindex(shapes[p])):
                if all(pconf[vp.index(v)] == cconf[k] for k, v in enumerate(vc)):
                    row[offset[p] + pi] = 1.0
            row[offset[c] + ci] = -1.0
            rows.append(row)
    A = np.array(rows)
    x = np.concatenate([np.full(sizes[rid], 1.0 / sizes[rid]) for rid in ids])
    b = A @ x  # uniform tables are feasible by symmetry

    _, s, vt = np.linalg.svd(A)
    rank = int((s > 1e-10 * s[0]).sum())
    null = vt[rank:].T

    psi_full = np.zeros(total)
    coef = np.zeros(total)
    for rid in ids:
        sl = slice(offset[rid], offset[rid] + sizes[rid])
        if rid in outer:
            psi_full[sl] = pots[rid].reshape(-1)
            coef[sl] = 1.0
        else:
            coef[sl] = counts[rid]

    def value_grad(vec):
        logv = np.log(vec)
        f = float(-(vec @ psi_full) + (coef * vec * logv).sum())
        return f, -psi_full + coef * (1.0 + logv)

    f, g = value_grad(x)
    prev_d = prev_x = None
    flat = 0
    for _ in range(steps):
        d = null @ (null.T @ g)
        if np.max(np.abs(d)) < 1e-11:
            break
        if prev_d is None:
            step = 1.0
        else:
            dx, dg = x - prev_x, d - prev_d
            denom = float(dx @ dg)
            step = float(dx @ dx) / denom if denom > 0 else 1.0
        prev_x, prev_d = x.copy(), d.copy()
        slope = float(d @ g)
        while step > 1e-18:
            xn = x - step * d
            if xn.min() > 1e-12:
                fn, gn = value_grad(xn)
                if fn <= f - 1e-4 * step * slope:
                    flat = flat + 1 if fn == f else 0
                    x, f, g = xn, fn, gn
                    break
            step *= 0.5
        else:
            break
        if flat == 100:
            break
    assert np.max(np.abs(A @ x - b)) < 1e-9
    tables = {rid: x[offset[rid]:offset[rid] + sizes[rid]].reshape(shapes[rid])
              for rid in ids}
    return f, tables


def test_triangle_matches_projected_gradient():
    # certified convex case: the constrained minimum is unique
    m = cycle_model(3, seed=7)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, _, _, converged = run_gbp(pots, _true_counts(g))
    assert converged
    f_gbp = free_energy(pots, q)
    f_pg, tables = _projected_gradient_minimum(g, m)
    assert abs(f_gbp - f_pg) < 1e-8
    for rid, t in tables.items():
        assert np.max(np.abs(q.tables[rid] - t)) < 1e-5


def test_square_cycle_matches_projected_gradient():
    m = cycle_model(4, seed=9, scale=1.5)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, _, _, converged = run_gbp(pots, _true_counts(g))
    assert converged
    f_pg, _ = _projected_gradient_minimum(g, m)
    assert abs(free_energy(pots, q) - f_pg) < 1e-8


def test_exponent_must_stay_positive():
    m = chain_model(3, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    bad = _true_counts(g)
    b = g.subset_ids[0]
    bad[b] = -float(len(g.containing_outers[b]))
    with pytest.raises(ConfigurationError, match="exponent"):
        run_gbp(pots, bad)


def test_a_count_left_out_is_the_graphs_count():
    # run_gbp reads a subset missing from its count map as free_energy,
    # inner_potentials and minimize do: at the graph's own count.
    m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    (q, msgs, sweeps, ok), (q_full, msgs_full, sweeps_full, ok_full) = (
        run_gbp(pots, {}), run_gbp(pots, g.subset_overcounts())
    )
    assert (sweeps, ok) == (sweeps_full, ok_full)
    assert msgs.layout is msgs_full.layout
    np.testing.assert_array_equal(q.logs, q_full.logs)
    for mine, full in zip(msgs.logs, msgs_full.logs):
        np.testing.assert_array_equal(mine, full)
    # So a bound that leaves every count out keeps them all, inner loop too.
    left_out, full = (minimize(m, g, BoundSpec("cccp", c)) for c in ({}, g.subset_overcounts()))
    assert (left_out.outer_iterations, left_out.final_f) == (full.outer_iterations, full.final_f)


def test_chain_ends_get_no_region_and_every_subset_is_swept():
    # The chain's end variables lie in one cluster each, so they get no
    # region, and every subset region is swept.
    m = chain_model(4, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    assert [g.region_vars(b) for b in g.subset_ids] == [(1,), (2,)]
    q, msgs, _, converged = run_gbp(pots, _true_counts(g))
    assert converged
    assert sorted(b for level in msgs.layout.levels for b in level) == list(g.subset_ids)
    assert constraint_residual(q) < 1e-8


def test_direct_intersections_stay_active_at_zero_count():
    # conv1 zeroes the count of a shared edge region; messages still flow
    plaq = [(0, 1, 2, 3), (2, 3, 4, 5)]
    g = build_cvm(plaq, 6)
    m = pairwise_model(6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)],
                       np.random.default_rng(4), 1.0)
    pots = outer_log_potentials(m, g)
    spec = make_bound_spec(g, "conv1")
    shared = next(b for b in g.subset_ids if g.region_vars(b) == (2, 3))
    assert spec.inner_overcounts[shared] == 0.0
    q, msgs, _, converged = run_gbp(pots, spec.inner_overcounts)
    assert converged
    assert any(b == shared for _, b in msgs.layout.edge_views)
    assert constraint_residual(q) < 1e-8


def test_zero_count_regions_outside_intersections_stay_active():
    # A Bethe graph is not closed under intersection: clusters (1, 8, 10)
    # and (5, 8, 10) meet in (8, 10), so region (10,) lies in two clusters
    # without being a pairwise intersection.  conv1 zeroes its count;
    # dropping it from the sweep used to stop conv1 at f = 9.24425 with a
    # constraint residual of 0.064.
    m = generate(ModelSpec("qmr_like", diseases=12, findings=8, seed=1))
    g = build_bethe(m.scopes, m.num_vars)
    finals = []
    for variant in ("conv1", "conv3", "cccp"):
        trace = minimize(m, g, make_bound_spec(g, variant))
        assert trace.converged, variant
        assert trace.outer[-1].constraint_residual < 1e-6, variant
        finals.append(trace.final_f)
    assert max(finals) - min(finals) < 1e-6
    assert abs(finals[0] - 9.26281) < 1e-5


def test_warm_start_resumes_at_fixed_point():
    m = cycle_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    q, msgs, sweeps, converged = run_gbp(pots, c)
    assert converged and sweeps > 2
    q2, _, resumed, _ = run_gbp(pots, c, warm=msgs)
    assert resumed <= 2
    assert q.delta(q2) < 1e-7


def test_random_message_inits_agree():
    rng = np.random.default_rng(8)
    m = cycle_model(6, seed=10, scale=1.5)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    ref, msgs, _, _ = run_gbp(pots, c)
    for _ in range(5):
        q, _, _, converged = run_gbp(pots, c, warm=random_messages(msgs.layout, rng))
        assert converged
        assert q.delta(ref) < 1e-5


def test_foreign_warm_messages_are_rejected():
    # Only messages that run_gbp computed on the same layout object
    # warm-start a run.
    m = chain_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    _, msgs, _, _ = run_gbp(pots, c, max_sweeps=3)
    foreign = [
        (outer_log_potentials(m, build_bethe(m.scopes, m.num_vars)), c, msgs),  # an equal graph, another object
        (outer_log_potentials(chain_model(5, seed=6, cards=[3, 2, 2, 2, 2]), g), c, msgs),
        (pots, c, message_tables(msgs)),
    ]
    for other, counts, warm in foreign:
        with pytest.raises(ConfigurationError, match="warm messages"):
            run_gbp(other, counts, warm=warm)


def test_warm_messages_of_the_wrong_length_are_rejected():
    # Messages on the right layout object whose arrays have entries to spare
    # or missing are refused before any sweep, not left to fail in numpy.
    m = chain_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    _, msgs, _, _ = run_gbp(pots, c, max_sweeps=3)
    up, down = msgs.logs
    n = len(up)
    for warm in ((np.append(up, up[:2]), np.append(down, down[:2])), (up[:-2], down[:-2]), (up, down[:-2])):
        with pytest.raises(ConfigurationError, match=f"warm message arrays .* {n} message entries"):
            run_gbp(pots, c, warm=MessageSet(msgs.layout, *warm))


def test_warm_start_carries_across_count_sets():
    # Messages from one count set warm-start a run with another on the same
    # layout: conv1 counts (zero) then cccp counts (one), both undamped.
    m = cycle_model(6, seed=3)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c1, cc = (make_bound_spec(g, v).inner_overcounts for v in ("conv1", "cccp"))
    assert set(c1.values()) == {0.0} and set(cc.values()) == {1.0}
    cold, _, _, cold_ok = run_gbp(pots, cc, tol=1e-12)
    _, msgs, _, _ = run_gbp(pots, c1, tol=1e-12)
    warm, _, _, warm_ok = run_gbp(pots, cc, tol=1e-12, warm=msgs)
    assert cold_ok and warm_ok
    assert warm.delta(cold) < 1e-8


def test_truncated_run_reports_not_converged():
    m = cycle_model(6, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, _, sweeps, converged = run_gbp(pots, _true_counts(g), max_sweeps=1)
    assert sweeps == 1
    assert not converged


def test_zero_potentials_fix_uniform_beliefs():
    m = pairwise_model(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                       np.random.default_rng(0), 0.0)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q, _, sweeps, converged = run_gbp(pots, _true_counts(g))
    assert converged
    for rid, t in q.tables.items():
        assert np.max(np.abs(t - 1.0 / t.size)) < 1e-12
    f = free_energy(pots, q)
    assert abs(f - (-4 * math.log(4.0) + 4 * math.log(2.0))) < 1e-10


def _reference_gbp(model, graph, subset_counts, *, tol=1e-8, max_sweeps=2000, warm=None):
    """The sweep one subset region at a time, in the layout's colour order.

    The oracle for ``run_gbp``'s level-by-level sweep: the same floors,
    normalizations, damping rule, rebuild period and stopping test.  It
    visits the subsets one by one, colour after colour: the subsets of one
    colour share no cluster, so any order that keeps the colour classes in
    turn is one and the same sequential sweep.  ``warm`` is an (up, down)
    pair of message tables, as ``message_tables`` gives them, and the
    messages come back as such a pair, the beliefs as tables.
    """
    cards, pots, cont = model.cards, cluster_tables(model, graph), graph.containing_outers
    count = {b: float(subset_counts.get(b, graph.by_id[b].overcount)) for b in graph.subset_ids}
    act = tuple(b for level in graph.layout(cards).levels for b in level)
    denom = {b: len(cont[b]) + count[b] for b in act}
    damping = 0.0 if all(count[b] >= 0 for b in act) else 0.5

    def softmax(t):
        t = np.exp(t - t.max())
        return t / t.sum()

    def inside(a, b):
        """Axes of a summed out to reach b, and b's shape broadcast in a."""
        va, vb = graph.region_vars(a), set(graph.region_vars(b))
        return (tuple(i for i, v in enumerate(va) if v not in vb),
                tuple(cards[v] if v in vb else 1 for v in va))

    up, down = {}, {}
    for b in act:
        shape = tuple(cards[v] for v in graph.region_vars(b))
        for a in cont[b]:
            if warm is not None and (a, b) in warm[0] and (b, a) in warm[1]:
                u = np.maximum(warm[0][(a, b)].astype(float), LOG_FLOOR)
                d = np.maximum(warm[1][(b, a)].astype(float), LOG_FLOOR)
                up[(a, b)], down[(b, a)] = u / u.sum(), d / d.sum()
            else:
                up[(a, b)] = down[(b, a)] = np.full(shape, 1.0 / math.prod(shape))

    def rebuild(a):
        acc = pots[a].copy()
        for b in act:
            if a in cont[b]:
                acc += np.log(down[(b, a)]).reshape(inside(a, b)[1])
        return acc

    logacc = {a: rebuild(a) for a in graph.outer_ids}
    q_out = {a: softmax(logacc[a]) for a in graph.outer_ids}
    q_sub = {b: softmax(sum(np.log(up[(a, b)]) for a in cont[b]) / denom[b]) for b in act}
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        prev = dict(q_sub)
        for b in act:
            for a in cont[b]:
                u = np.maximum(q_out[a].sum(axis=inside(a, b)[0]) / down[(b, a)], LOG_FLOOR)
                up[(a, b)] = u / u.sum()
            logq = sum(np.log(up[(a, b)]) for a in cont[b]) / denom[b]
            if damping:
                logq = (1.0 - damping) * logq + damping * np.log(np.maximum(q_sub[b], LOG_FLOOR))
            q_sub[b] = q = softmax(logq)
            for a in cont[b]:
                nd = np.maximum(q / up[(a, b)], LOG_FLOOR)
                nd /= nd.sum()
                logacc[a] += (np.log(nd) - np.log(down[(b, a)])).reshape(inside(a, b)[1])
                down[(b, a)] = nd
                q_out[a] = softmax(logacc[a])
        delta = float(np.max([np.max(np.abs(q_sub[b] - prev[b])) for b in act], initial=0.0))
        if math.isnan(delta):
            break
        if sweeps % 64 == 0:
            logacc = {a: rebuild(a) for a in graph.outer_ids}
            q_out = {a: softmax(logacc[a]) for a in graph.outer_ids}
        converged = delta < tol

    tabs = {a: softmax(rebuild(a)) for a in graph.outer_ids}
    tabs.update(q_sub)
    converged = converged and all(np.isfinite(t).all() for t in tabs.values())
    return tabs, (up, down), sweeps, converged


def _plaquettes(rows, cols):
    return [(r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
            for r in range(rows - 1) for c in range(cols - 1)]


MIXED_CARDS = (3, 2, 3, 3, 2, 3)
MIXED_SCOPES = [(0, 1, 2), (1, 2, 3), (2, 3, 4, 5), (0, 5), (0, 3, 4)]


def _problem(kind, size, seed):
    """A (model, region graph) pair of one of the families the sweep serves."""
    if kind == "mixed-cards":
        # Clusters of 6 to 54 entries over subsets of 2 to 9, so every level's
        # groups differ in width: the sweep's padded blocks.
        rng = np.random.default_rng(seed)
        tables = [rng.normal(size=tuple(MIXED_CARDS[v] for v in s)) for s in MIXED_SCOPES]
        m = FactorModel(MIXED_CARDS, MIXED_SCOPES, tables)
        g = (build_bethe if size % 2 else build_cvm)(MIXED_SCOPES, m.num_vars)
        layout = g.layout(m.cards)
        assert any((step.block == layout.outer_size).any() for step in layout.sweep_steps)
        return m, g
    if kind == "bethe-cycle":
        m = cycle_model(3 + size, seed=seed, scale=1.5)
        return m, build_bethe(m.scopes, m.num_vars)
    if kind in ("bethe-grid", "plaquettes"):
        rows = 2 + size % 2
        m = generate(ModelSpec("grid_boltzmann", rows=rows, cols=3, seed=seed))
        if kind == "bethe-grid":
            return m, build_bethe(m.scopes, m.num_vars)
        return m, build_cvm(_plaquettes(rows, 3), m.num_vars)
    if kind in ("triplets", "triplets-strong"):
        w = 3.0 if kind == "triplets-strong" else 1.0
        m = generate(ModelSpec("full_boltzmann", nodes=4 + size % 2, weight_scale=w, seed=seed))
        return m, build_cvm(list(combinations(range(m.num_vars), 3)), m.num_vars)
    m = generate(ModelSpec("qmr_like", diseases=3 + size, findings=2 + size % 3, seed=seed))
    return m, build_bethe(m.scopes, m.num_vars)


def _assert_same_run(got, want):
    (q, msgs, sweeps, ok), (q_ref, msgs_ref, sweeps_ref, ok_ref) = got, want
    assert (sweeps, ok) == (sweeps_ref, ok_ref)
    assert q.tables.keys() == q_ref.keys()
    assert max(np.max(np.abs(q.tables[k] - t)) for k, t in q_ref.items()) < 1e-12
    for mine, ref in zip(message_tables(msgs), msgs_ref):
        assert mine.keys() == ref.keys()
        for k in ref:
            assert np.max(np.abs(mine[k] - ref[k])) < 1e-12, k


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ("bethe-cycle", "bethe-grid", "plaquettes", "triplets", "triplets-strong", "qmr", "mixed-cards")
    ),
    size=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    counts=st.sampled_from(("true", "conv1", "conv3", "cccp")),
)
# Strong couplings with the true counts on n=5: the warm run's log messages
# reach -1e29, so its probabilities fall far below the reference's 1e-300
# floor.
@example(kind="triplets-strong", size=1, seed=0, counts="true")
# Mixed cards under CVM and Bethe regions: padded levels.
@example(kind="mixed-cards", size=0, seed=0, counts="conv3")
@example(kind="mixed-cards", size=1, seed=0, counts="conv1")
def test_level_sweep_replays_the_per_region_sweep(kind, size, seed, counts):
    m, g = _problem(kind, size, seed)
    pots = outer_log_potentials(m, g)
    if counts == "true":
        c = g.subset_overcounts()
    else:
        try:
            c = make_bound_spec(g, counts).inner_overcounts
        except ConvexityError:
            assume(False)
    want = _reference_gbp(m, g, c, max_sweeps=7)
    cold = run_gbp(pots, c, max_sweeps=7)
    _assert_same_run(cold, want)
    # Warm starts: the level sweep from its own messages (on their layout)
    # and the reference from its own.
    _assert_same_run(run_gbp(pots, c, max_sweeps=300, warm=cold[1]),
                     _reference_gbp(m, g, c, max_sweeps=300, warm=want[1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 6),
    raw=st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=4), min_size=2, max_size=6),
    card_seed=st.integers(0, 2**16),
)
# The 5x5 plaquette graph: its 8 colours visit the subsets out of id order.
@example(n=25, raw=[[v, v + 1, v + 5, v + 6] for v in (r * 5 + c for r in range(4) for c in range(4))],
         card_seed=0)
def test_entry_maps_match_the_coordinate_reference(n, raw, card_seed):
    # Each cluster entry's index into its subset's table, computed from the
    # cluster's coordinates with np.indices and np.ravel_multi_index; the
    # messages are numbered in the layout's sweep order.  The layout's scatter
    # is read one subset at a time: with the value k + 1 at each message
    # entry k of that subset and zero elsewhere, every cluster entry must
    # receive the number of the entry it sums into, plus one.
    cards = tuple(int(c) for c in np.random.default_rng(card_seed).integers(2, 5, size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_cvm([tuple(v % n for v in cl) for cl in raw], n)
    layout = g.layout(cards)
    want, at = {}, 0
    for a, b in layout.edge_views:
        vb, va = g.region_vars(b), g.region_vars(a)
        coords = np.indices([cards[v] for v in va]).reshape(len(va), -1)
        keep = tuple(coords[i] for i, v in enumerate(va) if v in vb)
        want[a, b] = at + np.ravel_multi_index(keep, [cards[v] for v in vb])
        at += math.prod(cards[v] for v in vb)
    zeros = np.zeros(len(layout.message_segments[1]))
    for b in g.subset_ids:
        per_group = zeros.copy()
        for a in g.containing_outers[b]:
            lo, hi, _ = layout.edge_views[a, b]
            per_group[lo:hi] = np.arange(lo, hi) + 1
        got = layout.into_clusters(np.zeros(layout.outer_size), per_group)
        for a in g.outer_ids:
            np.testing.assert_array_equal(got[slice(*layout.views[a][:2])], want[a, b] + 1 if (a, b) in want else 0)
    pots = np.random.default_rng(card_seed).normal(size=layout.outer_size)
    np.testing.assert_array_equal(layout.into_clusters(pots, zeros), pots)


def test_levels_group_regions_with_disjoint_clusters():
    plaq = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0))
    plaq_graph = build_cvm(_plaquettes(5, 5), plaq.num_vars)
    cases = [(plaq, plaq_graph, "conv3")]
    cases += [(*_problem(kind, 3, 1), "conv1") for kind in ("triplets", "qmr", "bethe-grid")]
    for m, g, variant in cases:
        _, msgs, _, _ = run_gbp(outer_log_potentials(m, g), make_bound_spec(g, variant).inner_overcounts,
                                max_sweeps=1)
        layout = msgs.layout
        levels = layout.levels
        assert_greedy_colouring(g, levels)
        # The layout holds the subsets in sweep order.
        assert layout.ids == g.outer_ids + tuple(b for level in levels for b in level)
        # The steps' message and subset-block slices tile both arrays in
        # level order, each level's pairs and subsets in ascending id.
        steps = layout.sweep_steps
        msg_cuts, sub_cuts = [step.msg for step in steps], [step.sub for step in steps]
        totals = len(layout.message_segments[1]), len(layout.subset_segments[1])
        for cuts, total in zip((msg_cuts, sub_cuts), totals):
            assert [0] + [cut.stop for cut in cuts] == [cut.start for cut in cuts] + [total]
        for level, msg in zip(levels, msg_cuts):
            pairs = [np.arange(*layout.edge_views[a, b][:2]) for b in level for a in g.containing_outers[b]]
            np.testing.assert_array_equal(np.concatenate(pairs), np.arange(msg.start, msg.stop))

    # The number of colours does not grow with the graph.
    qmr = generate(ModelSpec("qmr_like", diseases=20, findings=10, seed=0))
    graphs = {
        "plaquettes-5x5": (plaq_graph, plaq.cards),
        "plaquettes-8x8": (build_cvm(_plaquettes(8, 8), 64), (2,) * 64),
        "plaquettes-16x16": (build_cvm(_plaquettes(16, 16), 256), (2,) * 256),
        "triplets-n5": (build_cvm(list(combinations(range(5), 3)), 5), (2,) * 5),
        "qmr-20x10-bethe": (build_bethe(qmr.scopes, qmr.num_vars), qmr.cards),
        "chain-300-bethe": (build_bethe([(i, i + 1) for i in range(299)], 300), (2,) * 300),
    }
    colours = {}
    for name, (g, cards) in graphs.items():
        levels = g.layout(cards).levels
        assert_greedy_colouring(g, levels)
        colours[name] = len(levels)
    assert colours == {"plaquettes-5x5": 8, "plaquettes-8x8": 8, "plaquettes-16x16": 8, "triplets-n5": 12,
                       "qmr-20x10-bethe": 3, "chain-300-bethe": 2}

    # On the 5x5 plaquette graph, sweep order moves most subsets off their
    # id rank; every reader of a count finds the region where it now is.
    layout = plaq_graph.layout(plaq.cards)
    n_outer = len(plaq_graph.outer_ids)
    rank = {b: i for i, b in enumerate(plaq_graph.subset_ids)}
    moved = [b for i, b in enumerate(layout.ids[n_outer:]) if rank[b] != i]
    assert (len(rank), len(moved)) == (33, 31)
    counts = plaq_graph.subset_overcounts()
    for b in moved:
        changed = {**counts, b: counts[b] + 0.5}
        diff = layout.kept_counts(changed) - layout.kept_counts(counts)
        np.testing.assert_array_equal(np.flatnonzero(diff), [layout.ids.index(b)])
    b = moved[0]
    bad = {**counts, b: -float(len(plaq_graph.containing_outers[b]))}
    with pytest.raises(ConfigurationError, match=f"^region {b}: "):
        run_gbp(outer_log_potentials(plaq, plaq_graph), bad)


def test_warm_start_keeps_the_layout_and_returns_fresh_tables():
    m = chain_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    q1, msgs1, _, _ = run_gbp(pots, c, max_sweeps=3)
    q2, msgs2, _, _ = run_gbp(pots, c, warm=msgs1)
    assert msgs2.layout is msgs1.layout is pots.layout
    for a, b in zip(msgs1.logs + (q1.logs, q1.probs), msgs2.logs + (q2.logs, q2.probs)):
        assert not np.shares_memory(a, b)


def test_stopping_test_passes_over_nan_regions():
    # The stopping test does not pass over a region whose change is NaN: the
    # sweep stops at once, unconverged, and never reports NaN tables as a
    # fixed point.
    m = cycle_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    _, msgs, _, _ = run_gbp(pots, c, max_sweeps=3)
    log_down = msgs.logs[1].copy()
    lo, hi, _ = next(iter(msgs.layout.edge_views.values()))
    log_down[lo:hi] = np.nan
    warm = MessageSet(msgs.layout, msgs.logs[0], log_down)
    with np.errstate(invalid="ignore"):
        q, msgs, sweeps, converged = run_gbp(pots, c, warm=warm)
        q_ref, msgs_ref, sweeps_ref, converged_ref = _reference_gbp(m, g, c, warm=message_tables(warm))
    assert (sweeps, converged) == (sweeps_ref, converged_ref)
    assert converged is False and sweeps == 1
    assert any(np.isnan(t).any() for t in q.tables.values())
    for rid, t in q_ref.items():
        np.testing.assert_allclose(q.tables[rid], t, rtol=0, atol=1e-12)
    # The messages of the stopping sweep come back too, NaN where the
    # reference's are.
    for mine, ref in zip(message_tables(msgs), msgs_ref):
        assert mine.keys() == ref.keys()
        for k in ref:
            np.testing.assert_allclose(mine[k], ref[k], rtol=0, atol=1e-12)


def test_zero_sweeps_return_the_warm_messages_normalized():
    m = cycle_model(5, seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    c = _true_counts(g)
    layout = run_gbp(pots, c, max_sweeps=3)[1].layout
    msg_starts, msg_pair = layout.message_segments
    rng = np.random.default_rng(2)
    want = random_messages(layout, rng)
    shifted = [x + rng.normal(0.0, 50.0, len(msg_starts))[msg_pair] for x in want.logs]
    _, msgs, sweeps, converged = run_gbp(pots, c, max_sweeps=0, warm=MessageSet(layout, *shifted))
    assert (sweeps, converged) == (0, False)
    for mine, ref in zip(msgs.logs, want.logs):
        np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)


def test_log_normalize_matches_the_max_shifted_reference():
    # Segments of 1 to 64 random entries, then extreme ones: entries near
    # -1e29, spans beyond exp's 745 range, single entries and no entries.
    rng = np.random.default_rng(5)
    random = [rng.normal(0.0, rng.choice([1.0, 30.0, 1e3]), rng.integers(1, 65)) for _ in range(300)]
    extreme = [
        np.array([-1e29, -1e29 + 3e13, -1e29 - 1e14]),
        np.array([0.0, -746.0, -1000.0, -5000.0]),
        np.array([-2e4, -1e3, -3e4]),
        np.array([7.0]),
        np.array([-1e29]),
    ]
    for segments in (random, extreme, []):
        x = np.concatenate(segments) if segments else np.zeros(0)
        want = np.concatenate([v - (v.max() + np.log(np.exp(v - v.max()).sum())) for v in segments] or [x])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sizes = np.array([len(v) for v in segments], dtype=np.intp)
            got = _log_normalize(x, np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def _plaquettes_5x5():
    m = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0))
    return m, build_cvm(_plaquettes(5, 5), 25)


def _qmr_20x10():
    m = generate(ModelSpec("qmr_like", diseases=20, findings=10, seed=0))
    return m, build_bethe(m.scopes, m.num_vars)


@pytest.mark.parametrize("problem, variant, damped", [
    (_plaquettes_5x5, "conv3", True),
    (_qmr_20x10, "conv1", False),
    (lambda: _problem("mixed-cards", 0, 0), "conv3", True),
], ids=["plaquettes-5x5-conv3", "qmr-20x10-bethe-conv1", "mixed-cards-cvm-conv3"])
def test_sweep_is_a_map_on_the_solver_state(problem, variant, damped):
    # ``_Solve.sweep`` maps the state (cluster log tables, up and down log
    # messages, subset log-belief block) to the next one in place.  From a
    # warm start on the messages of a short run, 64 sweeps with no rebuild
    # keep the carried cluster tables equal to the scatter of the downward
    # messages, which the driver's rebuild and any mixing of iterates rely
    # on; leave every subset table normalized; and act on two states started
    # alike, bit for bit.  The sentinel slot past the cluster tables, which
    # the padded levels of the mixed-card graph read, stays at -inf.
    m, g = problem()
    bound = make_bound_spec(g, variant)
    pots = inner_potentials(outer_log_potentials(m, g), bound.inner_overcounts, uniform_beliefs(g, m.cards))
    layout = pots.layout
    _, msgs, sweeps, _ = run_gbp(pots, bound.inner_overcounts, max_sweeps=5)
    assert sweeps == 5
    solve, twin = (_Solve(pots, bound.inner_overcounts, msgs) for _ in range(2))
    assert bool(solve.damping) == damped

    def state(s):
        return [s.logacc, s.log_up, s.log_down, s.log_sub]

    start = [x.copy() for x in state(solve)]
    for _ in range(64):
        solve.sweep()
        twin.sweep()
    for now, then, other in zip(state(solve), start, state(twin)):
        assert not np.array_equal(now, then)
        np.testing.assert_array_equal(now, other)
    np.testing.assert_allclose(solve.logacc, layout.into_clusters(pots.logs, solve.log_down), rtol=0, atol=1e-9)
    assert solve._acc[-1] == -np.inf
    totals = np.add.reduceat(np.exp(solve.log_sub), layout.subset_segments[0])
    np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)


def test_the_message_shift_bounds_the_messages():
    # Bethe regions of a full n=8 model under conv3 keep a count of -6 on a
    # variable in 7 clusters, so an update's exponent times (1 - damping)
    # reaches 3.5.  Each message's constant would then grow geometrically
    # from sweep to sweep (to about 1e56 after 200 sweeps, NaN later); the
    # shift of each message to a maximum of zero holds it near 1.3.
    m = generate(ModelSpec("full_boltzmann", nodes=8, weight_scale=1.0, seed=0))
    g = build_bethe(m.scopes, m.num_vars)
    bound = make_bound_spec(g, "conv3")
    pots = inner_potentials(outer_log_potentials(m, g), bound.inner_overcounts, uniform_beliefs(g, m.cards))
    layout, n_outer = pots.layout, len(g.outer_ids)
    _, msgs, sweeps, _ = run_gbp(pots, bound.inner_overcounts, max_sweeps=5)
    assert sweeps == 5
    solve = _Solve(pots, bound.inner_overcounts, msgs)
    kept, n = layout.kept_counts(bound.inner_overcounts)[n_outer:], layout.outer_counts[n_outer:]
    assert (kept.min(), (n / (n + kept)).max(), solve.damping) == (-6.0, 7.0, 0.5)
    for _ in range(200):
        solve.sweep()
    assert np.isfinite(solve.log_down).all() and np.abs(solve.log_down).max() <= 10
