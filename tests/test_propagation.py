"""Inner-loop propagation: fixed points, validation, pruning, warm starts."""
from __future__ import annotations

import math

import numpy as np
import pytest

from kikuchi import (
    ConfigurationError,
    InnerSettings,
    MessageSet,
    ModelSpec,
    build_bethe,
    build_cvm,
    constraint_residual,
    exact_inference,
    free_energy,
    generate,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    run_gbp,
)
from conftest import chain_model, cycle_model, pairwise_model


def _true_counts(graph):
    return {b: float(graph.by_id[b].overcount) for b in graph.subset_ids}


def test_chain_reaches_exact_marginals():
    m = chain_model(6, seed=3)
    g = build_bethe(m.scopes, m.num_vars)
    q, msgs, sweeps, converged = run_gbp(m, g, _true_counts(g))
    assert converged
    exact = exact_inference(m, regions=g)
    for rid in g.by_id:
        assert np.max(np.abs(q.tables[rid] - exact.marginals.tables[rid])) < 1e-7
    assert constraint_residual(g, q) < 1e-8
    f = free_energy(g, m, q)
    assert abs(f + exact.log_z) < 1e-7


def test_mixed_cardinalities_chain():
    m = chain_model(4, seed=5, cards=[2, 3, 4, 2])
    g = build_bethe(m.scopes, m.num_vars)
    q, _, _, converged = run_gbp(m, g, _true_counts(g))
    assert converged
    exact = exact_inference(m, regions=g)
    for rid in g.by_id:
        assert np.max(np.abs(q.tables[rid] - exact.marginals.tables[rid])) < 1e-7


def _projected_gradient_minimum(graph, model, steps=20000):
    """Minimize the counted functional over the affine constraint set."""
    cards = model.cards
    pots = outer_log_potentials(model, graph)
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
                    x, f, g = xn, fn, gn
                    break
            step *= 0.5
        else:
            break
    assert np.max(np.abs(A @ x - b)) < 1e-9
    tables = {rid: x[offset[rid]:offset[rid] + sizes[rid]].reshape(shapes[rid])
              for rid in ids}
    return f, tables


def test_triangle_matches_projected_gradient():
    # certified convex case: the constrained minimum is unique
    m = cycle_model(3, seed=7)
    g = build_bethe(m.scopes, m.num_vars)
    q, _, _, converged = run_gbp(m, g, _true_counts(g))
    assert converged
    f_gbp = free_energy(g, m, q)
    f_pg, tables = _projected_gradient_minimum(g, m)
    assert abs(f_gbp - f_pg) < 1e-8
    for rid, t in tables.items():
        assert np.max(np.abs(q.tables[rid] - t)) < 1e-5


def test_square_cycle_matches_projected_gradient():
    m = cycle_model(4, seed=9, scale=1.5)
    g = build_bethe(m.scopes, m.num_vars)
    q, _, _, converged = run_gbp(m, g, _true_counts(g))
    assert converged
    f_pg, _ = _projected_gradient_minimum(g, m)
    assert abs(free_energy(g, m, q) - f_pg) < 1e-8


def test_exponent_must_stay_positive():
    m = chain_model(3, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    bad = _true_counts(g)
    b = g.subset_ids[0]
    bad[b] = -float(g.outer_count[b])
    with pytest.raises(ConfigurationError, match="exponent"):
        run_gbp(m, g, bad)


def test_damping_range_is_validated():
    m = chain_model(3, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(ConfigurationError, match="damping"):
            run_gbp(m, g, _true_counts(g), InnerSettings(damping=bad))


def test_pruned_regions_still_get_beliefs():
    m = chain_model(4, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    counts = _true_counts(g)
    endpoints = [b for b in g.subset_ids if counts[b] == 0.0]
    assert endpoints  # chain ends appear in a single cluster
    q, msgs, _, converged = run_gbp(m, g, counts)
    assert converged
    for b in endpoints:
        assert b in q.tables
        assert all((a, b) not in msgs.up for a in g.outer_ids)
    assert constraint_residual(g, q) < 1e-8


def test_direct_intersections_stay_active_at_zero_count():
    # conv1 zeroes the count of a shared edge region; messages still flow
    plaq = [(0, 1, 2, 3), (2, 3, 4, 5)]
    g = build_cvm(plaq, 6)
    m = pairwise_model(6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)],
                       np.random.default_rng(4), 1.0)
    spec = make_bound_spec(g, "conv1")
    shared = next(b for b in g.subset_ids if g.region_vars(b) == (2, 3))
    assert spec.inner_overcounts[shared] == 0.0
    q, msgs, _, converged = run_gbp(m, g, spec.inner_overcounts)
    assert converged
    assert any(k[1] == shared for k in msgs.up)
    assert constraint_residual(g, q) < 1e-8


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
    c = _true_counts(g)
    q, msgs, sweeps, converged = run_gbp(m, g, c)
    assert converged and sweeps > 2
    q2, _, resumed, _ = run_gbp(m, g, c, warm=msgs)
    assert resumed <= 2
    assert q.delta(q2) < 1e-7


def test_random_message_inits_agree():
    rng = np.random.default_rng(8)
    m = cycle_model(6, seed=10, scale=1.5)
    g = build_bethe(m.scopes, m.num_vars)
    c = _true_counts(g)
    ref, msgs, _, _ = run_gbp(m, g, c)
    for _ in range(5):
        up = {k: rng.gamma(1.0, size=v.shape) for k, v in msgs.up.items()}
        down = {k: rng.gamma(1.0, size=v.shape) for k, v in msgs.down.items()}
        q, _, _, converged = run_gbp(m, g, c, warm=MessageSet(up, down))
        assert converged
        assert q.delta(ref) < 1e-5


def test_truncated_run_reports_not_converged():
    m = cycle_model(6, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    q, _, sweeps, converged = run_gbp(m, g, _true_counts(g),
                                      InnerSettings(max_sweeps=1))
    assert sweeps == 1
    assert not converged


def test_zero_potentials_fix_uniform_beliefs():
    m = pairwise_model(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                       np.random.default_rng(0), 0.0)
    g = build_bethe(m.scopes, m.num_vars)
    q, _, sweeps, converged = run_gbp(m, g, _true_counts(g))
    assert converged
    for rid, t in q.tables.items():
        assert np.max(np.abs(t - 1.0 / t.size)) < 1e-12
    f = free_energy(g, m, q)
    assert abs(f - (-4 * math.log(4.0) + 4 * math.log(2.0))) < 1e-10
