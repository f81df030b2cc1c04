"""Outer loop: monotone descent, exactness on trees, traces and metadata."""
from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np
import pytest

from kikuchi import (
    ConvexityError,
    GraphError,
    InnerSettings,
    ModelSpec,
    OuterSettings,
    build_bethe,
    build_cvm,
    exact_inference,
    free_energy,
    generate,
    iterations_to_reach,
    make_bound_spec,
    minimize,
    trace_metadata,
    uniform_beliefs,
    write_trace_csv,
    write_trace_json,
)
from kikuchi.doubleloop import DESCENT_SLACK
from conftest import (
    chain_model,
    cycle_model,
    k4_model,
    pairwise_model,
    random_tree_model,
)


def _grid_model(rows, cols, seed, scale=1.0):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c < cols - 1:
                edges.append((v, v + 1))
            if r < rows - 1:
                edges.append((v, v + cols))
    return pairwise_model(rows * cols, edges, np.random.default_rng(seed), scale)


def _assert_monotone(trace):
    fs = [r.f_kik for r in trace.outer]
    for a, b in zip(fs, fs[1:]):
        assert b <= a + DESCENT_SLACK


def test_descent_on_k4_all_variants():
    m = k4_model(seed=3)
    g = build_bethe(m.scopes, m.num_vars)
    finals = {}
    for variant in ("conv1", "conv2", "conv3", "cccp"):
        spec = make_bound_spec(g, variant)
        trace = minimize(m, g, spec)
        assert trace.converged
        _assert_monotone(trace)
        finals[variant] = trace.final_f
    vals = list(finals.values())
    assert max(vals) - min(vals) < 1e-5  # same stationary point here


def test_descent_on_plaquette_cvm():
    m = _grid_model(3, 3, seed=5, scale=1.5)
    g = build_cvm([(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)], 9)
    for variant in ("conv1", "conv3", "cccp"):
        spec = make_bound_spec(g, variant)
        trace = minimize(m, g, spec)
        assert trace.converged
        _assert_monotone(trace)


def test_tree_recovers_exact_answer():
    m = random_tree_model(8, seed=11)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv3")
    trace = minimize(m, g, spec)
    assert trace.converged
    exact = exact_inference(m, regions=g)
    assert abs(trace.final_f + exact.log_z) < 1e-8
    for rid in g.by_id:
        got = trace.final_beliefs.tables[rid]
        assert np.max(np.abs(got - exact.marginals.tables[rid])) < 1e-6


def test_exact_bound_exits_after_one_outer_iteration():
    # conv3 keeps every count on a certified-convex graph: nothing to anchor
    m = cycle_model(4, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    for variant in ("none", "conv3"):
        spec = make_bound_spec(g, variant)
        assert spec.inner_overcounts == g.subset_overcounts()
        trace = minimize(m, g, spec)
        assert trace.converged
        assert trace.outer_iterations == 1


def test_plain_variant_requires_certificate():
    m = k4_model(seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    with pytest.raises(ConvexityError, match="bound variant"):
        minimize(m, g, make_bound_spec(g, "none"))


def test_variants_agree_with_pairwise_exact_on_chain():
    for seed in range(3):
        m = chain_model(5, seed=seed)
        g = build_bethe(m.scopes, m.num_vars)
        exact = exact_inference(m)
        for variant in ("conv1", "cccp"):
            trace = minimize(m, g, make_bound_spec(g, variant))
            assert trace.converged
            assert abs(trace.final_f + exact.log_z) < 1e-6


def test_trace_rows_and_uniform_start():
    m = k4_model(seed=7)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "conv1"))
    assert trace.outer[0].outer_index == 0
    assert trace.outer[0].inner_sweeps == 0
    f0 = free_energy(g, m, uniform_beliefs(g, m.cards))
    assert trace.outer[0].f_kik == pytest.approx(f0, abs=1e-12)
    idx = [r.outer_index for r in trace.outer]
    assert idx == list(range(len(idx)))


def test_max_outer_truncation_flags_not_converged():
    m = k4_model(seed=1)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "cccp"),
                     OuterSettings(max_outer=1))
    assert trace.outer_iterations == 1
    assert not trace.converged


def test_cold_inner_starts_still_descend():
    m = k4_model(seed=4)
    g = build_bethe(m.scopes, m.num_vars)
    warm = minimize(m, g, make_bound_spec(g, "conv1"))
    cold = minimize(m, g, make_bound_spec(g, "conv1"),
                    OuterSettings(warm_start=False))
    _assert_monotone(cold)
    assert cold.converged
    assert abs(cold.final_f - warm.final_f) < 1e-6
    assert cold.total_inner_sweeps >= warm.total_inner_sweeps


def test_iterations_to_reach_window():
    m = k4_model(seed=5)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "cccp"))
    best = trace.final_f
    n = iterations_to_reach(trace, best, window=1e-4)
    assert 0 <= n <= trace.outer_iterations
    assert iterations_to_reach(trace, best - 1.0) == math.inf
    assert iterations_to_reach(trace, best + 100.0) == 0


def test_trace_csv_round_trip(tmp_path):
    m = k4_model(seed=6)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "conv3"))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    head = "outer_index,f_kik,inner_sweeps,constraint_residual,marginal_delta"
    assert lines[0] == head
    assert len(lines) == len(trace.outer) + 1
    for row, rec in zip(lines[1:], trace.outer):
        cols = row.split(",")
        assert int(cols[0]) == rec.outer_index
        assert float(cols[1]) == rec.f_kik  # %.17g is lossless for doubles
        assert int(cols[2]) == rec.inner_sweeps
        assert float(cols[3]) == rec.constraint_residual
        assert float(cols[4]) == rec.marginal_delta


def test_metadata_is_json_serializable(tmp_path):
    m = k4_model(seed=8)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv2")
    trace = minimize(m, g, spec,
                     OuterSettings(inner=InnerSettings(max_sweeps=500)))
    meta = trace_metadata(trace, spec, model_meta=m.meta)
    text = json.dumps(meta)
    back = json.loads(text)
    assert back["variant"] == "conv2"
    assert back["outer_iterations"] == trace.outer_iterations
    assert back["final_f_kik"] == trace.final_f
    assert back["settings"]["inner_max_sweeps"] == 500
    assert set(back["inner_overcounts"]) == {str(b) for b in g.subset_ids}
    path = tmp_path / "trace.json"
    write_trace_json(meta, path)
    assert json.loads(path.read_text()) == back


def test_deterministic_repeat():
    m = _grid_model(4, 4, seed=9)
    g = build_bethe(m.scopes, m.num_vars)
    a = minimize(m, g, make_bound_spec(g, "conv1"))
    b = minimize(m, g, make_bound_spec(g, "conv1"))
    assert [r.f_kik for r in a.outer] == [r.f_kik for r in b.outer]
    assert a.final_beliefs.delta(b.final_beliefs) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.xfail(strict=True, raises=GraphError,
                   reason="probability-domain messages underflow to zero under cccp")
def test_cccp_on_strong_triplets_stays_finite():
    # Strong couplings on all triplets drive inner messages below the log
    # floor's reach; inner_potentials then meets non-finite logs and raises.
    m = generate(ModelSpec("full_boltzmann", nodes=5, weight_scale=3.0, seed=0))
    g = build_cvm(list(combinations(range(5), 3)), 5)
    trace = minimize(m, g, make_bound_spec(g, "cccp"))
    assert all(math.isfinite(r.f_kik) for r in trace.outer)
