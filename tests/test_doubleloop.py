"""Outer loop: monotone descent, exactness on trees, traces and metadata."""
from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from kikuchi import (
    ClusterPotentials,
    ConvexityError,
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
from kikuchi.doubleloop import DESCENT_SLACK, DescentError, _check_promises
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
        assert np.max(np.abs(got - exact.marginals[rid])) < 1e-6


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
    f0 = free_energy(ClusterPotentials.of(m, g), uniform_beliefs(g, m.cards))
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
    assert trace.stop_reason == "max_outer"


def test_stop_reason_converged_on_grid():
    m = _grid_model(3, 3, seed=4)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "conv1"))
    assert trace.converged
    assert trace.stop_reason == "converged"


def test_stop_reason_names_a_rejected_rise():
    # A qmr_compare corpus case (seed 3, conv1) whose last inner solve rose
    # above its anchor: the run keeps the anchor and says why it stopped,
    # although the solve itself converged.
    m = generate(ModelSpec("qmr_like", diseases=20, findings=10, seed=3))
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv1")
    trace = minimize(m, g, spec)
    last, prev = trace.outer[-1], trace.outer[-2]
    assert trace.stop_reason == "rejected_rise"
    assert trace.converged and last.inner_converged
    assert (last.f_kik, last.marginal_delta) == (prev.f_kik, 0.0)
    assert "stop_reason" not in json.dumps(trace_metadata(trace, spec))


def test_stop_reason_names_a_failed_inner_solve():
    # Three sweeps leave the first conv3 solve on 5x5 plaquettes far from
    # its fixed point (its beliefs have a constraint residual of 4.7e-2):
    # the run keeps the uniform start and stops, unconverged, rather than
    # accept the step.
    m = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0))
    g = _plaquettes(5, 5)
    spec = make_bound_spec(g, "conv3")
    trace = minimize(m, g, spec, OuterSettings(inner=InnerSettings(max_sweeps=3)))
    start, last = trace.outer
    assert trace.stop_reason == "inner_failed" and not trace.converged
    assert (last.outer_index, last.inner_sweeps, last.inner_converged) == (1, 3, False)
    assert (last.f_kik, last.constraint_residual, last.marginal_delta) == (
        start.f_kik, start.constraint_residual, 0.0)
    assert trace.final_beliefs.delta(uniform_beliefs(g, m.cards)) == 0.0
    assert trace_metadata(trace, spec)["inner_failures"] == 1


def _broken(trace, defect):
    """``trace`` with one of its promises broken."""
    recs = list(trace.outer)
    if defect == "non-finite":
        recs[1] = replace(recs[1], f_kik=math.nan)
    elif defect == "rise":
        recs[1] = replace(recs[1], f_kik=recs[0].f_kik + 10 * DESCENT_SLACK)
    elif defect == "residual":
        recs[-1] = replace(recs[-1], constraint_residual=1e-3)
    else:
        recs[1] = replace(recs[1], inner_converged=False)
    return replace(trace, outer=recs)


@pytest.mark.parametrize("defect", ["non-finite", "rise", "residual", "failed-solve"])
def test_broken_trace_promises_raise(defect):
    m = k4_model(seed=7)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "conv1"))
    assert trace.converged and trace.stop_reason == "converged" and len(trace.outer) > 2
    _check_promises(trace)
    with pytest.raises(DescentError):
        _check_promises(_broken(trace, defect))


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


def _all_triplets(n):
    return build_cvm(list(combinations(range(n), 3)), n)


def _plaquettes(rows, cols):
    return build_cvm([(r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
                      for r in range(rows - 1) for c in range(cols - 1)], rows * cols)


def test_cccp_on_strong_triplets_stays_finite():
    # Strong couplings on all triplets drive inner messages far below 1e-300;
    # the log-domain sweep keeps them exact, so cccp descends to the same
    # stationary point as conv1.
    m = generate(ModelSpec("full_boltzmann", nodes=5, weight_scale=3.0, seed=0))
    g = _all_triplets(5)
    trace = minimize(m, g, make_bound_spec(g, "cccp"))
    f = [r.f_kik for r in trace.outer]
    assert all(math.isfinite(x) for x in f)
    assert all(b <= a + DESCENT_SLACK for a, b in zip(f, f[1:]))
    if trace.converged:
        assert trace.outer[-1].constraint_residual <= 1e-6
    conv1 = minimize(m, g, make_bound_spec(g, "conv1"))
    assert abs(trace.final_f - conv1.final_f) <= 1e-6


@pytest.mark.parametrize("spec, graph, variant, want", [
    (ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0), lambda m: _plaquettes(5, 5), "conv3",
     (18, 1258, -19.245601230737893)),
    (ModelSpec("full_boltzmann", nodes=5, weight_scale=3.0, seed=0), lambda m: _all_triplets(5), "conv3",
     (17, 2209, -7.098873091801792)),
    (ModelSpec("qmr_like", diseases=20, findings=10, seed=0), lambda m: build_bethe(m.scopes, m.num_vars),
     "conv3", (17, 265, 13.976206694442876)),
    (ModelSpec("qmr_like", diseases=20, findings=10, seed=0), lambda m: build_bethe(m.scopes, m.num_vars),
     "conv1", (36, 154, 13.976206697885447)),
], ids=["plaquettes-5x5", "triplets-n5-w3", "qmr-20x10-bethe", "qmr-20x10-bethe-conv1"])
def test_schedules_are_pinned(spec, graph, variant, want):
    # Outer and inner counts and the final value of three conv3 solves and
    # one conv1 solve.  The first two are as the probability-domain sweep
    # computed them: the log-domain sweep replays the same schedule.  The
    # QMR graph's 8 subsets each lie in two or more clusters, and every one
    # is swept: damped under conv3, undamped under conv1, whose outer stop
    # reads the marginal change.
    m = generate(spec)
    g = graph(m)
    trace = minimize(m, g, make_bound_spec(g, variant))
    outer, sweeps, final_f = want
    assert (trace.outer_iterations, trace.total_inner_sweeps) == (outer, sweeps)
    assert abs(trace.final_f - final_f) <= 1e-10
