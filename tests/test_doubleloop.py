"""Outer loop: monotone descent, exactness on trees, traces and metadata."""
from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from kikuchi import (
    BoundSpec,
    ConvexityError,
    ModelSpec,
    OuterSettings,
    build_bethe,
    build_cvm,
    check_conv2_bound,
    exact_inference,
    free_energy,
    generate,
    iterations_to_reach,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    uniform_beliefs,
    write_trace,
)
from kikuchi.cli import main
from kikuchi.doubleloop import DESCENT_SLACK, RESIDUAL_TOL, DescentError, _check_promises
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
    exact = exact_inference(m, regions=[r.vars for r in g.regions])
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
    f0 = free_energy(outer_log_potentials(m, g), uniform_beliefs(g, m.cards))
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


def test_stop_reason_converged_on_a_tree():
    # On a singly connected Bethe graph the free energy is convex over the
    # constraints, so ``none`` linearizes nothing: the bound is the objective,
    # and one converged inner solve ends the run, in whatever order the
    # sweep visits the subsets.
    m = random_tree_model(8, seed=4)
    g = build_bethe(m.scopes, m.num_vars)
    trace = minimize(m, g, make_bound_spec(g, "none"))
    assert trace.converged and trace.outer_iterations == 1
    assert trace.stop_reason == "converged"


def test_stop_reason_names_a_rejected_rise(tmp_path):
    # A deliberately coarse inner solve (belief-change tolerance 1e-6, 100x
    # the default) on 4x4 plaquettes under conv1, with no outer stall test:
    # the run can only stop on a rise, and the coarse solves make one come,
    # in whatever order the sweep visits the subsets, while the anchor's
    # residual stays far inside its tolerance.  The run keeps the anchor and
    # says why it stopped, although the solve itself converged.
    m = generate(ModelSpec("grid_boltzmann", rows=4, cols=4, seed=0))
    g = _plaquettes(4, 4)
    spec = make_bound_spec(g, "conv1")
    trace = minimize(m, g, spec, OuterSettings(outer_tol=0.0, max_outer=500, inner_tol=1e-6))
    last, prev = trace.outer[-1], trace.outer[-2]
    assert trace.stop_reason == "rejected_rise"
    assert trace.converged and last.inner_converged
    assert (last.f_kik, last.marginal_delta) == (prev.f_kik, 0.0)
    write_trace(trace, spec, tmp_path / "trace")
    assert "stop_reason" not in (tmp_path / "trace.json").read_text()


@pytest.mark.parametrize("case", ["plaquettes-conv3", "bethe-conv1"])
def test_rejected_rise_at_a_loose_anchor_is_unconverged(case):
    # A loose inner tolerance (1e-4) ends both runs on a rejected rise at an
    # anchor whose constraint residual (6.6e-5 and 1.2e-5) is above
    # RESIDUAL_TOL: the run returns that anchor, unconverged, instead of
    # claiming convergence and failing its own promise check.
    if case == "plaquettes-conv3":
        m, g, variant = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0)), _plaquettes(5, 5), "conv3"
    else:
        m = _grid_model(3, 3, seed=4)
        g, variant = build_bethe(m.scopes, m.num_vars), "conv1"
    trace = minimize(m, g, make_bound_spec(g, variant), OuterSettings(inner_tol=1e-4))
    last, prev = trace.outer[-1], trace.outer[-2]
    assert trace.stop_reason == "rejected_rise" and not trace.converged
    assert last.constraint_residual == prev.constraint_residual > RESIDUAL_TOL
    assert (last.f_kik, last.marginal_delta) == (prev.f_kik, 0.0)


def test_stop_reason_names_a_failed_inner_solve(tmp_path):
    # Three sweeps leave the first conv3 solve on 5x5 plaquettes far from
    # its fixed point (its beliefs have a constraint residual of 4.7e-2):
    # the run keeps the uniform start and stops, unconverged, rather than
    # accept the step.
    m = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0))
    g = _plaquettes(5, 5)
    spec = make_bound_spec(g, "conv3")
    trace = minimize(m, g, spec, OuterSettings(inner_max_sweeps=3))
    start, last = trace.outer
    assert trace.stop_reason == "inner_failed" and not trace.converged
    assert (last.outer_index, last.inner_sweeps, last.inner_converged) == (1, 3, False)
    assert (last.f_kik, last.constraint_residual, last.marginal_delta) == (
        start.f_kik, start.constraint_residual, 0.0)
    assert trace.final_beliefs.delta(uniform_beliefs(g, m.cards)) == 0.0
    write_trace(trace, spec, tmp_path / "trace")
    assert json.loads((tmp_path / "trace.json").read_text())["inner_failures"] == 1


_LINEARIZED_CASES = [
    (ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0), lambda: _plaquettes(3, 3), 40),
    (ModelSpec("full_boltzmann", nodes=4, seed=0), lambda: _all_triplets(4), 31),
    (ModelSpec("grid_boltzmann", rows=5, cols=5, seed=0), lambda: _plaquettes(5, 5), 44),
    (ModelSpec("full_boltzmann", nodes=5, weight_scale=3.0, seed=0), lambda: _all_triplets(5), 33),
]
_LINEARIZED_IDS = ["plaquettes-3x3", "triplets-n4", "plaquettes-5x5", "triplets-n5-w3"]


@pytest.mark.parametrize("spec, graph", [case[:2] for case in _LINEARIZED_CASES[:2]], ids=_LINEARIZED_IDS[:2])
def test_a_rise_above_a_broken_bound_raises(spec, graph):
    # conv3's kept counts with every positive subset's set to 0 linearize
    # positive mass with no negative mass paired against it, so the fold is
    # no longer an upper bound.  The first rise lies above that bound at the
    # new beliefs, and the rise check, which runs for every variant, raises
    # instead of returning the anchor as a converged rejected rise.
    m, g = generate(spec), graph()
    counts = g.subset_overcounts()
    kept = make_bound_spec(g, "conv3").inner_overcounts
    broken = BoundSpec("conv3", {b: 0.0 if counts[b] > 0 else c for b, c in kept.items()})
    with pytest.raises(DescentError, match="exceeds its upper bound"):
        minimize(m, g, broken)


@pytest.mark.parametrize("spec, graph, outer", _LINEARIZED_CASES, ids=_LINEARIZED_IDS)
def test_a_certified_conv2_bound_stays_silent(spec, graph, outer):
    # Every subset kept at 0 is conv2's bound, which linearizes positive mass
    # too.  Where ``check_conv2_bound`` certifies it, the rise check never
    # fires and the run converges as before.
    m, g = generate(spec), graph()
    assert check_conv2_bound(g) is not None
    trace = minimize(m, g, BoundSpec("conv2", dict.fromkeys(g.subset_ids, 0.0)))
    assert trace.converged and trace.stop_reason == "converged"
    assert trace.outer_iterations == outer


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
    spec = make_bound_spec(g, "conv3")
    trace = minimize(m, g, spec)
    write_trace(trace, spec, tmp_path / "trace")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
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
    trace = minimize(m, g, spec, OuterSettings(inner_max_sweeps=500))
    write_trace(trace, spec, tmp_path / "trace", model_meta=m.meta)
    back = json.loads((tmp_path / "trace.json").read_text())
    assert back["variant"] == "conv2"
    assert back["outer_iterations"] == trace.outer_iterations
    assert back["final_f_kik"] == trace.final_f
    assert back["settings"]["inner_max_sweeps"] == 500
    assert set(back["inner_overcounts"]) == {str(b) for b in g.subset_ids}


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


GRID5 = "--family grid --rows 5 --cols 5 --recipe grid-plaquettes"
TRIPLETS = "--family full --n 5 --w 3 --recipe all-triplets"
QMR = "--family qmr --diseases 20 --findings 10 --recipe bethe"


@pytest.mark.parametrize("flags, variant, want", [
    (f"{GRID5} --seed 0", "conv3", (18, 1258, -19.245601222392928)),
    (f"{GRID5} --seed 1", "conv3", (17, 1457, -20.842573818384796)),
    (f"{TRIPLETS} --seed 0", "conv3", (16, 2272, -7.098873083320672)),
    (f"{QMR} --seed 0", "conv3", (17, 267, 13.976206694567631)),
    (f"{QMR} --seed 0", "conv1", (36, 159, 13.976206697905278)),
    (f"{TRIPLETS} --seed 0", "cccp", (61, 770, -7.098872928640136)),
    (f"{TRIPLETS} --seed 0", "conv1", (47, 474, -7.098873025358694)),
], ids=["plaquettes-5x5", "plaquettes-5x5-seed1", "triplets-n5-w3", "qmr-20x10-bethe", "qmr-20x10-bethe-conv1",
        "triplets-n5-w3-cccp", "triplets-n5-w3-conv1"])
def test_schedules_are_pinned(tmp_path, flags, variant, want):
    # Outer and inner counts and the final value of four conv3 solves, two
    # conv1 solves and one cccp solve, each run from the command line and
    # read off the trace JSON it writes, under the coloured sweep order
    # (``Layout.levels``): the benchmark's two plaquette_conv3 cases, every
    # case of its triplets_strong workload and its seed-0 qmr_compare model.
    # The QMR graph's 8 subsets each lie in two or more clusters, and every
    # one is swept: damped under conv3, undamped under conv1, whose outer
    # stop reads the marginal change.  The strong-triplet cccp solve is
    # undamped too, with inner messages far below 1e-300.  A change that
    # moves a pin has to state the new values and why they moved.
    assert main(["run", *flags.split(), "--variant", variant, "--outdir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"trace_{variant}.json").read_text())
    outer, sweeps, final_f = want
    assert (meta["outer_iterations"], meta["total_inner_sweeps"]) == (outer, sweeps)
    assert abs(meta["final_f_kik"] - final_f) <= 1e-12


@pytest.mark.parametrize("key, value", [
    ("outer_tol", math.nan), ("outer_tol", -1e-8), ("marginal_tol", math.inf), ("max_outer", -1),
    ("inner_tol", -1.0), ("inner_tol", math.nan), ("inner_max_sweeps", -3),
])
def test_settings_refuse_a_knob_that_cannot_run(key, value):
    # The check the command line reports as a usage error: a NaN, infinite
    # or negative knob would run every outer step or fail every inner solve.
    with pytest.raises(ValueError, match=f"^{key} must be finite and nonnegative, got {re.escape(repr(value))}$"):
        OuterSettings(**{key: value})
    OuterSettings(**{key: 0})  # zero is legal
