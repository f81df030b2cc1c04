"""End-to-end acceptance checks.

Each test prints one pass/fail line; run with -v to see them as a checklist.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from kikuchi import (
    ClusterPotentials,
    ModelSpec,
    Region,
    RegionGraph,
    build_bethe,
    check_convex_over_constraints,
    exact_inference,
    generate,
    free_energy,
    kl_marginals,
    make_bound_spec,
    minimize,
    run_gbp,
    save,
)
from kikuchi.cli import main
from conftest import (
    chain_model,
    cycle_model,
    k4_model,
    random_consistent_beliefs,
    random_messages,
    random_tree_model,
    two_cycles_sharing_edge_model,
)

BOUND_VARIANTS = ("conv1", "conv2", "conv3", "cccp")


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {num} ({label}): PASS", flush=True)


def _corpus(seed):
    yield "tree", random_tree_model(10, seed=seed)
    yield "triangle", cycle_model(3, seed=seed)
    yield "k4", k4_model(seed=seed)
    yield "grid4", generate(ModelSpec("grid_boltzmann", rows=4, cols=4, seed=seed))
    yield "grid6", generate(ModelSpec("grid_boltzmann", rows=6, cols=6, seed=seed))
    yield "full6", generate(ModelSpec("full_boltzmann", nodes=6, seed=seed))
    yield "qmr", generate(ModelSpec("qmr_like", diseases=8, findings=5, seed=seed))


def test_criterion_1_monotone_descent():
    with criterion(1, "monotone descent across the model corpus"):
        start = time.monotonic()
        for seed in range(5):
            for name, m in _corpus(seed):
                g = build_bethe(m.scopes, m.num_vars)
                for variant in BOUND_VARIANTS:
                    trace = minimize(m, g, make_bound_spec(g, variant))
                    fs = [r.f_kik for r in trace.outer]
                    for t, (a, b) in enumerate(zip(fs, fs[1:])):
                        assert b <= a + 1e-9, (
                            f"{name} seed {seed} {variant}: rise at outer {t + 1}"
                        )
                    assert trace.converged, f"{name} seed {seed} {variant}"
                    assert trace.outer[-1].constraint_residual <= 1e-6, (
                        f"{name} seed {seed} {variant}: inconsistent beliefs"
                    )
        assert time.monotonic() - start < 120.0


def test_criterion_2_bounds_touch_and_dominate():
    with criterion(2, "bounds touch, dominate, and order correctly"):
        rng = np.random.default_rng(0)
        for name, m in _corpus(0):
            g = build_bethe(m.scopes, m.num_vars)
            specs = {v: make_bound_spec(g, v) for v in BOUND_VARIANTS}
            pots = ClusterPotentials.of(m, g)
            for _ in range(100):
                q = random_consistent_beliefs(g, m.cards, rng)
                anchor = random_consistent_beliefs(g, m.cards, rng)
                f = free_energy(pots, q)
                vals = {}
                for v, spec in specs.items():
                    kept = spec.inner_overcounts
                    assert abs(free_energy(pots, q, kept, q) - f) <= 1e-10, (
                        f"{name} {v}: bound does not touch at its anchor"
                    )
                    vals[v] = free_energy(pots, q, kept, anchor)
                    assert vals[v] >= f - 1e-9, f"{name} {v}: bound fell below"
                assert vals["conv2"] <= vals["conv1"] + 1e-9, name
                assert vals["conv1"] <= vals["cccp"] + 1e-9, name
                assert vals["conv3"] <= vals["conv1"] + 1e-9, name


def test_criterion_3_exact_on_singly_connected_models():
    with criterion(3, "exact results on singly connected models"):
        models = [chain_model(n, seed=n) for n in range(3, 13)]
        models += [random_tree_model(4 + (s % 9), seed=s) for s in range(10)]
        for i, m in enumerate(models):
            g = build_bethe(m.scopes, m.num_vars)
            variant = BOUND_VARIANTS[i % len(BOUND_VARIANTS)]
            trace = minimize(m, g, make_bound_spec(g, variant))
            assert trace.converged
            exact = exact_inference(m, regions=g)
            assert abs(trace.final_f + exact.log_z) < 1e-6
            kl = kl_marginals(exact.marginals, trace.final_beliefs.tables,
                              [r.id for r in g.regions])
            assert kl < 1e-6


@pytest.mark.parametrize("model", [
    lambda: chain_model(300, seed=0),
    lambda: random_tree_model(200, seed=0),
], ids=["chain-300", "tree-200"])
def test_criterion_3_exact_at_scale(model):
    # Trees of hundreds of variables, far beyond any dense joint, under
    # every bound variant.
    with criterion(3, "exact results on large singly connected models"):
        m = model()
        g = build_bethe(m.scopes, m.num_vars)
        exact = exact_inference(m, regions=g)
        for variant in BOUND_VARIANTS:
            trace = minimize(m, g, make_bound_spec(g, variant))
            assert trace.converged, variant
            assert abs(trace.final_f + exact.log_z) < 1e-6, variant
            kl = kl_marginals(exact.marginals, trace.final_beliefs.tables,
                              [r.id for r in g.regions])
            assert kl < 1e-6, variant


def _parse_check_output(out):
    counts, varsets, allocs = {}, {}, []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] in ("outer", "subset"):
            rid = int(parts[0])
            counts[rid] = Fraction(parts[2])
            varsets[rid] = set(int(v) for v in parts[3].split(","))
        elif parts and parts[0] == "alloc":
            allocs.append((int(parts[1]), int(parts[2]), float(parts[3])))
    return counts, varsets, allocs


def test_criterion_4_convexity_verdicts(tmp_path, capsys):
    with criterion(4, "convexity verdicts with verifiable witnesses"):
        for n in range(3, 9):
            path = tmp_path / f"cycle{n}.model"
            save(cycle_model(n, seed=n), path)
            rc = main(["check", str(path)])
            out = capsys.readouterr().out
            assert rc == 0, f"cycle of {n} should be certified"
            assert "convex-over-constraints yes" in out
            counts, varsets, allocs = _parse_check_output(out)
            given = {rid: 0.0 for rid in counts}
            received = {rid: 0.0 for rid in counts}
            for g, b, v in allocs:
                assert v >= 0.0
                assert varsets[b] < varsets[g]
                given[g] += v
                received[b] += v
            for rid, c in counts.items():
                if c > 0:
                    assert given[rid] <= float(c) + 1e-9
                if c < 0:
                    assert received[rid] >= float(-c) - 1e-9

        for name, m in (("k4", k4_model(seed=0)),
                        ("shared-edge", two_cycles_sharing_edge_model(seed=0))):
            path = tmp_path / f"{name}.model"
            save(m, path)
            rc = main(["check", str(path)])
            out = capsys.readouterr().out
            assert rc == 1, f"{name} should not be certified"
            assert "convex-over-constraints no" in out


def test_criterion_5_iteration_orderings(tmp_path, capsys):
    with criterion(5, "iteration counts order as conv3 <= conv1 <= cccp"):
        start = time.monotonic()
        outdir = tmp_path / "cmp"
        rc = main([
            "compare", "--family", "grid", "--rows", "6", "--cols", "6",
            "--w", "2", "--seeds", ",".join(str(s) for s in range(10)),
            "--variants", "conv1,conv2,conv3,cccp", "--outdir", str(outdir),
        ])
        capsys.readouterr()
        assert rc == 0
        medians = {}
        for line in (outdir / "summary.txt").read_text().splitlines():
            if line.startswith("median_iters_to_consensus "):
                _, v, num = line.split()
                medians[v] = math.inf if num == "inf" else float(num)
        assert set(medians) == set(BOUND_VARIANTS)
        assert all(math.isfinite(x) for x in medians.values())
        assert medians["conv3"] <= medians["conv1"] <= medians["cccp"]
        assert medians["conv2"] <= medians["conv1"]
        assert time.monotonic() - start < 300.0


def _feasible_by_enumeration(supply, demand, admissible):
    names = [b for b, _ in demand]
    need = dict(demand)
    for k in range(1, len(names) + 1):
        for group in combinations(names, k):
            want = sum(need[b] for b in group)
            reach = sum(c for g, c in supply
                        if any(admissible(g, b) for b in group))
            if want > reach + 1e-9:
                return False
    return True


def test_criterion_6_flow_certificate_matches_enumeration():
    with criterion(6, "flow certificate agrees with subset enumeration"):
        rng = np.random.default_rng(17)
        built = 0
        while built < 50:
            n_vars = int(rng.integers(3, 7))
            universe = tuple(range(n_vars))
            regions = [Region(0, universe, Fraction(1), "outer")]
            counts = {0: 1.0}
            seen = {universe}
            rid = 1
            n_pos = int(rng.integers(0, 4))  # plus the outer cluster
            n_neg = int(rng.integers(1, 5))
            for i in range(n_pos + n_neg):
                k = int(rng.integers(1, n_vars))
                vs = tuple(sorted(rng.choice(n_vars, size=k, replace=False).tolist()))
                if vs in seen:
                    continue
                seen.add(vs)
                mag = Fraction(int(rng.integers(1, 9)), 4)
                c = mag if i < n_pos else -mag
                regions.append(Region(rid, vs, c, "subset"))
                counts[rid] = float(c)
                rid += 1
            if not any(c < 0 for c in counts.values()):
                continue
            built += 1
            g = RegionGraph(regions, strict=False)
            varsets = {r.id: set(r.vars) for r in regions}
            supply = [(i, c) for i, c in counts.items() if c > 0]
            demand = [(i, -c) for i, c in counts.items() if c < 0]
            assert len(supply) <= 4 and len(demand) <= 4

            def admissible(gid, b):
                return varsets[b] < varsets[gid]

            got = check_convex_over_constraints(g, counts) is not None
            want = _feasible_by_enumeration(supply, demand, admissible)
            assert got == want, f"graph {built}: flow {got}, enumeration {want}"


def test_criterion_7_initialization_robustness():
    with criterion(7, "random initializations reach the same answer"):
        rng = np.random.default_rng(23)
        models = [cycle_model(3, seed=1), cycle_model(4, seed=2, scale=1.5),
                  cycle_model(6, seed=3), chain_model(7, seed=4)]
        for m in models:
            g = build_bethe(m.scopes, m.num_vars)
            counts = {b: float(g.by_id[b].overcount) for b in g.subset_ids}
            all_counts = {**{a: 1.0 for a in g.outer_ids}, **counts}
            assert check_convex_over_constraints(g, all_counts) is not None
            pots = ClusterPotentials.of(m, g)
            ref, msgs, _, ok = run_gbp(pots, counts)
            assert ok
            for _ in range(5):
                q, _, _, ok = run_gbp(pots, counts, warm=random_messages(msgs.layout, rng))
                assert ok
                assert q.delta(ref) < 1e-5


def test_criterion_8_reproducible_compare_outputs(tmp_path, capsys):
    with criterion(8, "repeated compare runs are byte-identical"):
        args = ["compare", "--family", "grid", "--rows", "3", "--cols", "3",
                "--seeds", "0,1", "--variants", "conv1,conv2,conv3,cccp"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(a)]) == 0
        assert main(args + ["--outdir", str(b)]) == 0
        capsys.readouterr()
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert len(csvs) == 8
        assert csvs == sorted(p.name for p in b.glob("*.csv"))
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for name in ("summary.txt", "plotdata.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
