"""Free energy functionals: values, touching, bounding, samplers."""
from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np
import pytest

from kikuchi import (
    Beliefs,
    BoundSpec,
    ModelSpec,
    VARIANTS,
    build_bethe,
    build_cvm,
    constraint_residual,
    free_energy,
    generate,
    inner_potentials,
    kl_marginals,
    make_bound_spec,
    minimize,
    outer_log_potentials,
    run_gbp,
    uniform_beliefs,
)
from conftest import (
    beliefs_from_tables,
    cycle_model,
    dict_free_energy,
    pairwise_model,
    random_consistent_beliefs,
)

PLAQUETTES_3X3 = [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def test_free_energy_matches_reference():
    rng = np.random.default_rng(2)
    m = cycle_model(5, seed=4)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    for _ in range(10):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert abs(free_energy(pots, q) - dict_free_energy(g, m, q)) < 1e-10


def test_uniform_free_energy_closed_form():
    # zero potentials: F is minus the counted sum of log state-space sizes
    m = pairwise_model(3, [(0, 1), (0, 2), (1, 2)], np.random.default_rng(0), 0.0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)
    want = -3 * math.log(4.0) + 3 * math.log(2.0)
    assert abs(free_energy(outer_log_potentials(m, g), q) - want) < 1e-12


def test_belief_validation():
    # A NaN or +inf log is a non-finite entry, and a log of -inf is a zero
    # entry whose entropy term 0 * -inf has no value: each is refused, in q
    # and in the anchor, before any arithmetic.
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    layout = g.layout(m.cards)
    q = uniform_beliefs(g, m.cards)
    spec = make_bound_spec(g, "conv1")
    pots = outer_log_potentials(m, g)
    for bad in (np.nan, np.inf, -np.inf):
        for rid in (g.outer_ids[1], g.subset_ids[1]):
            logs = q.logs.copy()
            logs[layout.views[rid][0]] = bad
            b = Beliefs(layout, logs)
            calls = (
                lambda: free_energy(pots, b),
                lambda: free_energy(pots, q, spec.inner_overcounts, b),
                lambda: inner_potentials(pots, spec.inner_overcounts, b),
            )
            for call in calls:
                with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
                    call()


def test_the_finiteness_verdict_is_kept_per_belief_set():
    # ``flat`` scans a belief set once and keeps the verdict, which holds as
    # long as its arrays cannot change: a set with a NaN is refused on every
    # read, a finite one returns the same arrays on every read, neither
    # set's arrays can be written, and a write into the array a set was
    # made from does not reach it.
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    layout = g.layout(m.cards)
    q = uniform_beliefs(g, m.cards)
    rid = g.subset_ids[1]
    logs = q.logs.copy()
    logs[layout.views[rid][0]] = np.nan
    bad = Beliefs(layout, logs)
    for _ in range(5):
        with pytest.raises(ValueError, match=f"region {rid}: belief table has non-finite"):
            bad.flat(layout)
    probs, logs = q.flat(layout)
    for _ in range(5):
        again = q.flat(layout)
        assert again[0] is probs and again[1] is logs
    for x in (q.logs, q.probs, bad.logs, bad.probs):
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    source = q.logs.copy()
    viewed = Beliefs(layout, source[:])
    viewed.flat(layout)
    source[:] = np.nan
    probs, logs = viewed.flat(layout)
    assert np.isfinite(probs).all() and np.isfinite(logs).all()
    assert free_energy(outer_log_potentials(m, g), viewed) == free_energy(outer_log_potentials(m, g), q)


def test_beliefs_on_another_layout_are_refused():
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    spec = make_bound_spec(g, "conv1")
    pots = outer_log_potentials(m, g)
    q = uniform_beliefs(g, m.cards)
    other_cards = uniform_beliefs(g, [3] + list(m.cards[1:]))
    other_graph = uniform_beliefs(build_bethe(m.scopes, m.num_vars), m.cards)
    for foreign in (other_cards, other_graph):
        with pytest.raises(ValueError, match="laid out"):
            free_energy(pots, foreign)
        with pytest.raises(ValueError, match="laid out"):
            free_energy(pots, q, spec.inner_overcounts, foreign)
        with pytest.raises(ValueError, match="laid out"):
            inner_potentials(pots, spec.inner_overcounts, foreign)
        with pytest.raises(ValueError, match="laid out"):
            q.delta(foreign)
        # The residual reads the graph off the beliefs' own layout.
        assert constraint_residual(foreign) < 1e-12


def test_logs_of_the_wrong_length_are_refused():
    # Logs with entries to spare or missing once gave a free energy on the
    # wrong tables (3x3 Bethe grid, uniform beliefs: -4.0816 with 3 extra
    # entries and -6.8542 with the last one dropped, for -6.1610); a belief
    # set holds exactly one log entry per entry of its layout.
    m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
    g = build_bethe(m.scopes, m.num_vars)
    layout, logs = g.layout(m.cards), uniform_beliefs(g, m.cards).logs
    n = layout.size
    for bad in (np.concatenate((logs, logs[:3])), logs[:-1], logs[None, :], np.zeros(0)):
        with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}") + f".*holds {n} entries"):
            Beliefs(layout, bad)
    assert abs(free_energy(outer_log_potentials(m, g), Beliefs(layout, logs)) - -6.1610) < 1e-4


def test_zero_entries_contribute_zero_entropy():
    # A zero entry is written as a log of -1e3: its exponential underflows
    # to 0, so its entropy term is 0 * -1e3 == 0 and the value is finite.
    # Variable 1 is 0 for sure; clusters (0, 1) and (1, 2) and the subset
    # (1,) each hold zero entries.
    m = pairwise_model(3, [(0, 1), (1, 2)], np.random.default_rng(1), 1.0)
    g = build_bethe(m.scopes, m.num_vars)
    layout = g.layout(m.cards)
    zero, half = -1e3, math.log(0.5)
    by_vars = {(0, 1): [[half, zero], [half, zero]], (1, 2): [[half, half], [zero, zero]], (1,): [0.0, zero]}
    logs = np.concatenate([np.ravel(by_vars[g.region_vars(rid)]) for rid in layout.views])
    q = Beliefs(layout, logs)
    assert (q.probs == 0.0).sum() == 5
    assert constraint_residual(q) == 0.0
    f = free_energy(outer_log_potentials(m, g), q)
    assert math.isfinite(f)


def test_a_count_for_no_subset_region_is_refused():
    # A key that names no subset region (a typo, or an outer cluster) is an
    # error wherever a count map is read, not a count silently dropped.
    m = cycle_model(4, seed=1)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    q = uniform_beliefs(g, m.cards)
    for key in (999, g.outer_ids[0]):
        counts = {**g.subset_overcounts(), key: 0.0}
        with pytest.raises(ValueError, match=f"region {key}, "):
            free_energy(pots, q, counts)
        with pytest.raises(ValueError, match=f"region {key}, "):
            run_gbp(pots, counts)
        with pytest.raises(ValueError, match=f"region {key}, "):
            inner_potentials(pots, counts, q)
    # The array form, as ``Layout.kept_counts`` returns it, holds one count
    # per region in layout order: one of another length, or one that moves a
    # cluster's count, is refused by the same readers.
    kept = pots.layout.kept_counts(g.subset_overcounts())
    moved = kept.copy()
    moved[0] += 1.0
    for counts, match in ((kept[:-1], "kept counts given for"), (np.append(kept, 0.0), "kept counts given for"),
                          (moved, f"region {pots.layout.ids[0]}, ")):
        for call in (
            lambda: free_energy(pots, q, counts),
            lambda: run_gbp(pots, counts),
            lambda: inner_potentials(pots, counts, q),
        ):
            with pytest.raises(ValueError, match=match):
                call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_count_is_refused(bad):
    # A count that is not finite gives neither a free energy nor an update
    # exponent: every reader of a count map refuses it and names the region.
    m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
    g = build_cvm(PLAQUETTES_3X3, 9)
    pots = outer_log_potentials(m, g)
    q = uniform_beliefs(g, m.cards)
    b = g.subset_ids[0]
    counts = {**g.subset_overcounts(), b: bad}
    match = re.escape(f"region {b}: count {bad} is not finite")
    for call in (
        lambda: free_energy(pots, q, counts),
        lambda: free_energy(pots, q, counts, anchor=q),
        lambda: inner_potentials(pots, counts, q),
        lambda: run_gbp(pots, counts),
        lambda: minimize(m, g, BoundSpec("conv1", counts)),
    ):
        with pytest.raises(ValueError, match=match):
            call()
    # The same count in the array form is refused by the same readers.
    kept = pots.layout.kept_counts(g.subset_overcounts()).copy()
    kept[pots.layout.ids.index(b)] = bad
    for call in (
        lambda: free_energy(pots, q, kept),
        lambda: free_energy(pots, q, kept, anchor=q),
        lambda: inner_potentials(pots, kept, q),
        lambda: run_gbp(pots, kept),
    ):
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("variant", ["conv1", "conv3", "cccp"])
@pytest.mark.parametrize("case", ["plaquettes-3x3", "triplets-n4"])
def test_the_kept_count_array_reads_as_its_map(case, variant):
    # ``minimize`` converts its spec's count map to the layout-order array
    # once per run and passes the array on.  The fold, the inner solve and
    # both free energies give the same bits for either form.
    if case == "plaquettes-3x3":
        m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
        g = build_cvm(PLAQUETTES_3X3, 9)
    else:
        m = generate(ModelSpec("full_boltzmann", nodes=4, weight_scale=3.0, seed=0))
        g = build_cvm(list(combinations(range(4), 3)), 4)
    base = outer_log_potentials(m, g)
    counts = make_bound_spec(g, variant).inner_overcounts
    kept = base.layout.kept_counts(counts)
    assert base.layout.kept_counts(kept) is kept
    anchor = random_consistent_beliefs(g, m.cards, np.random.default_rng(3))
    pots = [inner_potentials(base, c, anchor) for c in (counts, kept)]
    np.testing.assert_array_equal(pots[0].logs, pots[1].logs)
    (q, msgs, sweeps, ok), (q_arr, msgs_arr, sweeps_arr, ok_arr) = (run_gbp(pots[0], c) for c in (counts, kept))
    assert (sweeps, ok) == (sweeps_arr, ok_arr) and ok
    for mine, ref in zip((q_arr.logs,) + msgs_arr.logs, (q.logs,) + msgs.logs):
        np.testing.assert_array_equal(mine, ref)
    for at in (None, anchor):
        assert free_energy(base, q, counts, at) == free_energy(base, q, kept, at)


def test_touching_and_bounding_consistent_beliefs():
    rng = np.random.default_rng(7)
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    m = pairwise_model(9, edges, rng, 1.0)
    for g in (build_bethe(m.scopes, m.num_vars), None):
        if g is None:
            g = build_cvm(PLAQUETTES_3X3, 9)
        specs = {v: make_bound_spec(g, v) for v in VARIANTS}
        pots = outer_log_potentials(m, g)
        for _ in range(20):
            q = random_consistent_beliefs(g, m.cards, rng)
            anchor = random_consistent_beliefs(g, m.cards, rng)
            f = free_energy(pots, q)
            vals = {}
            for v, spec in specs.items():
                assert abs(free_energy(pots, q, spec.inner_overcounts, q) - f) < 1e-10
                vals[v] = free_energy(pots, q, spec.inner_overcounts, anchor)
                assert vals[v] >= f - 1e-9
            assert vals["conv2"] <= vals["conv1"] + 1e-9
            assert vals["conv1"] <= vals["cccp"] + 1e-9
            assert vals["conv3"] <= vals["conv1"] + 1e-9
            assert vals["none"] == pytest.approx(f, abs=1e-12)


def test_pointwise_bounding_without_consistency():
    # conv1 and cccp dominate even for mutually inconsistent region tables
    rng = np.random.default_rng(8)
    m = cycle_model(6, seed=2)
    g = build_bethe(m.scopes, m.num_vars)
    pots = outer_log_potentials(m, g)
    for v in ("conv1", "cccp"):
        spec = make_bound_spec(g, v)
        for _ in range(20):
            tabs, anch = {}, {}
            for r in g.regions:
                shape = tuple(m.cards[u] for u in r.vars)
                t = rng.gamma(1.0, size=shape)
                tabs[r.id] = t / t.sum()
                a = rng.gamma(1.0, size=shape)
                anch[r.id] = a / a.sum()
            layout = g.layout(m.cards)
            q, anchor = beliefs_from_tables(layout, tabs), beliefs_from_tables(layout, anch)
            f = free_energy(pots, q)
            assert free_energy(pots, q, spec.inner_overcounts, anchor) >= f - 1e-9


def test_dense_sampler_consistency():
    rng = np.random.default_rng(5)
    m = cycle_model(6, seed=1)
    g = build_cvm([(0, 1, 2), (2, 3, 4), (4, 5, 0)], 6)
    for _ in range(5):
        q = random_consistent_beliefs(g, m.cards, rng)
        assert constraint_residual(q) < 1e-12
        for rid, t in q.tables.items():
            assert abs(t.sum() - 1.0) < 1e-12
            assert t.min() >= 0.0


def test_mixture_sampler_consistency():
    rng = np.random.default_rng(6)
    n = 20  # beyond the dense-joint limit
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    g = build_bethe(edges, n)
    cards = [2] * n
    q = random_consistent_beliefs(g, cards, rng)
    assert constraint_residual(q) < 1e-12
    r = random_consistent_beliefs(g, cards, rng)
    assert q.delta(r) > 1e-3  # distinct draws differ


def test_kl_marginals():
    p = {0: np.array([0.5, 0.5]), 1: np.array([0.25, 0.75])}
    q = {0: np.array([0.5, 0.5]), 1: np.array([0.75, 0.25])}
    assert kl_marginals(p, p, [0, 1]) == 0.0
    val = kl_marginals(p, q, [1])
    want = 0.25 * math.log(0.25 / 0.75) + 0.75 * math.log(0.75 / 0.25)
    assert abs(val - want) < 1e-12

    degenerate = {0: np.array([1.0, 0.0]), 1: np.array([0.25, 0.75])}
    with pytest.warns(UserWarning):
        assert kl_marginals(p, degenerate, [0]) == math.inf
    # 0 log 0 on the p side is fine
    assert kl_marginals(degenerate, p, [0]) == pytest.approx(math.log(2.0))


def test_kl_marginals_is_never_negative():
    # The tables stand for [1 - 1e-30, 1e-30] and [1 - 2e-30, 2e-30], whose
    # KL is about 3.1e-31; both first entries round to 1.0, their term is
    # lost and the sum reads -6.9e-31.  A region's sum below zero counts as 0.0.
    p, q = {0: np.array([1.0, 1e-30])}, {0: np.array([1.0, 2e-30])}
    assert kl_marginals(p, q, [0]) == 0.0



def test_public_surface_has_one_way_in_for_beliefs():
    # Every exported name resolves, and beliefs are made only by
    # Beliefs(layout, logs): no dict door, log floor, sampler or spec witness.
    import kikuchi
    from kikuchi import energy

    for name in kikuchi.__all__:
        assert hasattr(kikuchi, name), name
    for module in (kikuchi, energy):
        for name in ("random_consistent_beliefs", "LOG_FLOOR", "MAX_JOINT_SAMPLER"):
            assert not hasattr(module, name), name
    m = cycle_model(4, seed=0)
    g = build_bethe(m.scopes, m.num_vars)
    q = uniform_beliefs(g, m.cards)
    for name in ("from_tables", "floored"):
        assert not hasattr(q, name), name
    for variant in ("conv2", "conv3"):
        assert not hasattr(make_bound_spec(g, variant), "witness"), variant
