"""Model generation, file format, and potential placement."""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from kikuchi import (
    CLAMP_LOG,
    ClusterPotentials,
    FactorModel,
    GraphError,
    ModelFormatError,
    ModelSpec,
    build_bethe,
    generate,
    load,
    outer_log_potentials,
    recipe_graph,
    save,
)
from conftest import cluster_tables, same_model


def test_grid_generation_is_deterministic():
    spec = ModelSpec("grid_boltzmann", rows=3, cols=4, weight_scale=1.5, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert same_model(a, b)
    c = generate(ModelSpec("grid_boltzmann", rows=3, cols=4, weight_scale=1.5, seed=10))
    assert not same_model(a, c)


def test_grid_edges_scan_order():
    m = generate(ModelSpec("grid_boltzmann", rows=2, cols=3, seed=0))
    assert m.scopes == [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]
    assert m.meta["rows"] == "2" and m.meta["cols"] == "3"


def test_boltzmann_table_structure():
    w = 1.7
    m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, weight_scale=w, seed=4))
    deg = {}
    for i, j in m.scopes:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    theta = {v: 0.0 for v in range(m.num_vars)}
    for (i, j), t in zip(m.scopes, m.tables):
        # both variables off contributes nothing
        assert t[0, 0] == 0.0
        # the interaction term is the second difference
        w_ij = t[1, 1] - t[1, 0] - t[0, 1] + t[0, 0]
        assert abs(w_ij) <= w + 1e-12
        theta[i] += t[1, 0]
        theta[j] += t[0, 1]
    # field shares recombine to a bounded per-variable field
    for v, th in theta.items():
        assert abs(th) <= w + 1e-9


def test_full_model_shape():
    m = generate(ModelSpec("full_boltzmann", nodes=5, seed=0))
    assert len(m.scopes) == 10
    assert m.scopes == [(i, j) for i in range(5) for j in range(i + 1, 5)]


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(ModelSpec("grid_boltzmann", rows=0, cols=3))
    with pytest.raises(ValueError):
        generate(ModelSpec("full_boltzmann", nodes=1))
    with pytest.raises(ValueError):
        generate(ModelSpec("nope"))
    with pytest.raises(ValueError):
        generate(ModelSpec("file"))


@pytest.mark.parametrize("w", [float("nan"), float("inf"), 1e308, 9e307, -1.0])
def test_weight_scale_must_be_nonnegative_and_drawable(w):
    # rng.uniform(-w, w) overflows once 2w is not finite, so such a scale is
    # refused as a bad value rather than raising OverflowError; 1e300 builds.
    for family in ("grid_boltzmann", "full_boltzmann"):
        with pytest.raises(ValueError, match="weight scale"):
            generate(ModelSpec(family, rows=2, cols=2, nodes=3, weight_scale=w))
        m = generate(ModelSpec(family, rows=2, cols=2, nodes=3, weight_scale=1e300))
        assert all(np.isfinite(t).all() for t in m.tables)


@pytest.mark.parametrize("spec, digest", [
    # disease 3 feeds three findings and splits its prior; disease 1 feeds none
    (ModelSpec("qmr_like", diseases=8, findings=5),
     "6fbc356b38a897c412e031ae1fe4b2864601647bfd7ba410077fdff47bdd6d6a"),
    # an observation pattern; nine diseases keep their priors as single factors
    (ModelSpec("qmr_like", diseases=12, findings=3, observe="010", seed=2),
     "b0f086e179bccca0356dfef1135f4ccbe54acbcbe8dfa802fac89c73347cb631"),
    # every finding has parents (0, 1, 2), so the five tables merge into one
    (ModelSpec("qmr_like", diseases=3, findings=5, seed=1),
     "b3a89ff8761417124e70172a7ced16990cd6506c256f9beb46c6eba7c50bffc7"),
    (ModelSpec("grid_boltzmann", rows=1, cols=6, weight_scale=1.5, seed=2),
     "fa883c6dc165cae183950e1e39ef94e22442487f789bc24c6bc7b74f7b111af3"),
    (ModelSpec("full_boltzmann", nodes=7, weight_scale=2.0, seed=3),
     "2fe162a42c415783e4c35b6e5e6b3e0abfdd1066a598a5bb2d57f6b555455df5"),
])
def test_generated_model_bytes_are_pinned(tmp_path, spec, digest):
    # Every table entry is written at %.17g, so a change in any floating-point
    # operation of a generator changes the digest.
    save(generate(spec), tmp_path / "m.model")
    assert hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest() == digest


def test_qmr_structure():
    m = generate(ModelSpec("qmr_like", diseases=5, findings=1, seed=3))
    # one finding with three parents, two uncovered diseases keep priors
    sizes = sorted(len(s) for s in m.scopes)
    assert sizes == [1, 1, 3]
    assert m.meta["observe"] == "1"
    for t in m.tables:
        assert np.all(t <= 1e-12)


def test_qmr_observation_flip_keeps_product_structure():
    on = generate(ModelSpec("qmr_like", diseases=3, findings=1, seed=5))
    off = generate(ModelSpec("qmr_like", diseases=3, findings=1, seed=5, observe="0"))
    t_on = next(t for s, t in zip(on.scopes, on.tables) if len(s) == 3)
    t_off = next(t for s, t in zip(off.scopes, off.tables) if len(s) == 3)
    # P(f=1|x) + P(f=0|x) = 1, so after identical prior folding the sum
    # of the two compiled tables is a product over per-variable terms
    total = np.exp(t_on) + np.exp(t_off)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = total[i, j, k] * total[0, 0, 0] ** 2
                rhs = total[i, 0, 0] * total[0, j, 0] * total[0, 0, k]
                assert abs(lhs - rhs) < 1e-12


def test_qmr_observe_validation():
    with pytest.raises(ValueError):
        generate(ModelSpec("qmr_like", diseases=3, findings=2, observe="1"))
    with pytest.raises(ValueError):
        generate(ModelSpec("qmr_like", diseases=3, findings=2, observe="1x"))


def test_factor_model_validation():
    with pytest.raises(GraphError):
        FactorModel([2, 2], [(1, 0)], [np.zeros((2, 2))])
    with pytest.raises(GraphError):
        FactorModel([2, 2], [(0, 2)], [np.zeros((2, 2))])
    with pytest.raises(GraphError):
        FactorModel([2, 2], [(0, 1)], [np.zeros((2, 3))])
    with pytest.raises(GraphError):
        FactorModel([2, 1], [(0,)], [np.zeros(2)])
    with pytest.raises(GraphError):
        FactorModel([2], [(0,)], [np.array([np.nan, 0.0])])


@pytest.mark.parametrize("cards, scope, match", [
    ([2, 2.7], (0, 1), "variable 1: cardinality 2.7 is not an integer"),
    ([2, True], (0, 1), "variable 1: cardinality True is not an integer"),
    ([2, 2], (0.5, 1), "factor (0.5, 1): variable 0.5 is not an integer"),
    ([2, 2], (0, True), "factor (0, True): variable True is not an integer"),
], ids=["card-float", "card-bool", "scope-float", "scope-bool"])
def test_a_model_refuses_a_card_or_variable_that_is_no_integer(cards, scope, match):
    # Truncating 2.7 to a card of 2 or 0.5 to variable 0 would build another
    # model than the one asked for, and True is no variable.
    with pytest.raises(GraphError, match=f"^{re.escape(match)}$"):
        FactorModel(cards, [scope], [np.zeros((2, 2))])
    FactorModel(np.array([2, 2]), [np.array([0, 1])], [np.zeros((2, 2))])  # NumPy integers are legal


def test_neg_inf_clamped_to_floor():
    m = FactorModel([2], [(0,)], [np.array([-np.inf, 0.0])])
    assert m.tables[0][0] == CLAMP_LOG


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_values_are_checked_and_copied_per_factor(bad):
    # The values of all tables are checked in one pass over one buffer; the
    # error still names the factor holding the bad entry, and the tables
    # are copies: the caller's arrays can change without reaching them.
    scopes = [(0, 1), (1, 2), (0, 2)]
    tables = [np.arange(4.0).reshape(2, 2) + k for k in range(3)]
    tables[1][0, 0] = -np.inf
    m = FactorModel([2, 2, 2], scopes, tables)
    for t in tables:
        t += 100.0
    assert m.tables[1][0, 0] == CLAMP_LOG
    assert [t.tolist() for t in m.tables] == [[[0, 1], [2, 3]], [[CLAMP_LOG, 2], [3, 4]], [[2, 3], [4, 5]]]
    tables[2][1, 0] = bad
    with pytest.raises(GraphError, match=r"factor \(0, 2\): table has non-finite entries"):
        FactorModel([2, 2, 2], scopes, tables)


def test_save_load_round_trip(tmp_path):
    for spec in (
        ModelSpec("grid_boltzmann", rows=3, cols=3, weight_scale=2.0, seed=1),
        ModelSpec("qmr_like", diseases=6, findings=4, seed=2, observe="0110"),
    ):
        m = generate(spec)
        path = tmp_path / "model.txt"
        save(m, path)
        n = load(path)
        assert same_model(m, n)
        assert n.meta == m.meta


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("vars 2\ncards 2\nfactors 0\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        load(path)

    path.write_text("vars 1\ncards 2\nfactors 1\nfactor 3\n0 0\n")
    with pytest.raises(ModelFormatError, match="line 4"):
        load(path)

    path.write_text("vars 2\ncards 2 2\nfactors 1\nfactor 1 0\n0 0 0 0\n")
    with pytest.raises(ModelFormatError, match="sorted"):
        load(path)

    path.write_text("vars 1\ncards 2\nfactors 1\nfactor 0\n0\n")
    with pytest.raises(ModelFormatError, match="expected 2 values"):
        load(path)

    path.write_text("vars 1\ncards 2\nfactors 1\nfactor 0\n0 0 0\n")
    with pytest.raises(ModelFormatError, match="expected 2 values"):
        load(path)

    path.write_text("vars 1\ncards 2\nfactors 1\nfactor 0\n0 0\nextra 1\n")
    with pytest.raises(ModelFormatError, match="trailing"):
        load(path)

    path.write_text("vars 1\ncards 2\n")
    with pytest.raises(ModelFormatError, match="unexpected end"):
        load(path)

    head = "vars 1\ncards 2\nfactors 1\n"
    for text, match in [
        ("vars 1\ncardz 2\n", "line 2: expected 'cards', found 'cardz'"),
        ("# comment\nvars one\n", "line 2: expected a variable count"),
        ("vars 1 2\n", "line 1: 'vars' takes one count"),
        ("vars 0\n", "line 1: variable count must be positive"),
        ("vars 1\ncards 2\nfactors\n", "line 3: 'factors' takes one count"),
        ("vars 1\ncards 2\nfactors -1\n", "line 3: factor count must not be negative"),
        (head + "factor\n0 0\n", "line 4: factor with empty scope"),
        (head + "factor 0\n0 zero\n", "line 5: expected a number, found 'zero'"),
        # Two checks of FactorModel, made where each value is read.
        ("vars 2\n\ncards 2 1\nfactors 0\n", r"line 3: variable 1: cardinality must be >= 2"),
        (head + "factor 0\n0\nnan\n", r"line 6: factor \(0,\): non-finite value 'nan'"),
        (head + "factor 0\n+inf 0\n", r"line 5: factor \(0,\): non-finite value '\+inf'"),
    ]:
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=match):
            load(path)

    # -inf is log(0), which clamps.
    path.write_text(head + "factor 0\n-inf 0\n")
    assert load(path).tables[0][0] == CLAMP_LOG

    # A model may have no factors at all.
    path.write_text("vars 1\ncards 2\nfactors 0\n")
    assert load(path).scopes == []


def test_zero_probability_round_trips_to_clamp(tmp_path):
    with np.errstate(divide="ignore"):
        m = FactorModel([2], [(0,)], [np.log(np.array([0.0, 1.0]))])
    path = tmp_path / "model.txt"
    save(m, path)
    n = load(path)
    assert n.tables[0][0] == CLAMP_LOG


def test_outer_log_potentials_preserve_energy():
    rng = np.random.default_rng(11)
    cards = [2, 3, 2, 2]
    scopes = [(0, 1), (1, 2), (2, 3), (1,)]
    tables = [rng.normal(size=tuple(cards[v] for v in s)) for s in scopes]
    m = FactorModel(cards, scopes, tables)
    g = build_bethe([(0, 1), (1, 2), (2, 3)], 4)
    pots = cluster_tables(m, g)
    for _ in range(25):
        x = tuple(int(rng.integers(0, c)) for c in cards)
        direct = sum(
            t[tuple(x[v] for v in s)] for s, t in zip(m.scopes, m.tables)
        )
        via_outers = sum(
            pots[a][tuple(x[v] for v in g.region_vars(a))] for a in g.outer_ids
        )
        assert abs(direct - via_outers) < 1e-12


def test_outer_log_potentials_lie_on_the_graphs_layout():
    m = generate(ModelSpec("grid_boltzmann", rows=3, cols=3, seed=0))
    g = recipe_graph(m, "grid-plaquettes")
    pots = outer_log_potentials(m, g)
    assert isinstance(pots, ClusterPotentials)
    assert pots.layout is g.layout(m.cards)
    assert pots.logs.shape == (pots.layout.outer_size,)
    assert pots.meta == m.meta and pots.meta is not m.meta


def test_factor_without_carrier_rejected():
    m = FactorModel([2, 2, 2], [(0, 1, 2)], [np.zeros((2, 2, 2))])
    g = build_bethe([(0, 1), (1, 2)], 3)
    with pytest.raises(GraphError):
        outer_log_potentials(m, g)
