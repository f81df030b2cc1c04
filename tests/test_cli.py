"""Command line surface: config files, subcommands, exit codes, outputs."""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import kikuchi
from kikuchi import OuterSettings, cli, load, run_gbp
from kikuchi.cli import (
    ExperimentConfig,
    UsageError,
    config_to_text,
    load_config,
    main,
    parse_config,
    save_config,
)


def test_config_text_round_trip():
    cases = [
        ExperimentConfig(),
        ExperimentConfig(family="grid", rows=6, cols=6, w=2.0,
                         seeds=(0, 1, 2), variants=("conv3", "cccp"),
                         outdir="exp/run1"),
        ExperimentConfig(family="qmr", diseases=8, findings=5,
                         observe="01101", outer_tol=3.0000000000000004e-09),
        ExperimentConfig(family="file", model="m.txt", consensus_window=5e-05),
    ]
    for cfg in cases:
        text = config_to_text(cfg)
        assert parse_config(text) == cfg


DEFAULT_CONFIG_TEXT = """\
# experiment config v1
family = file
model = none
rows = 4
cols = 4
nodes = 6
diseases = 8
findings = 5
w = 1.0
observe = none
recipe = bethe
variants = conv1,conv2,conv3,cccp
seeds = 0
outdir = out
outer_tol = 1e-08
marginal_tol = 1e-06
max_outer = 10000
inner_tol = 1e-08
inner_max_sweeps = 2000
consensus_window = 0.0001
"""


def test_config_text_is_pinned():
    # config.txt lands in every run's outdir; round trips cannot see a drift.
    assert config_to_text(ExperimentConfig()) == DEFAULT_CONFIG_TEXT
    cfg = ExperimentConfig(family="grid", rows=6, cols=6, w=2.0,
                           seeds=(0, 1, 2), variants=("conv3", "cccp"),
                           outdir="exp/run1")
    want = """\
# experiment config v1
family = grid
model = none
rows = 6
cols = 6
nodes = 6
diseases = 8
findings = 5
w = 2.0
observe = none
recipe = bethe
variants = conv3,cccp
seeds = 0,1,2
outdir = exp/run1
outer_tol = 1e-08
marginal_tol = 1e-06
max_outer = 10000
inner_tol = 1e-08
inner_max_sweeps = 2000
consensus_window = 0.0001
"""
    assert config_to_text(cfg) == want


def test_every_solver_knob_has_one_name_from_flag_to_trace(tmp_path):
    # Each OuterSettings field is an ExperimentConfig field with the same
    # default, a run and compare flag, a config line and a trace settings key.
    names = [f.name for f in fields(OuterSettings)]
    default = OuterSettings()
    doubled = {k: 2 * getattr(default, k) for k in names}
    for k in names:
        assert getattr(ExperimentConfig(), k) == getattr(default, k)
        cfg = ExperimentConfig(**{k: doubled[k]})
        assert parse_config(config_to_text(cfg)) == cfg
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in doubled.items()]
    for command, trace in [("run", "trace_conv1.json"), ("compare", "trace_seed0_conv1.json")]:
        outdir = tmp_path / command
        variant = ["--variant", "conv1"] if command == "run" else ["--variants", "conv1"]
        assert main([command, "--family", "grid", "--rows", "2", "--cols", "2", *variant,
                     *flags, "--outdir", str(outdir)]) == 0
        meta = json.loads((outdir / trace).read_text())
        assert meta["settings"] == doubled
        assert {k: getattr(load_config(outdir / "config.txt"), k) for k in names} == doubled
    # The inner two are also run_gbp's own defaults.
    params = inspect.signature(run_gbp).parameters
    assert (params["tol"].default, params["max_sweeps"].default) == (
        default.inner_tol, default.inner_max_sweeps)


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(family="full", nodes=7, seeds=(3,), w=1.25)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_parse_config_reports_line_numbers():
    good = config_to_text(ExperimentConfig())
    with pytest.raises(UsageError, match="line 3"):
        parse_config("# experiment config v1\nfamily = grid\nwhat = 1\n")
    with pytest.raises(UsageError, match="rows"):
        parse_config(good.replace("rows = 4", "rows = many"))
    with pytest.raises(UsageError, match="max_outer"):
        parse_config(good.replace("max_outer = 10000", "max_outer = many"))
    with pytest.raises(UsageError, match="line 3: expected 'key = value'"):
        parse_config("# experiment config v1\nfamily = grid\nrows 4\n")


def test_generate_and_load(tmp_path, capsys):
    out = tmp_path / "grid.model"
    rc = main(["generate", "--family", "grid", "--rows", "3", "--cols", "3",
               "--w", "1.5", "--seed", "4", "-o", str(out)])
    assert rc == 0
    assert "9 variables, 12 factors" in capsys.readouterr().out
    m = load(out)
    assert m.num_vars == 9
    assert m.meta["family"] == "grid_boltzmann"


def test_check_verdicts(tmp_path, capsys):
    grid = tmp_path / "grid.model"
    main(["generate", "--family", "grid", "--rows", "3", "--cols", "3",
          "--seed", "0", "-o", str(grid)])
    rc = main(["check", str(grid)])
    out = capsys.readouterr().out
    assert rc == 1  # loopy pairwise entropy sum is not certified
    assert "convex-over-constraints no" in out
    assert "per-variable count sums all one: yes" in out
    assert "singly-connected no" in out
    assert "conv3-ctilde" in out

    chain = tmp_path / "chain.model"
    main(["generate", "--family", "grid", "--rows", "1", "--cols", "5",
          "--seed", "0", "-o", str(chain)])
    rc = main(["check", str(chain)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "convex-over-constraints yes" in out
    assert "singly-connected yes" in out


def test_check_prints_verifiable_witness(tmp_path, capsys):
    cyc = tmp_path / "cycle.model"
    main(["generate", "--family", "grid", "--rows", "2", "--cols", "2",
          "--seed", "1", "-o", str(cyc)])
    rc = main(["check", str(cyc)])
    assert rc == 0
    out = capsys.readouterr().out
    allocs = [ln.split() for ln in out.splitlines() if ln.startswith("alloc ")]
    assert allocs
    # four variable regions, each charged one unit in total
    received = {}
    for _, g, b, v in allocs:
        received[b] = received.get(b, 0.0) + float(v)
    assert all(abs(total - 1.0) < 1e-9 for total in received.values())
    assert len(received) == 4


@pytest.mark.parametrize("model_flags, recipe, digest", [
    (["grid", "--rows", "10", "--cols", "10"], "grid-plaquettes",
     "b698db7f772e7fe8070953ebb77e99f312e718f9225911b56da0ebd8a0c9e2d9"),
    (["grid", "--rows", "10", "--cols", "10"], "bethe",
     "791fe2bd7d69a52ca370f3e0d552eebac500bb8e898e327fdc2dff018c47e5eb"),
    (["full", "--n", "8"], "all-triplets",
     "fa47655bbc34a7cf2f24c4b1d83d76802339463be95ccd2af20cd57a0c300d7e"),
])
def test_check_output_is_pinned(tmp_path, capsys, model_flags, recipe, digest):
    # The output lists every region, every witness entry at %.17g and every
    # conv3 count, so it changes if a different maximum flow is found.
    model = tmp_path / "m.model"
    main(["generate", "--family", *model_flags, "-o", str(model)])
    capsys.readouterr()
    assert main(["check", str(model), "--recipe", recipe]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_run_writes_trace_and_reports(tmp_path, capsys):
    model = tmp_path / "m.model"
    main(["generate", "--family", "grid", "--rows", "2", "--cols", "3",
          "--seed", "2", "-o", str(model)])
    outdir = tmp_path / "out"
    rc = main(["run", "--model", str(model), "--variant", "conv1",
               "--outdir", str(outdir)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("variant conv1 ")
    assert "converged yes" in line
    assert (outdir / "config.txt").exists()
    assert (outdir / "trace_conv1.csv").exists()
    meta = json.loads((outdir / "trace_conv1.json").read_text())
    assert meta["variant"] == "conv1"
    assert meta["kl_to_oracle"] < 1e-6  # tiny loopy model, nearly exact here

    cfg = load_config(outdir / "config.txt")
    assert cfg.family == "file"
    assert cfg.variants == ("conv1",)


def test_run_reports_variables_no_factor_touches(tmp_path, capsys):
    # Variable 2 is in no factor, so no region holds it; its marginal is
    # uniform, which the oracle agrees with.
    model = tmp_path / "loose.model"
    model.write_text("# kikuchi model v1\nvars 3\ncards 2 2 2\nfactors 1\n"
                     "factor 0 1\n0 0.5 -0.25 1\n")
    rc = main(["run", "--family", "file", "--model", str(model), "--recipe", "bethe",
               "--variant", "conv1", "--outdir", str(tmp_path / "out")])
    assert rc == 0
    assert "converged yes" in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "trace_conv1.json").read_text())
    assert math.isfinite(meta["kl_to_oracle"]) and meta["kl_to_oracle"] < 1e-12


def test_run_reads_corner_marginals_off_their_plaquette(tmp_path, capsys):
    # On a 3x3 grid with plaquettes each corner lies in one plaquette and in
    # no subset region, so its marginal is that plaquette's belief summed.
    # On a 1x5 grid with Bethe regions each end lies in one edge and gets no
    # region, so its marginal is that edge's belief summed.
    cases = [
        # rows, cols, recipe, corners: (the cluster holding it, its axis there)
        (3, 3, "grid-plaquettes", {0: (0, 0), 2: (1, 1), 6: (2, 2), 8: (3, 3)}),
        (1, 5, "bethe", {0: (0, 0), 4: (3, 1)}),
    ]
    for rows, cols, recipe, corners in cases:
        model = tmp_path / f"g{rows}x{cols}.model"
        main(["generate", "--family", "grid", "--rows", str(rows), "--cols", str(cols),
              "--seed", "4", "-o", str(model)])
        outdir = tmp_path / recipe
        rc = main(["run", "--model", str(model), "--recipe", recipe,
                   "--variant", "conv3", "--outdir", str(outdir)])
        assert rc == 0
        m = load(model)
        g = kikuchi.recipe_graph(m, recipe)
        assert not any(set(corners) & set(g.region_vars(b)) for b in g.subset_ids)
        settings = cli.outer_settings(load_config(outdir / "config.txt"))
        trace = kikuchi.minimize(m, g, kikuchi.make_bound_spec(g, "conv3"), settings)
        marginals = cli.single_variable_marginals(trace.final_beliefs)
        for v, (a, axis) in corners.items():
            width = len(g.region_vars(a))
            assert g.region_vars(a)[axis] == v
            t = trace.final_beliefs.tables[a].sum(axis=tuple(i for i in range(width) if i != axis))
            np.testing.assert_allclose(marginals[v], t / t.sum(), rtol=1e-14, atol=0)
        meta = json.loads((outdir / "trace_conv3.json").read_text())
        assert math.isfinite(meta["kl_to_oracle"])
        assert meta["kl_to_oracle"] == cli.kl_to_oracle(
            cli.oracle_marginals(m), trace.final_beliefs
        )


def test_run_plain_matches_exact_bound_on_convex_model(tmp_path, capsys):
    model = tmp_path / "cycle.model"
    main(["generate", "--family", "grid", "--rows", "2", "--cols", "2",
          "--seed", "5", "-o", str(model)])
    finals = {}
    for variant in ("none", "conv3"):
        rc = main(["run", "--model", str(model), "--variant", variant,
                   "--outdir", str(tmp_path / variant)])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        finals[variant] = float(line.split("final_f_kik ")[1].split()[0])
    assert finals["none"] == pytest.approx(finals["conv3"], abs=1e-6)


def test_compare_outputs(tmp_path, capsys):
    outdir = tmp_path / "cmp"
    rc = main(["compare", "--family", "grid", "--rows", "3", "--cols", "3",
               "--seeds", "0,1", "--variants", "conv1,conv3",
               "--outdir", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median_iters_to_consensus conv1" in out
    for seed in (0, 1):
        for v in ("conv1", "conv3"):
            assert (outdir / f"trace_seed{seed}_{v}.csv").exists()
            assert (outdir / f"trace_seed{seed}_{v}.json").exists()
    summary = (outdir / "summary.txt").read_text()
    rows = [ln for ln in summary.splitlines() if ln.startswith("row ")]
    assert len(rows) == 4
    assert sum(ln.startswith("consensus ") for ln in summary.splitlines()) == 2
    plot = (outdir / "plotdata.txt").read_text()
    assert plot.count("series conv3 seed") == 2
    # conv3 trace x coordinates are scaled to end at 1
    block = plot.split("series conv3 seed 0\n", 1)[1].split("\nend", 1)[0]
    last_x = float(block.splitlines()[-1].split()[0])
    assert last_x == pytest.approx(1.0)


def test_compare_runs_the_oracle_once_per_seed(tmp_path, monkeypatch):
    # The model changes per seed, not per variant, so one oracle call serves
    # every trace of a seed.
    calls = []
    real = cli.exact_inference

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_inference", counted)
    rc = main(["compare", "--family", "qmr", "--diseases", "6", "--findings", "3",
               "--seeds", "0,1", "--variants", "conv1,conv3,cccp",
               "--outdir", str(tmp_path / "cmp")])
    assert rc == 0
    assert len(calls) == 2
    metas = [json.loads(p.read_text()) for p in sorted((tmp_path / "cmp").glob("*.json"))]
    assert len(metas) == 6
    assert all(m["kl_to_oracle"] is not None for m in metas)


def test_run_seed_flag_writes_the_seed(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["run", "--family", "grid", "--rows", "2", "--cols", "2", "--seed", "4",
                 "--variant", "conv1", "--outdir", str(outdir)]) == 0
    assert "seeds = 4\n" in (outdir / "config.txt").read_text()
    assert load_config(outdir / "config.txt").seeds == (4,)
    assert json.loads((outdir / "trace_conv1.json").read_text())["seed"] == 4


def test_refused_oracle_reads_unavailable(tmp_path, capsys, monkeypatch):
    # An oracle over its clique limit leaves the KL unavailable: the run
    # says so, its trace holds JSON null, and so do the compare rows.
    monkeypatch.setattr(kikuchi.oracle, "CLIQUE_LIMIT", 1)
    flags = ["--family", "grid", "--rows", "2", "--cols", "2"]
    assert main(["run", *flags, "--variant", "conv1", "--outdir", str(tmp_path / "r")]) == 0
    assert "kl_to_oracle unavailable" in capsys.readouterr().out
    assert json.loads((tmp_path / "r" / "trace_conv1.json").read_text())["kl_to_oracle"] is None
    assert main(["compare", *flags, "--seeds", "0,1", "--variants", "conv1,conv3",
                 "--outdir", str(tmp_path / "c")]) == 0
    rows = [ln.split() for ln in (tmp_path / "c" / "summary.txt").read_text().splitlines()
            if ln.startswith("row ")]
    assert len(rows) == 4 and all(row[-1] == "unavailable" for row in rows)


@pytest.mark.parametrize("w", ["700", "5000"])
def test_strong_coupling_kl_is_a_number_and_not_negative(tmp_path, capsys, w):
    # A fully connected 4-variable model at a strong weight scale: the oracle
    # answers, and its KL to the solver's marginals is finite and >= 0.
    outdir = tmp_path / "out"
    assert main(["run", "--family", "full", "--n", "4", "--w", w, "--variant", "conv1",
                 "--outdir", str(outdir)]) == 0
    assert "kl_to_oracle unavailable" not in capsys.readouterr().out
    kl = json.loads((outdir / "trace_conv1.json").read_text())["kl_to_oracle"]
    assert isinstance(kl, float) and math.isfinite(kl) and kl >= 0.0


def test_compare_is_reproducible(tmp_path):
    args = ["compare", "--family", "grid", "--rows", "3", "--cols", "3",
            "--seeds", "0", "--variants", "conv1,cccp"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(a)]) == 0
    assert main(args + ["--outdir", str(b)]) == 0
    for name in ("trace_seed0_conv1.csv", "trace_seed0_cccp.csv",
                 "summary.txt", "plotdata.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_drives_run(tmp_path, capsys):
    cfg = ExperimentConfig(family="grid", rows=2, cols=3, seeds=(7,),
                           variants=("cccp",), outdir=str(tmp_path / "o"))
    path = tmp_path / "exp.txt"
    save_config(cfg, path)
    rc = main(["run", "--config", str(path)])
    assert rc == 0
    assert "variant cccp" in capsys.readouterr().out
    assert (tmp_path / "o" / "trace_cccp.csv").exists()

    # a config file written before the damping and warm_start keys were
    # removed still runs; a flag overrides the file, and the config the run
    # writes drops the two keys
    old = path.read_text().replace(
        "inner_max_sweeps = 2000\n",
        "inner_max_sweeps = 2000\ndamping = auto\nwarm_start = true\n")
    path.write_text(old)
    rc = main(["run", "--config", str(path), "--outdir", str(tmp_path / "old")])
    assert rc == 0
    assert (tmp_path / "old" / "config.txt").read_text() == config_to_text(
        replace(cfg, outdir=str(tmp_path / "old")))
    # any other value for a removed key is refused
    capsys.readouterr()
    path.write_text(old.replace("damping = auto", "damping = 0.3"))
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "bad")]) == 2
    assert "'damping' was removed" in capsys.readouterr().err
    save_config(cfg, path)

    # --model without --family runs the file even when the config names a
    # synthetic family, and the written config says so
    model = tmp_path / "q.model"
    main(["generate", "--family", "qmr", "--diseases", "4", "--findings", "3",
          "--seed", "2", "-o", str(model)])
    rc = main(["run", "--config", str(path), "--model", str(model),
               "--outdir", str(tmp_path / "file")])
    assert rc == 0
    text = (tmp_path / "file" / "config.txt").read_text()
    assert "family = file\n" in text
    assert f"model = {model}\n" in text
    meta = json.loads((tmp_path / "file" / "trace_cccp.json").read_text())
    assert meta["model"]["family"] == "qmr_like"


def test_usage_errors_exit_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    main(["generate", "--family", "grid", "--rows", "2", "--cols", "2",
          "--seed", "0", "-o", str(model)])
    capsys.readouterr()
    assert main(["run", "--model", str(model), "--variant", "conv9"]) == 2
    assert main(["generate", "--family", "grid", "--rows", "0", "--cols", "2",
                 "-o", str(tmp_path / "x.model")]) == 2
    assert main(["compare", "--family", "grid", "--rows", "2", "--cols", "2",
                 "--variants", "conv1", "--recipe", "grid-plaquettes",
                 "--outdir", str(tmp_path / "c"), "--seeds", "0,zero"]) == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and "comma list of integers" in err
    assert main(["compare", "--family", "grid", "--rows", "2", "--cols", "2",
                 "--variants", ",", "--outdir", str(tmp_path / "c")]) == 2
    assert "variant list is empty" in capsys.readouterr().err
    assert main(["frobnicate"]) == 2  # argparse rejection is a usage error
    # a recipe that does not fit the model; a refused run leaves no output
    qmr = tmp_path / "q.model"
    main(["generate", "--family", "qmr", "-o", str(qmr)])
    capsys.readouterr()
    assert main(["check", str(qmr), "--recipe", "grid-plaquettes"]) == 2
    assert "rows/cols metadata" in capsys.readouterr().err
    outdir = tmp_path / "qp"
    assert main(["run", "--family", "qmr", "--recipe", "grid-plaquettes", "--outdir", str(outdir)]) == 2
    assert "rows/cols metadata" in capsys.readouterr().err
    assert not outdir.exists()
    pair = tmp_path / "pair.model"
    main(["generate", "--family", "grid", "--rows", "1", "--cols", "2", "-o", str(pair)])
    capsys.readouterr()
    assert main(["check", str(pair), "--recipe", "all-triplets"]) == 2
    assert "at least three variables" in capsys.readouterr().err
    row = tmp_path / "row.model"
    main(["generate", "--family", "grid", "--rows", "1", "--cols", "3", "-o", str(row)])
    capsys.readouterr()
    assert main(["check", str(row), "--recipe", "grid-plaquettes"]) == 2
    assert "at least a 2x2 grid" in capsys.readouterr().err

    # Bad values in a config file, in flags and in model shapes.
    good = config_to_text(ExperimentConfig(family="grid", rows=2, cols=2, outdir=str(tmp_path / "x")))
    config = tmp_path / "bad.txt"
    for old, new, message in [
        ("family = grid", "family = lattice", "unknown model family 'lattice'"),
        ("recipe = bethe", "recipe = hexagons", "unknown recipe 'hexagons'"),
        ("seeds = 0", "seeds =", "seed list is empty"),
    ]:
        assert old in good
        config.write_text(good.replace(old, new))
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
    for argv, message in [
        (["compare", "--family", "grid", "--rows", "2", "--cols", "2", "--variants", "conv9",
          "--outdir", str(tmp_path / "c")], "unknown variant 'conv9'"),
        (["run", "--family", "file", "--outdir", str(tmp_path / "f")], "family 'file' needs a model path"),
        (["generate", "--family", "grid", "--w", "-1", "-o", str(tmp_path / "w.model")],
         "weight scale must be nonnegative"),
        (["generate", "--family", "qmr", "--diseases", "0", "-o", str(tmp_path / "d.model")],
         "qmr model needs at least one disease"),
    ]:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_generate_run_and_compare_share_one_model_path(tmp_path, capsys):
    # run with no shape flags builds the model that generate writes at the
    # same defaults
    assert main(["run", "--family", "qmr", "--variant", "conv1",
                 "--outdir", str(tmp_path / "r")]) == 0
    assert main(["generate", "--family", "qmr", "-o", str(tmp_path / "a.model")]) == 0
    meta = json.loads((tmp_path / "r" / "trace_conv1.json").read_text())
    assert meta["model"] == load(tmp_path / "a.model").meta
    capsys.readouterr()
    # generate writes synthetic models only
    for flags in ([], ["--family", "file"]):
        assert main(["generate", *flags, "-o", str(tmp_path / "x.model")]) == 2
        assert "--family" in capsys.readouterr().err
        assert not (tmp_path / "x.model").exists()
    # a config names a family by its flag spelling only
    text = config_to_text(ExperimentConfig(family="grid", outdir=str(tmp_path / "g")))
    config = tmp_path / "long.txt"
    config.write_text(text.replace("family = grid", "family = grid_boltzmann"))
    assert main(["run", "--config", str(config)]) == 2
    assert "unknown model family 'grid_boltzmann'" in capsys.readouterr().err


def test_a_weight_scale_that_cannot_be_drawn_is_refused(tmp_path, capsys):
    # NaN, infinite, negative and overflowing scales are usage errors naming
    # the weight scale, from flags and from a config file alike; a refused
    # run leaves no output directory.
    config = tmp_path / "w.txt"
    config.write_text(config_to_text(ExperimentConfig(family="grid", outdir=str(tmp_path / "c")))
                      .replace("w = 1.0", "w = nan"))
    for argv in [
        ["generate", "--family", "grid", "--rows", "2", "--cols", "2", "--w", "nan",
         "-o", str(tmp_path / "m.model")],
        ["generate", "--family", "full", "--w", "1e308", "-o", str(tmp_path / "m.model")],
        ["run", "--family", "full", "--n", "4", "--w", "inf", "--outdir", str(tmp_path / "r")],
        ["run", "--family", "full", "--w", "-1e3", "--outdir", str(tmp_path / "r")],
        ["run", "--config", str(config)],
    ]:
        assert main(argv) == 2
        assert "weight scale" in capsys.readouterr().err
    assert not (tmp_path / "r").exists() and not (tmp_path / "c").exists()
    assert main(["generate", "--family", "full", "--w", "1e300", "-o", str(tmp_path / "m.model")]) == 0


def test_compare_refuses_a_repeated_variant_or_seed(tmp_path, capsys):
    # A repeat would solve a case twice, rewrite its trace files and print
    # its summary lines twice.
    base = ["compare", "--family", "grid", "--rows", "2", "--cols", "2"]
    for flags, message in [
        (["--variants", "conv1,conv3,conv1"], "variants lists 'conv1' twice"),
        (["--seeds", "0,1,0"], "seeds lists 0 twice"),
    ]:
        outdir = tmp_path / flags[0].lstrip("-")
        assert main(base + flags + ["--outdir", str(outdir)]) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()


@pytest.mark.parametrize("key, value", [
    ("outer_tol", "nan"), ("outer_tol", "-1e-8"), ("marginal_tol", "inf"),
    ("inner_tol", "nan"), ("inner_tol", "-inf"), ("consensus_window", "-1e-4"),
    ("max_outer", "-1"), ("inner_max_sweeps", "-5"),
])
def test_settings_that_cannot_run_are_refused(tmp_path, capsys, key, value):
    # A NaN, infinite or negative tolerance or window and a negative budget
    # are usage errors that name the key, before any solve; zero is legal.
    command = "compare" if key == "consensus_window" else "run"
    outdir = tmp_path / "o"
    argv = [command, "--family", "grid", "--rows", "2", "--cols", "2",
            f"--{key.replace('_', '-')}={value}", "--outdir", str(outdir)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not outdir.exists()
    zero = ExperimentConfig(**{key: type(getattr(ExperimentConfig(), key))(0)})
    assert cli._validate_config(zero) == zero


@pytest.mark.parametrize("command, flag, value, message", [
    ("run", "--outer-tol", "-1e-8", "outer_tol must be finite and nonnegative, got -1e-08"),
    ("generate", "--w", "-1e3", "weight scale must be nonnegative"),
], ids=["outer-tol", "w"])
def test_a_negative_value_in_exponent_form_reaches_validation(tmp_path, capsys, command, flag, value, message):
    # argparse would take ``-1e-8`` for a flag and refuse ``--outer-tol`` for
    # want of a value; given after its flag, the value reaches the check that
    # names the real reason, as ``--outer-tol=-1e-8`` does.
    out = ["-o", str(tmp_path / "m.model")] if command == "generate" else ["--outdir", str(tmp_path / "o")]
    assert main([command, "--family", "full", flag, value] + out) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "m.model").exists()


def test_runtime_errors_exit_3(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.model")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")

    model = tmp_path / "grid.model"
    main(["generate", "--family", "grid", "--rows", "3", "--cols", "3",
          "--seed", "0", "-o", str(model)])
    capsys.readouterr()
    rc = main(["run", "--model", str(model), "--variant", "none",
               "--outdir", str(tmp_path / "o")])
    assert rc == 3
    assert "bound variant" in capsys.readouterr().err


def test_qmr_generate_respects_observation_length(tmp_path, capsys):
    out = tmp_path / "q.model"
    rc = main(["generate", "--family", "qmr", "--diseases", "6",
               "--findings", "4", "--observe", "101", "--seed", "1",
               "-o", str(out)])
    assert rc == 2  # three bits cannot cover four findings
    rc = main(["generate", "--family", "qmr", "--diseases", "6",
               "--findings", "4", "--observe", "1010", "--seed", "1",
               "-o", str(out)])
    assert rc == 0
    m = load(out)
    assert m.num_vars == 6


def test_package_does_not_import_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(kikuchi.__file__).parents[1]))
    probe = "import sys, kikuchi; print('kikuchi.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # running the module must not warn that it was imported before execution
    proc = subprocess.run([sys.executable, "-m", "kikuchi.cli", "generate",
                           "--family", "grid", "--rows", "2", "--cols", "2",
                           "-o", str(tmp_path / "g.model")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
