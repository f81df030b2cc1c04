"""Command-line harness: generate models, check region graphs, run and compare.

Subcommands:

  generate   write a synthetic model file (grid, full, qmr families)
  check      analyze a model's region graph and print the convexity verdict
  run        minimize one bound variant, writing a trace
  compare    run several variants over a seed list and summarize

``generate``, ``run`` and ``compare`` read the same model flags into one
``ExperimentConfig`` (the only defaults) and build the model through
``config_model``; ``run`` and ``compare`` solve and write through one body.

Exit codes: 0 success, 1 non-convex verdict from ``check``, 2 usage error,
3 runtime failure.  All outputs are deterministic given the same inputs.
"""
from __future__ import annotations

import argparse
import math
import re
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bounds import (
    VARIANTS,
    ConvexityError,
    check_conv2_bound,
    check_convex_over_constraints,
    make_bound_spec,
)
from .doubleloop import (
    OuterSettings,
    iterations_to_reach,
    minimize,
    write_trace,
)
from .energy import kl_marginals
from .model import ModelFormatError, ModelSpec, generate, load, save
from .oracle import OracleLimitError, exact_inference
from .propagation import ConfigurationError, InnerSettings
from .regions import (
    RECIPES,
    GraphError,
    RecipeError,
    is_singly_connected,
    per_variable_counting_sums,
    recipe_graph,
)

FAMILIES = {
    "grid": "grid_boltzmann",
    "full": "full_boltzmann",
    "qmr": "qmr_like",
    "file": "file",
}


class UsageError(ValueError):
    """Bad flags or config; reported with exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run, round-trippable through a file."""

    family: str = "file"
    model: str | None = None
    rows: int = 4
    cols: int = 4
    nodes: int = 6
    diseases: int = 8
    findings: int = 5
    w: float = 1.0
    observe: str | None = None
    recipe: str = "bethe"
    variants: tuple[str, ...] = ("conv1", "conv2", "conv3", "cccp")
    seeds: tuple[int, ...] = (0,)
    outdir: str = "out"
    outer_tol: float = OuterSettings.outer_tol
    marginal_tol: float = OuterSettings.marginal_tol
    max_outer: int = OuterSettings.max_outer
    inner_tol: float = InnerSettings.tol
    inner_max_sweeps: int = InnerSettings.max_sweeps
    consensus_window: float = 1e-4


# One (format, parse) pair per field type: the dataclass fields are the schema.
_TYPE_CODECS = {
    "str": (str, str),
    "str | None": (
        lambda v: "none" if v is None else str(v),
        lambda s: None if s == "none" else s,
    ),
    "int": (str, int),
    "float": (repr, float),
    "tuple[str, ...]": (
        lambda v: ",".join(v),
        lambda s: tuple(p for p in s.split(",") if p),
    ),
    "tuple[int, ...]": (
        lambda v: ",".join(str(x) for x in v),
        lambda s: tuple(int(p) for p in s.split(",") if p),
    ),
}
_FIELD_CODECS = {f.name: _TYPE_CODECS[f.type] for f in fields(ExperimentConfig)}

# Keys that config files written by earlier versions hold, each with the one
# value that still describes how the solver runs: the kept counts decide how
# much inner updates are damped, and each inner solve starts from the last.
_RETIRED = {"damping": "auto", "warm_start": "true"}


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = ["# experiment config v1"]
    for name, (fmt, _) in _FIELD_CODECS.items():
        lines.append(f"{name} = {fmt(getattr(cfg, name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _RETIRED:
            if val != _RETIRED[key]:
                raise UsageError(
                    f"config line {ln}: {key!r} was removed; "
                    f"only {key} = {_RETIRED[key]} is accepted"
                )
            continue
        if key not in _FIELD_CODECS:
            raise UsageError(f"config line {ln}: unknown key {key!r}")
        try:
            values[key] = _FIELD_CODECS[key][1](val)
        except ValueError:
            raise UsageError(f"config line {ln}: bad value for {key!r}") from None
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg))


def _validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.family not in FAMILIES:
        raise UsageError(f"unknown model family {cfg.family!r}")
    if cfg.recipe not in RECIPES:
        raise UsageError(f"unknown recipe {cfg.recipe!r}; pick from {RECIPES}")
    for v in cfg.variants:
        if v not in VARIANTS:
            raise UsageError(f"unknown variant {v!r}; pick from {VARIANTS}")
    if not cfg.variants:
        raise UsageError("variant list is empty")
    if not cfg.seeds:
        raise UsageError("seed list is empty")
    for key in ("variants", "seeds"):
        dups = [x for x in getattr(cfg, key) if getattr(cfg, key).count(x) > 1]
        if dups:
            raise UsageError(f"{key} lists {dups[0]!r} twice")
    for key in ("outer_tol", "marginal_tol", "inner_tol", "consensus_window", "max_outer", "inner_max_sweeps"):
        if not 0 <= getattr(cfg, key) < math.inf:
            raise UsageError(f"{key} must be finite and nonnegative, got {getattr(cfg, key)!r}")
    return cfg


def config_model(cfg: ExperimentConfig, seed: int):
    """The model ``cfg`` names: its file, or its synthetic family generated at ``seed``."""
    family = FAMILIES[cfg.family]
    if family == "file":
        if not cfg.model:
            raise UsageError("family 'file' needs a model path")
        return load(cfg.model)
    spec = ModelSpec(
        family, rows=cfg.rows, cols=cfg.cols, nodes=cfg.nodes, diseases=cfg.diseases,
        findings=cfg.findings, weight_scale=cfg.w, seed=seed, observe=cfg.observe,
    )
    try:
        return generate(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def outer_settings(cfg: ExperimentConfig) -> OuterSettings:
    return OuterSettings(
        outer_tol=cfg.outer_tol,
        marginal_tol=cfg.marginal_tol,
        max_outer=cfg.max_outer,
        inner=InnerSettings(tol=cfg.inner_tol, max_sweeps=cfg.inner_max_sweeps),
    )


def single_variable_marginals(beliefs):
    """Per-variable marginals read off the beliefs, on the graph and cards of their layout.

    A variable's marginal is its own single-variable region's table when the
    graph has one, else the lowest-id outer cluster holding it
    (``outer_containing``), summed onto it.  A variable that no region holds
    (no factor touches it) is uniform, which is its exact marginal.
    """
    graph = beliefs.layout.graph
    singleton = {r.vars[0]: r.id for r in graph.regions if len(r.vars) == 1}
    out = {}
    for v, card in enumerate(beliefs.layout.cards):
        if v in singleton:
            t = beliefs.tables[singleton[v]]
        elif (a := graph.outer_containing((v,))) is None:
            t = np.ones(card)
        else:
            axes = tuple(i for i, u in enumerate(graph.region_vars(a)) if u != v)
            t = beliefs.tables[a].sum(axis=axes)
        out[v] = t / t.sum()
    return out


def oracle_marginals(model):
    """Exact single-variable marginals keyed by variable, off the oracle's
    junction tree; None only for a model over its clique limit."""
    try:
        exact = exact_inference(model, regions=[(v,) for v in range(model.num_vars)])
    except OracleLimitError:
        return None
    return exact.marginals


def kl_to_oracle(exact, beliefs):
    """Mean per-variable KL from ``oracle_marginals``; None when those are None."""
    if exact is None:
        return None
    n = len(exact)
    return kl_marginals(exact, single_variable_marginals(beliefs), range(n)) / n


def _kl_text(kl) -> str:
    return "unavailable" if kl is None else f"{kl:.17g}"


def _solve_and_write(cfg: ExperimentConfig, seeds, name: str):
    """Write ``config.txt`` into ``cfg.outdir``, then per seed solve every variant
    and write each trace with its KL to the oracle.

    ``name`` names each trace's files, formatted with ``seed`` and
    ``variant``.  Yields each seed with a (trace, kl) pair per variant, in
    the order of ``cfg.variants``; the oracle runs once per seed.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, outdir / "config.txt")
    settings = outer_settings(cfg)
    for seed in seeds:
        model = config_model(cfg, seed)
        graph = recipe_graph(model, cfg.recipe)
        specs = [make_bound_spec(graph, v) for v in cfg.variants]
        traces = [minimize(model, graph, s, settings) for s in specs]
        exact = oracle_marginals(model)
        solved = []
        for spec, trace in zip(specs, traces):
            kl = kl_to_oracle(exact, trace.final_beliefs)
            stem = outdir / name.format(seed=seed, variant=spec.variant)
            write_trace(trace, spec, stem, model.meta, seed=seed, kl_to_oracle=kl)
            solved.append((trace, kl))
        yield seed, solved


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    if cfg.family == "file":
        raise UsageError("generate needs --family grid, full or qmr")
    model = config_model(cfg, cfg.seeds[0])
    save(model, args.out)
    print(f"wrote {args.out}: {model.num_vars} variables, {len(model.scopes)} factors")
    return 0


def cmd_check(args) -> int:
    model = load(args.model)
    graph = recipe_graph(model, args.recipe)
    print(
        f"regions {len(graph.regions)} "
        f"(outer {len(graph.outer_ids)}, subset {len(graph.subset_ids)})"
    )
    print("id kind count vars")
    for r in graph.regions:
        print(f"{r.id} {r.kind} {r.overcount} " + ",".join(str(v) for v in r.vars))
    print(
        f"subsets negative {len(graph.neg_ids)} "
        f"positive {len(graph.pos_ids)} zero {len(graph.zero_ids)}"
    )
    print(f"singly-connected {'yes' if is_singly_connected(graph) else 'no'}")
    sums = per_variable_counting_sums(graph)
    balanced = all(s == 1 for s in sums.values())
    print(f"per-variable count sums all one: {'yes' if balanced else 'no'}")

    witness = check_convex_over_constraints(graph, graph.counts)
    print(f"convex-over-constraints {'yes' if witness is not None else 'no'}")
    if witness is not None:
        for (g, b), f in sorted(witness.entries.items()):
            print(f"alloc {g} {b} {f:.17g}")
    conv2 = check_conv2_bound(graph)
    print(f"conv2-bound {'yes' if conv2 is not None else 'no'}")
    spec3 = make_bound_spec(graph, "conv3")
    for b in graph.subset_ids:
        print(f"conv3-ctilde {b} {spec3.inner_overcounts[b]:.17g}")
    return 0 if witness is not None else 1


def _resolve_config(args) -> ExperimentConfig:
    """The config file (or defaults) overridden by every field flag given."""
    given = vars(args)
    cfg = load_config(given["config"]) if "config" in given else ExperimentConfig()
    over = {f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given}
    if "seed" in given:
        over["seeds"] = (given["seed"],)
    if "model" in over and "family" not in over:
        over["family"] = "file"
    return _validate_config(replace(cfg, **over))


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    cfg = replace(cfg, variants=(getattr(args, "variant", cfg.variants[0]),))
    [(_, [(trace, kl)])] = _solve_and_write(cfg, cfg.seeds[:1], "trace_{variant}")
    print(
        f"variant {trace.variant} outer_iterations {trace.outer_iterations} "
        f"total_inner_sweeps {trace.total_inner_sweeps} "
        f"final_f_kik {trace.final_f:.17g} kl_to_oracle {_kl_text(kl)} "
        f"converged {'yes' if trace.converged else 'no'}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    summary = [
        "# compare summary",
        "# columns: seed variant outer_iterations total_inner_sweeps final_f_kik kl_to_oracle",
    ]
    plot = ["# plotdata v1: x = outer iterations / just-convex iterations, y = f_kik"]
    reach: dict[str, list[float]] = {v: [] for v in cfg.variants}

    for seed, solved in _solve_and_write(cfg, cfg.seeds, "trace_seed{seed}_{variant}"):
        consensus = min(tr.final_f for tr, _ in solved)
        scale = 1.0
        if "conv3" in cfg.variants:
            scale = max(1.0, float(solved[cfg.variants.index("conv3")][0].outer_iterations))
        for tr, kl in solved:
            summary.append(
                f"row {seed} {tr.variant} {tr.outer_iterations} "
                f"{tr.total_inner_sweeps} {tr.final_f:.17g} {_kl_text(kl)}"
            )
            reach[tr.variant].append(iterations_to_reach(tr, consensus, cfg.consensus_window))
            plot.append(f"series {tr.variant} seed {seed}")
            for rec in tr.outer:
                plot.append(f"{rec.outer_index / scale:.17g} {rec.f_kik:.17g}")
            plot.append("end")
        summary.append(f"consensus {seed} {consensus:.17g}")

    median_lines = []
    for v in cfg.variants:
        med = statistics.median(reach[v])
        text = "inf" if math.isinf(med) else f"{med:g}"
        median_lines.append(f"median_iters_to_consensus {v} {text}")
    summary.extend(median_lines)

    outdir = Path(cfg.outdir)
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    (outdir / "plotdata.txt").write_text("\n".join(plot) + "\n")
    for line in median_lines:
        print(line)
    print(f"wrote {outdir}")
    return 0


def _add_model_flags(p, with_seed=True):
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--model", help="model file path (family 'file')")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--n", dest="nodes", type=int)
    p.add_argument("--diseases", type=int)
    p.add_argument("--findings", type=int)
    p.add_argument("--w", type=float, help="weight scale")
    p.add_argument("--observe", help="0/1 string, one per finding")
    if with_seed:
        p.add_argument("--seed", type=int)


def _add_solver_flags(p):
    p.add_argument("--recipe", choices=RECIPES)
    p.add_argument("--outdir")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--outer-tol", dest="outer_tol", type=float)
    p.add_argument("--marginal-tol", dest="marginal_tol", type=float)
    p.add_argument("--max-outer", dest="max_outer", type=int)
    p.add_argument("--inner-tol", dest="inner_tol", type=float)
    p.add_argument("--inner-max-sweeps", dest="inner_max_sweeps", type=int)


def _seed_list(text):
    try:
        return _FIELD_CODECS["seeds"][1](text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kikuchi",
        description="Region-graph free energy minimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate", help="write a synthetic model file", argument_default=argparse.SUPPRESS
    )
    _add_model_flags(g)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="region graph diagnostics and convexity verdict")
    c.add_argument("model", help="model file")
    c.add_argument("--recipe", choices=RECIPES, default="bethe")
    c.set_defaults(func=cmd_check)

    r = sub.add_parser(
        "run", help="minimize one bound variant", argument_default=argparse.SUPPRESS
    )
    _add_model_flags(r)
    _add_solver_flags(r)
    r.add_argument("--variant", choices=VARIANTS)
    r.set_defaults(func=cmd_run)

    m = sub.add_parser(
        "compare",
        help="run several variants over a seed list",
        argument_default=argparse.SUPPRESS,
    )
    _add_model_flags(m, with_seed=False)
    _add_solver_flags(m)
    m.add_argument(
        "--variants",
        type=_FIELD_CODECS["variants"][1],
        help="comma list from " + ",".join(VARIANTS),
    )
    m.add_argument("--seeds", type=_seed_list, help="comma list of integers")
    m.add_argument("--consensus-window", dest="consensus_window", type=float)
    m.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as ``-1e-8`` for a flag; every long flag but
    # ``--help`` takes one value, so ``--flag -1e-8`` is read as ``--flag=-1e-8``.
    for i in reversed(range(1, len(argv))):
        if re.match(r"-([\d.]|inf|nan)", argv[i], re.I) and re.fullmatch(r"--(?!h)[^=]+", argv[i - 1]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, RecipeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ModelFormatError,
        GraphError,
        ConvexityError,
        ConfigurationError,
        OracleLimitError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
