"""Discrete factor models over named outer clusters.

A model is a list of variables (id, cardinality) plus dense log-potential
tables, one per cluster scope.  Tables are natural-log valued and kept finite:
log of an exactly-zero probability is clamped at ``CLAMP_LOG``.
``FactorModel`` checks each factor's scope and table shape in turn, then
copies every table into one fresh buffer and clamps and checks the values in
one pass over it; its ``tables`` are views of that buffer, so later changes
to the caller's arrays do not reach them, and a NaN or ``+inf`` raises
``GraphError`` naming the first factor that holds one.

Text format (one model per file)::

    # kikuchi model v1
    # meta family=grid_boltzmann
    vars 4
    cards 2 2 2 2
    factors 3
    factor 0 1
    0 -0.25 0.5 0
    ...

Factor tables are row-major over the sorted scope (last variable fastest),
written with enough digits that a save/load round trip is bit exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import GraphError, Layout, RegionGraph, _is_integer

CLAMP_LOG = -1e3


class ModelFormatError(ValueError):
    """Malformed model file; message carries the offending line number."""


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a reproducible model: family name, shape, weight scale, seed."""

    family: str
    rows: int = 0
    cols: int = 0
    nodes: int = 0
    diseases: int = 0
    findings: int = 0
    weight_scale: float = 1.0
    seed: int = 0
    observe: str | None = None


class FactorModel:
    def __init__(self, cards, scopes, tables, meta=None):
        for i, c in enumerate(cards):
            if not _is_integer(c):
                raise GraphError(f"variable {i}: cardinality {c!r} is not an integer")
        self.cards = tuple(int(c) for c in cards)
        for i, c in enumerate(self.cards):
            if c < 2:
                raise GraphError(f"variable {i}: cardinality must be >= 2")
        self.scopes = []
        arrays = []
        self.meta = dict(meta or {})
        n = len(self.cards)
        for scope, table in zip(scopes, tables, strict=True):
            odd = [v for v in scope if not _is_integer(v)]
            if odd:
                raise GraphError(f"factor {tuple(scope)}: variable {odd[0]!r} is not an integer")
            t = tuple(int(v) for v in scope)
            if tuple(sorted(set(t))) != t:
                raise GraphError(f"factor scope {t} must be sorted and unique")
            if not t or t[0] < 0 or t[-1] >= n:
                raise GraphError(f"factor scope {t} references an unknown variable")
            arr = np.asarray(table, dtype=float)
            want = tuple(self.cards[v] for v in t)
            if arr.shape != want:
                raise GraphError(
                    f"factor {t}: table shape {arr.shape} does not match {want}"
                )
            self.scopes.append(t)
            arrays.append(arr)
        ends = np.cumsum([a.size for a in arrays], dtype=np.intp).tolist()
        flat = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
        flat[np.isneginf(flat)] = CLAMP_LOG
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            t = self.scopes[int(np.searchsorted(ends, bad[0], side="right"))]
            raise GraphError(f"factor {t}: table has non-finite entries")
        self.tables = [flat[hi - a.size:hi].reshape(a.shape) for a, hi in zip(arrays, ends)]

    @property
    def num_vars(self) -> int:
        return len(self.cards)


def _merged(scopes, tables):
    """Collapse duplicate scopes by adding their tables, preserving order."""
    merged = {}
    for scope, table in zip(scopes, tables):
        merged[scope] = merged[scope] + table if scope in merged else np.asarray(table, dtype=float)
    return list(merged), list(merged.values())


def _pairwise_boltzmann(n, edges, w, seed, meta):
    w_max = np.finfo(float).max / 2  # rng.uniform(-w, w) needs a finite span 2w
    if not 0 <= w <= w_max:
        raise ValueError(f"weight scale must be nonnegative and at most {w_max:.6g}, got {w!r}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-w, w, size=n)
    weights = rng.uniform(-w, w, size=len(edges))
    # One (edge, x_i, x_j) broadcast, in the per-edge formula's operation order.
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    deg = np.bincount(pairs.ravel(), minlength=n)
    i, j = pairs.T.reshape(2, -1, 1, 1)
    xi = np.arange(2).reshape(1, 2, 1)
    xj = np.arange(2).reshape(1, 1, 2)
    tables = (
        weights.reshape(-1, 1, 1) * xi * xj
        + theta[i] * xi / deg[i]
        + theta[j] * xj / deg[j]
    )
    return FactorModel([2] * n, edges, tables, meta)


def _generate_grid(spec: ModelSpec) -> FactorModel:
    rows, cols = spec.rows, spec.cols
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols
    edges = []
    for v in range(n):
        r, c = divmod(v, cols)
        if c + 1 < cols:
            edges.append((v, v + 1))
        if r + 1 < rows:
            edges.append((v, v + cols))
    meta = {
        "family": "grid_boltzmann",
        "rows": str(rows),
        "cols": str(cols),
        "w": repr(float(spec.weight_scale)),
        "seed": str(spec.seed),
    }
    return _pairwise_boltzmann(n, edges, spec.weight_scale, spec.seed, meta)


def _generate_full(spec: ModelSpec) -> FactorModel:
    n = spec.nodes
    if n < 2:
        raise ValueError("fully connected model needs at least two nodes")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    meta = {
        "family": "full_boltzmann",
        "nodes": str(n),
        "w": repr(float(spec.weight_scale)),
        "seed": str(spec.seed),
    }
    return _pairwise_boltzmann(n, edges, spec.weight_scale, spec.seed, meta)


QMR_LEAK = 0.01
QMR_INHIBIT = (0.5, 0.99)
QMR_PRIOR = (0.01, 0.5)
QMR_PARENTS = 3


def _generate_qmr(spec: ModelSpec) -> FactorModel:
    """Bipartite noisy-OR with findings observed out, compiled to tables.

    Evidence is applied by slicing at generation time, so the variables of the
    produced model are the diseases only.  Disease priors are folded into the
    finding factors (split evenly when a disease feeds several findings).
    """
    d, f = spec.diseases, spec.findings
    if d < 1 or f < 1:
        raise ValueError("qmr model needs at least one disease and one finding")
    observe = spec.observe if spec.observe is not None else "1" * f
    if len(observe) != f or any(ch not in "01" for ch in observe):
        raise ValueError("observation pattern must be a 0/1 string, one per finding")
    rng = np.random.default_rng(spec.seed)
    priors = rng.uniform(*QMR_PRIOR, size=d)
    parent_sets = []
    inhibits = []
    for _ in range(f):
        k = min(QMR_PARENTS, d)
        parents = tuple(sorted(int(v) for v in rng.choice(d, size=k, replace=False)))
        parent_sets.append(parents)
        inhibits.append(rng.uniform(*QMR_INHIBIT, size=k))

    # Each covered disease's log prior is split evenly over its findings.
    log_priors = np.log(np.stack([1.0 - priors, priors], axis=1))
    covered = np.bincount(np.concatenate(parent_sets), minlength=d)
    shares = log_priors / np.maximum(covered, 1)[:, None]

    scopes, tables = [], []
    for parents, inhibit, seen in zip(parent_sets, inhibits, observe):
        k = len(parents)
        p_off = np.ones((2,) * k)
        for axis in range(k):
            idx = [slice(None)] * k
            idx[axis] = 1
            p_off[tuple(idx)] *= inhibit[axis]
        p_off *= 1.0 - QMR_LEAK
        with np.errstate(divide="ignore"):
            table = np.log(p_off if seen == "0" else 1.0 - p_off)
        for axis, v in enumerate(parents):
            table = table + shares[v].reshape([2 if a == axis else 1 for a in range(k)])
        scopes.append(parents)
        tables.append(table)
    for j in np.flatnonzero(covered == 0).tolist():
        scopes.append((j,))
        tables.append(log_priors[j])

    scopes, tables = _merged(scopes, tables)
    meta = {
        "family": "qmr_like",
        "diseases": str(d),
        "findings": str(f),
        "observe": observe,
        "leak": repr(QMR_LEAK),
        "inhibit": f"{QMR_INHIBIT[0]}..{QMR_INHIBIT[1]}",
        "prior": f"{QMR_PRIOR[0]}..{QMR_PRIOR[1]}",
        "seed": str(spec.seed),
    }
    return FactorModel([2] * d, scopes, tables, meta)


def generate(spec: ModelSpec) -> FactorModel:
    """Deterministically build the model described by ``spec``."""
    if spec.family == "grid_boltzmann":
        return _generate_grid(spec)
    if spec.family == "full_boltzmann":
        return _generate_full(spec)
    if spec.family == "qmr_like":
        return _generate_qmr(spec)
    raise ValueError(f"unknown model family {spec.family!r}")


def save(model: FactorModel, path) -> None:
    lines = ["# kikuchi model v1"]
    for key in sorted(model.meta):
        lines.append(f"# meta {key}={model.meta[key]}")
    lines.append(f"vars {model.num_vars}")
    lines.append("cards " + " ".join(str(c) for c in model.cards))
    lines.append(f"factors {len(model.scopes)}")
    for scope, table in zip(model.scopes, model.tables):
        lines.append("factor " + " ".join(str(v) for v in scope))
        lines.append(" ".join(f"{x:.17g}" for x in table.reshape(-1)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> FactorModel:
    meta = {}
    rows = []  # (line number, tokens); comments and blanks stripped
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith("# meta "):
                body = line[len("# meta "):]
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if not line or line.startswith("#"):
                continue
            rows.append((ln, line.split()))

    i = 0
    last_ln = rows[-1][0] if rows else 0

    def expect(keyword):
        nonlocal i
        if i >= len(rows):
            raise ModelFormatError(f"line {last_ln}: unexpected end of file")
        ln, parts = rows[i]
        i += 1
        if parts[0] != keyword:
            raise ModelFormatError(
                f"line {ln}: expected {keyword!r}, found {parts[0]!r}"
            )
        return ln, parts[1:]

    def ints(ln, parts, what):
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise ModelFormatError(f"line {ln}: expected {what}") from None

    ln, parts = expect("vars")
    if len(parts) != 1:
        raise ModelFormatError(f"line {ln}: 'vars' takes one count")
    n = ints(ln, parts, "a variable count")[0]
    if n < 1:
        raise ModelFormatError(f"line {ln}: variable count must be positive")

    ln, parts = expect("cards")
    cards = ints(ln, parts, "integer cardinalities")
    if len(cards) != n:
        raise ModelFormatError(f"line {ln}: expected {n} cardinalities, found {len(cards)}")
    for v, c in enumerate(cards):
        if c < 2:
            raise ModelFormatError(f"line {ln}: variable {v}: cardinality must be >= 2")

    ln, parts = expect("factors")
    if len(parts) != 1:
        raise ModelFormatError(f"line {ln}: 'factors' takes one count")
    nf = ints(ln, parts, "a factor count")[0]
    if nf < 0:
        raise ModelFormatError(f"line {ln}: factor count must not be negative")

    scopes, tables = [], []
    for _ in range(nf):
        ln, parts = expect("factor")
        scope = ints(ln, parts, "variable indices")
        if not scope:
            raise ModelFormatError(f"line {ln}: factor with empty scope")
        for v in scope:
            if v < 0 or v >= n:
                raise ModelFormatError(f"line {ln}: unknown variable index {v}")
        if tuple(sorted(set(scope))) != tuple(scope):
            raise ModelFormatError(f"line {ln}: factor scope must be sorted and unique")
        size = 1
        for v in scope:
            size *= cards[v]
        values = []
        vln = ln
        while len(values) < size:
            if i >= len(rows) or rows[i][1][0] == "factor":
                raise ModelFormatError(
                    f"line {vln}: factor table for {tuple(scope)}: expected "
                    f"{size} values, found {len(values)}"
                )
            vln, vparts = rows[i]
            i += 1
            for tok in vparts:
                try:
                    x = float(tok)
                except ValueError:
                    raise ModelFormatError(
                        f"line {vln}: expected a number, found {tok!r}"
                    ) from None
                if np.isnan(x) or x == np.inf:  # -inf is log(0), which clamps
                    raise ModelFormatError(f"line {vln}: factor {tuple(scope)}: non-finite value {tok!r}")
                values.append(x)
        if len(values) > size:
            raise ModelFormatError(
                f"line {vln}: factor table for {tuple(scope)}: expected "
                f"{size} values, found {len(values)}"
            )
        shape = tuple(cards[v] for v in scope)
        scopes.append(tuple(scope))
        tables.append(np.array(values).reshape(shape))
    if i != len(rows):
        ln5, parts = rows[i]
        raise ModelFormatError(f"line {ln5}: trailing content {parts[0]!r}")
    return FactorModel(cards, scopes, tables, meta)


class ClusterPotentials:
    """Outer-cluster log potentials, one flat array ``logs`` on ``layout`` (which
    carries the graph and the cards), with a model's ``meta``: the only form
    of a model the layers read.  ``outer_log_potentials`` makes the first."""

    def __init__(self, layout: Layout, logs: np.ndarray, meta=None):
        self.layout = layout
        self.logs = logs
        self.meta = dict(meta or {})


def outer_log_potentials(model: FactorModel, graph: RegionGraph) -> ClusterPotentials:
    """``model``'s factors summed into ``graph``'s outer clusters, flat on
    ``graph.layout(model.cards)``: the one way a model reaches the layers.

    Each factor, in model order, is added into the lowest-id outer cluster
    that holds its scope.  A factor contained in no outer cluster is a
    ``GraphError``; the region graph cannot carry it.
    """
    layout = graph.layout(model.cards)
    logs = np.zeros(layout.outer_size)
    for scope, table in zip(model.scopes, model.tables):
        target = graph.outer_containing(scope)
        if target is None:
            raise GraphError(f"factor {scope} fits in no outer cluster")
        lo, hi, shape = layout.views[target]
        onto = tuple(model.cards[v] if v in scope else 1 for v in graph.region_vars(target))
        cluster = logs[lo:hi].reshape(shape)  # a view, so the sum lands in logs
        cluster += table.reshape(onto)
    return ClusterPotentials(layout, logs, model.meta)
