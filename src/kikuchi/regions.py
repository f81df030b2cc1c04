"""Region graphs for cluster variation approximations.

A region graph is a poset of variable subsets: "outer" clusters that carry the
model potentials, plus subset regions generated by intersections of outer
clusters.  Every region gets an overcounting number chosen so that entropy
contributions add up without double counting; the numbers are kept as exact
rationals and only converted to floats at the numerical boundary.

Overcounting numbers follow the standard recursion: outer clusters count once,
and every subset region gets one minus the sum over all regions strictly
containing it.

Containment is derived once per graph from a variable -> regions index: the
regions strictly containing a region are those that hold every one of its
variables.  The overcounts, the Hasse edges, the containing-outer map and the
max-flow arcs of ``bounds`` are all read off that one map, ``supersets``.  The
graph keeps the index to place factor scopes (``outer_containing``, read by
``outer_log_potentials`` and the CLI's single-variable marginals) and to find
the axes of a region's table that a contained region lacks (``outside_axes``,
read by the layout's index maps).  Both answers are derived once, on first
use.

``RegionGraph.layout(cards)`` places every region's table in one flat array
(``Layout``), once per graph and cards.  Its ``sums`` index maps say which
entries of a region's table sum into each entry of a region it contains; the
free energy, the constraint residual, the linearization fold and the sweep
are reductions over that one array.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np


RECIPES = ("bethe", "grid-plaquettes", "all-triplets")


class GraphError(ValueError):
    """Structurally invalid cluster input or region graph."""


class RecipeError(ValueError):
    """A region recipe that does not fit the model it is asked to cover."""


@dataclass(frozen=True)
class Region:
    id: int
    vars: tuple[int, ...]
    overcount: Fraction
    kind: str  # "outer" or "subset"

    def __post_init__(self):
        if self.kind not in ("outer", "subset"):
            raise GraphError(f"region {self.id}: unknown kind {self.kind!r}")
        if not self.vars:
            raise GraphError(f"region {self.id}: empty variable set")
        if tuple(sorted(set(self.vars))) != self.vars:
            raise GraphError(f"region {self.id}: vars must be sorted and unique")
        if self.kind == "outer" and self.overcount != 1:
            raise GraphError(f"region {self.id}: outer clusters must count once")


class RegionGraph:
    """Immutable-by-convention poset of regions.

    Derived structure (containment, Hasse edges, sign groupings,
    containing-outer maps) is computed once at construction; ``supersets[rid]``
    is the sorted tuple of the ids of the regions strictly containing ``rid``.
    ``strict`` requires every subset region to sit strictly inside at least one
    outer cluster, which holds for all built graphs; synthetic test posets may
    disable it.  ``_containment`` is the ``_index`` of the regions' variable
    sets, for a builder that has already computed it.
    """

    def __init__(self, regions: Sequence[Region], strict=True, *, _containment=None):
        self.regions = tuple(regions)
        self.by_id = {r.id: r for r in self.regions}
        if len(self.by_id) != len(self.regions):
            raise GraphError("duplicate region ids")
        varsets = {r.id: frozenset(r.vars) for r in self.regions}
        if len(set(varsets.values())) != len(self.regions):
            raise GraphError("two regions share one variable set")
        self._varsets = varsets

        self.outer_ids = tuple(sorted(r.id for r in self.regions if r.kind == "outer"))
        subset_ids = tuple(sorted(r.id for r in self.regions if r.kind == "subset"))
        self.subset_ids = subset_ids
        self.neg_ids = tuple(b for b in subset_ids if self.by_id[b].overcount < 0)
        self.pos_ids = tuple(b for b in subset_ids if self.by_id[b].overcount > 0)
        self.zero_ids = tuple(b for b in subset_ids if self.by_id[b].overcount == 0)

        self._members, self.supersets = _containment or _index(varsets)
        self._placement: dict[tuple[int, ...], int | None] = {}
        self._axes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._layouts: dict[tuple[int, ...], Layout] = {}
        outer_set = self._outer_set = set(self.outer_ids)
        self.containing_outers = {
            b: tuple(a for a in self.supersets[b] if a in outer_set)
            for b in subset_ids
        }
        self.outer_count = {b: len(self.containing_outers[b]) for b in subset_ids}
        if strict:
            for b in subset_ids:
                if self.outer_count[b] == 0:
                    raise GraphError(
                        f"subset region {b} is not strictly inside any outer cluster"
                    )

        self.hasse_edges = tuple(sorted(self._transitive_reduction()))

    def _transitive_reduction(self):
        # p is a direct parent of c unless it contains another superset of c.
        supersets = self.supersets
        edges = []
        for c, sups in supersets.items():
            indirect = set().union(*(supersets[m] for m in sups))
            edges.extend((p, c) for p in sups if p not in indirect)
        return edges

    def region_vars(self, rid: int) -> tuple[int, ...]:
        return self.by_id[rid].vars

    def outer_containing(self, vars: tuple[int, ...]) -> int | None:
        """The lowest-id outer cluster holding every variable of ``vars``, else None."""
        if vars not in self._placement:
            holders = set.intersection(*(self._members.get(v, set()) for v in vars))
            self._placement[vars] = min(holders & self._outer_set, default=None)
        return self._placement[vars]

    def outside_axes(self, p: int, c: int) -> tuple[int, ...]:
        """The axes of ``p``'s table over variables that ``c``'s table lacks."""
        if (p, c) not in self._axes:
            vc = self._varsets[c]
            self._axes[(p, c)] = tuple(i for i, v in enumerate(self.by_id[p].vars) if v not in vc)
        return self._axes[(p, c)]

    def subset_overcounts(self) -> dict[int, float]:
        return {b: float(self.by_id[b].overcount) for b in self.subset_ids}

    def layout(self, cards) -> "Layout":
        """The flat layout of this graph's tables for ``cards``, built on first use."""
        cards = tuple(cards)
        if cards not in self._layouts:
            self._layouts[cards] = Layout(self, cards)
        return self._layouts[cards]


class Layout:
    """Every region's table in one flat array: outer clusters, then subsets, by id.

    ``views[rid]`` is the (start, stop, shape) of region ``rid``'s table and
    ``starts``/``seg`` the start of each region's segment and the region
    number of each entry, in that order; the outer clusters fill
    ``[0, outer_size)``.  Only ``RegionGraph.layout`` builds one.
    """

    def __init__(self, graph: RegionGraph, cards: tuple[int, ...]):
        self.graph = graph
        self.cards = cards
        self.ids = graph.outer_ids + graph.subset_ids
        shapes = [tuple(cards[v] for v in graph.region_vars(r)) for r in self.ids]
        sizes = np.array([math.prod(s) for s in shapes], dtype=np.intp)
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(len(sizes)), sizes)
        self.views = {
            r: (int(lo), int(lo + n), s) for r, lo, n, s in zip(self.ids, self.starts, sizes, shapes)
        }
        self.size = int(sizes.sum())
        self.outer_size = int(sizes[: len(graph.outer_ids)].sum())

    @cached_property
    def overcounts(self) -> np.ndarray:
        """The overcounting number of each region, in layout order."""
        return np.array([float(self.graph.by_id[r].overcount) for r in self.ids])

    def kept_counts(self, subset_counts=None) -> np.ndarray:
        """``overcounts`` with ``subset_counts.get(b, c_b)`` for each subset ``b``."""
        if subset_counts is None:
            return self.overcounts
        keep = self.overcounts.copy()
        for i, b in enumerate(self.graph.subset_ids, start=len(self.graph.outer_ids)):
            keep[i] = subset_counts.get(b, keep[i])
        return keep

    def span(self, rid: int) -> np.ndarray:
        lo, hi, _ = self.views[rid]
        return np.arange(lo, hi)

    def tables(self, flat: np.ndarray) -> dict[int, np.ndarray]:
        """Each region's table as a view into ``flat``."""
        return {r: flat[lo:hi].reshape(shape) for r, (lo, hi, shape) in self.views.items()}

    def sums(self, pairs):
        """How each (p, c) of ``pairs``, c inside p, sums p's table onto c's.

        Returns ``src``, the flat entries of every p, pair by pair; ``group``,
        for each of them the number of the (pair, entry of c) it sums into,
        so that every group is one contiguous run of ``src`` and groups count
        up from 0; ``starts``, the start of each group; and ``at``, the flat
        entry of c of each group.  Within a group the entries of p keep their
        order in p's table.
        """
        src, at, width = [], [], []
        for p, c in pairs:
            shape = self.views[p][2]
            inside = [i for i in range(len(shape)) if i not in self.graph.outside_axes(p, c)]
            src.append(np.moveaxis(self.span(p).reshape(shape), inside, range(len(inside))).ravel())
            at.append(self.span(c))
            width.append(np.full(len(at[-1]), len(src[-1]) // len(at[-1])))
        src, at, width = (np.concatenate(x) if x else np.zeros(0, dtype=np.intp) for x in (src, at, width))
        return src, np.repeat(np.arange(len(at)), width), np.cumsum(width) - width, at

    @cached_property
    def hasse_sums(self):
        """``sums`` of the Hasse edges, which the constraint residual reads."""
        return self.sums(self.graph.hasse_edges)

    @cached_property
    def cluster_sums(self):
        """``sums`` of every (outer cluster, subset inside it), subset by subset.

        The linearization fold scatters each subset's anchor table back
        through them.
        """
        g = self.graph
        return self.sums([(a, b) for b in g.subset_ids for a in g.containing_outers[b]])


def _canonical_clusters(clusters, num_vars=None):
    cooked = []
    for cl in clusters:
        t = tuple(sorted(set(int(v) for v in cl)))
        if not t:
            raise GraphError("empty cluster in input")
        if num_vars is not None and (t[0] < 0 or t[-1] >= num_vars):
            raise GraphError(f"cluster {t} references an unknown variable")
        cooked.append(t)
    if not cooked:
        raise GraphError("no clusters given")

    # Absorb duplicates and clusters contained in a larger one; the survivors
    # keep their first-occurrence order.
    uniq: list[tuple[int, ...]] = []
    seen = set()
    for t in cooked:
        if t not in seen:
            uniq.append(t)
            seen.add(t)
    _, sups = _index({i: frozenset(t) for i, t in enumerate(uniq)})
    kept = [t for i, t in enumerate(uniq) if not sups[i]]
    dropped = len(cooked) - len(kept)
    if dropped:
        warnings.warn(f"absorbed {dropped} duplicate or contained cluster(s)")
    return kept


def _index(varsets: dict[int, frozenset]):
    """The variable -> ids index, and each id's sorted strict supersets.

    A region containing ``rid`` holds every variable of ``rid``, so it lies in
    the intersection of those variables' member sets; the variable sets are
    distinct, so every other member of that intersection contains it strictly.
    """
    members: dict[int, set[int]] = {}
    for rid, vs in varsets.items():
        for v in vs:
            members.setdefault(v, set()).add(rid)
    return members, {
        rid: tuple(sorted(set.intersection(*(members[v] for v in vs)) - {rid}))
        for rid, vs in varsets.items()
    }


def _moebius(varsets: dict[int, frozenset], supersets) -> dict[int, Fraction]:
    order = sorted(varsets, key=lambda i: (-len(varsets[i]), i))
    counts: dict[int, Fraction] = {}
    for i in order:
        counts[i] = Fraction(1) - sum((counts[j] for j in supersets[i]), Fraction(0))
    return counts


def recompute_overcounts(g: RegionGraph) -> dict[int, Fraction]:
    """Re-derive every overcounting number from the containment poset alone."""
    return _moebius(g._varsets, g.supersets)


def _assemble(outer_varsets, subset_varsets):
    varsets: dict[int, frozenset] = {}
    for i, t in enumerate(outer_varsets):
        varsets[i] = frozenset(t)
    base = len(outer_varsets)
    subs = sorted(subset_varsets, key=lambda s: (-len(s), tuple(sorted(s))))
    for k, s in enumerate(subs):
        varsets[base + k] = frozenset(s)
    containment = _index(varsets)
    counts = _moebius(varsets, containment[1])
    regions = [
        Region(i, tuple(t), Fraction(1), "outer") for i, t in enumerate(outer_varsets)
    ]
    for k, s in enumerate(subs):
        rid = base + k
        regions.append(Region(rid, tuple(sorted(s)), counts[rid], "subset"))
    return RegionGraph(regions, _containment=containment)


def build_cvm(outer_clusters, num_vars=None) -> RegionGraph:
    """Close the outer clusters under pairwise intersection, recursively.

    The closure includes intersections of intersections, so the result is a
    full cluster variation poset.  Overcounting numbers come out of the
    recursion in exact rational arithmetic.
    """
    outers = _canonical_clusters(outer_clusters, num_vars)
    outer_sets = [frozenset(t) for t in outers]
    closure = set(outer_sets)
    # Each round intersects every set found in the last round once with every
    # set before it that shares a variable; other pairs are empty or were
    # intersected in an earlier round.
    members: dict[int, list[frozenset]] = {}
    fresh = outer_sets
    while fresh:
        found = set()
        for a in fresh:
            partners = set()
            for v in a:
                partners.update(members.setdefault(v, []))
                members[v].append(a)
            found.update(a & b for b in partners)
        fresh = found - closure
        closure |= fresh
    subsets = closure - set(outer_sets)
    return _assemble(outers, subsets)


def build_bethe(clusters, num_vars=None) -> RegionGraph:
    """Bethe construction: the given clusters plus all single-variable subsets.

    Each single variable counts 1 - n, where n is the number of clusters it
    appears in.  Variables appearing in just one cluster get count zero and are
    kept (they end up in the zero group and cost nothing downstream).
    """
    outers = _canonical_clusters(clusters, num_vars)
    outer_sets = set(frozenset(t) for t in outers)
    singles = sorted({v for t in outers for v in t})
    subsets = [frozenset((v,)) for v in singles if frozenset((v,)) not in outer_sets]
    return _assemble(outers, subsets)


def recipe_graph(model, recipe: str) -> RegionGraph:
    """The region graph that ``recipe`` (one of ``RECIPES``) builds on ``model``.

    ``grid-plaquettes`` reads the grid shape from the model's ``rows``/``cols``
    metadata.  Raises ``RecipeError`` for an unknown recipe or a model it does
    not fit.
    """
    if recipe == "bethe":
        return build_bethe(model.scopes, model.num_vars)
    if recipe == "grid-plaquettes":
        try:
            rows = int(model.meta["rows"])
            cols = int(model.meta["cols"])
        except (KeyError, ValueError):
            raise RecipeError(
                "grid-plaquettes needs a grid model carrying rows/cols metadata"
            ) from None
        if rows < 2 or cols < 2:
            raise RecipeError("grid-plaquettes needs at least a 2x2 grid")
        if rows * cols != model.num_vars:
            raise RecipeError("grid metadata does not match the variable count")
        outers = []
        for r in range(rows - 1):
            for c in range(cols - 1):
                v = r * cols + c
                outers.append((v, v + 1, v + cols, v + cols + 1))
        return build_cvm(outers, model.num_vars)
    if recipe == "all-triplets":
        n = model.num_vars
        if n < 3:
            raise RecipeError("all-triplets needs at least three variables")
        return build_cvm(list(combinations(range(n), 3)), n)
    raise RecipeError(f"unknown recipe {recipe!r}; pick from {RECIPES}")


def is_singly_connected(g: RegionGraph) -> bool:
    """True iff the outer-cluster/direct-child bipartite graph is a forest."""
    outer_set = set(g.outer_ids)
    pairs = [(p, c) for p, c in g.hasse_edges if p in outer_set]
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a in g.outer_ids:
        parent.setdefault(a, a)
    for p, c in pairs:
        parent.setdefault(c, c)
        rp, rc = find(p), find(c)
        if rp == rc:
            return False
        parent[rp] = rc
    return True


def per_variable_counting_sums(g: RegionGraph) -> dict[int, Fraction]:
    """Sum of overcounting numbers over the regions holding each variable.

    Equals one for every variable on well-balanced graphs; reported as a
    diagnostic, never enforced.
    """
    sums: dict[int, Fraction] = {}
    for r in g.regions:
        for v in r.vars:
            sums[v] = sums.get(v, Fraction(0)) + r.overcount
    return dict(sorted(sums.items()))
