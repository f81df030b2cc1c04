"""Region graphs for cluster variation approximations.

A region graph is a poset of variable subsets: "outer" clusters that carry the
model potentials, plus subset regions generated by intersections of outer
clusters.  Every region gets an overcounting number chosen so that entropy
contributions add up without double counting.

Overcounting numbers follow the standard recursion: outer clusters count once,
and every subset region gets one minus the sum over all regions strictly
containing it.  The recursion only ever adds and subtracts integers, so a
built graph's numbers are Python ``int``s, converted to floats at the
numerical boundary (``counts``).

Containment is derived once per graph from a variable -> regions index: the
regions strictly containing a region are those that hold every one of its
variables.  The overcounts, the Hasse edges, the containing-outer map and the
max-flow arcs of ``bounds`` are all read off that one map, ``supersets``.  The
graph keeps the index to place factor scopes (``outer_containing``, read by
``outer_log_potentials`` and the CLI's single-variable marginals) and to find
the axes of a region's table that a contained region lacks (``outside_axes``,
read by the layout's index maps).  Both are computed on each call; ``counts``,
every region's overcounting number as a float, and ``hasse_edges`` are derived
once, on first use.

``RegionGraph.layout(cards)`` places every region's table in one flat array
(``Layout``), once per graph and cards: the outer clusters by id, then the
subsets in the order the inner sweep visits them.  Its ``sums`` index maps
say which entries of a region's table sum into each entry of a region it
contains; the free energy, the constraint residual, the linearization fold
and the sweep are reductions over that one array, and one scatter,
``into_clusters``, carries values per (cluster, subset) entry group into the
cluster tables for both the fold and the sweep.  The layout also compiles
the sweep itself, on first use: its messages, segments and per-level steps.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
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
    overcount: int  # a hand-built poset may pass any rational
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

    Containment, sign groupings and containing-outer maps are computed at
    construction, the Hasse edges and the float counts on first use.
    ``supersets[rid]`` is the sorted tuple of the ids of the regions strictly
    containing ``rid``.
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

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """The (parent, child) containment pairs with no region in between, sorted."""
        # p is a direct parent of c unless it contains another superset of c.
        supersets = self.supersets
        edges = []
        for c, sups in supersets.items():
            indirect = set().union(*(supersets[m] for m in sups))
            edges.extend((p, c) for p in sups if p not in indirect)
        return tuple(sorted(edges))

    @cached_property
    def counts(self) -> dict[int, float]:
        """Every region's overcounting number as a float, by id; do not mutate."""
        return {r.id: float(r.overcount) for r in self.regions}

    def region_vars(self, rid: int) -> tuple[int, ...]:
        return self.by_id[rid].vars

    def outer_containing(self, vars: tuple[int, ...]) -> int | None:
        """The lowest-id outer cluster holding every variable of ``vars``, else None."""
        holders = set.intersection(*(self._members.get(v, set()) for v in vars))
        return min(holders & self._outer_set, default=None)

    def outside_axes(self, p: int, c: int) -> tuple[int, ...]:
        """The axes of ``p``'s table over variables that ``c``'s table lacks."""
        vc = self._varsets[c]
        return tuple(i for i, v in enumerate(self.by_id[p].vars) if v not in vc)

    def subset_overcounts(self) -> dict[int, float]:
        return {b: self.counts[b] for b in self.subset_ids}

    def layout(self, cards) -> "Layout":
        """The flat layout of this graph's tables for ``cards``, built on first use."""
        cards = tuple(cards)
        if cards not in self._layouts:
            self._layouts[cards] = Layout(self, cards)
        return self._layouts[cards]


class Layout:
    """Every region's table in one flat array: outer clusters by id, then subsets in sweep order.

    Sweep order is the inner sweep's: the colours of ``levels``
    (``_levels``) in turn, ascending id within a colour.  In layout order,
    ``ids`` holds each region's id, ``starts`` the start of its segment and
    ``outer_counts`` its number of containing clusters (1 for a cluster);
    ``seg`` holds each entry's region number.  The clusters fill
    ``[0, outer_size)``.
    ``views[rid]`` is region ``rid``'s (start, stop, shape), keyed clusters
    then subsets, each by ascending id.  Only ``RegionGraph.layout`` builds one.
    It is the inner sweep's one compiled form (``edge_views`` to
    ``sweep_steps``) and keeps no numbers of a run.
    """

    def __init__(self, graph: RegionGraph, cards: tuple[int, ...]):
        self.graph = graph
        self.cards = cards
        self.levels = _levels(graph)
        self.ids = graph.outer_ids + tuple(b for level in self.levels for b in level)
        shapes = [tuple(cards[v] for v in graph.region_vars(r)) for r in self.ids]
        sizes = np.array([math.prod(s) for s in shapes], dtype=np.intp)
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(len(sizes)), sizes)
        views = {
            r: (int(lo), int(lo + n), s) for r, lo, n, s in zip(self.ids, self.starts, sizes, shapes)
        }
        self.views = {r: views[r] for r in graph.outer_ids + graph.subset_ids}
        self.size = int(sizes.sum())
        self.outer_size = int(sizes[: len(graph.outer_ids)].sum())
        self.outer_counts = np.array([graph.outer_count.get(r, 1) for r in self.ids], dtype=np.intp)
        self._number = {r: i for i, r in enumerate(self.ids)}

    @cached_property
    def overcounts(self) -> np.ndarray:
        """The overcounting number of each region, in layout order."""
        return np.array([self.graph.counts[r] for r in self.ids])

    def kept_counts(self, subset_counts=None) -> np.ndarray:
        """``overcounts`` with ``subset_counts[b]`` for each subset ``b`` it holds.

        Raises ``ValueError`` naming the first key that is not a subset region.
        """
        if subset_counts is None:
            return self.overcounts
        keep = self.overcounts.copy()
        for b, c in subset_counts.items():
            i = self._number.get(b, -1)
            if i < len(self.graph.outer_ids):
                raise ValueError(f"count given for region {b!r}, which is not a subset region")
            keep[i] = c
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
    def edge_views(self) -> dict[tuple[int, int], tuple[int, int, tuple[int, ...]]]:
        """Each (cluster, subset inside it) message's (start, stop, shape) in the sweep's message arrays.

        The pairs run subset by subset in layout order, clusters by id; each
        message has its subset's shape.
        """
        g, views, at = self.graph, {}, 0
        for b in self.ids[len(g.outer_ids):]:
            lo, hi, shape = self.views[b]
            for a in g.containing_outers[b]:
                views[a, b] = (at, at + hi - lo, shape)
                at += hi - lo
        return views

    @cached_property
    def cluster_sums(self):
        """``sums`` of the pairs of ``edge_views``: its groups are the messages of the inner sweep."""
        return self.sums(self.edge_views)

    @cached_property
    def message_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The start of each message of ``edge_views``, and the message of each entry."""
        sizes = np.array([hi - lo for lo, hi, _ in self.edge_views.values()], dtype=np.intp)
        return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)

    @cached_property
    def subset_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``starts`` and ``seg`` of the subset block ``[outer_size, size)``, counted from its start."""
        n_outer = len(self.graph.outer_ids)
        return self.starts[n_outer:] - self.outer_size, self.seg[self.outer_size:] - n_outer

    @cached_property
    def sweep_steps(self) -> list[tuple]:
        """The slices of the inner sweep, one step per level of ``levels``.

        A step is, in order: the level's cluster entries, grouped by the
        message entry they sum into; the level-local message entry of each;
        the start of each group; the level's message entries; the start of
        each message and the message of each entry; the subset-block entry
        of each message entry; the level's subset block.  Apart from the
        cluster entries and the two slices, each counts from the level's
        first message entry, cluster entry, message or block entry.  Within a
        level each gathered cluster entry belongs to one message only.
        """
        cont = self.graph.containing_outers
        clu, group, group_starts, at = self.cluster_sums
        msg_starts, msg_pair = self.message_segments
        sub_starts, sub_seg = self.subset_segments
        # The bounds of each level's messages, message entries, cluster
        # entries and subset-block entries.
        p = np.cumsum([0] + [sum(len(cont[b]) for b in level) for level in self.levels])
        m = np.append(msg_starts, len(msg_pair))[p]
        c = np.append(group_starts, len(clu))[m]
        s = np.append(sub_starts, len(sub_seg))[np.cumsum([0] + [len(lv) for lv in self.levels])]
        return [
            (clu[c0:c1], group[c0:c1] - m0, group_starts[m0:m1] - c0, slice(m0, m1),
             msg_starts[p0:p1] - m0, msg_pair[m0:m1] - p0, at[m0:m1] - (self.outer_size + s0), slice(s0, s1))
            for p0, p1, m0, m1, c0, c1, s0, s1 in zip(p, p[1:], m, m[1:], c, c[1:], s, s[1:])
        ]

    @cached_property
    def _into(self):
        return np.concatenate((np.arange(self.outer_size), self.cluster_sums[0]))

    def into_clusters(self, pots: np.ndarray, per_group: np.ndarray) -> np.ndarray:
        """The cluster tables ``pots`` plus, at each cluster entry, the values of its groups.

        ``per_group`` holds one value per group of ``cluster_sums``; the fold
        and the sweep both reach the clusters through this one scatter.
        """
        weights = np.concatenate((pots, per_group[self.cluster_sums[1]]))
        return np.bincount(self._into, weights=weights, minlength=self.outer_size)


def _levels(graph: RegionGraph) -> tuple[tuple[int, ...], ...]:
    """Colour the subsets greedily, one level per colour, ascending id within a level.

    In ascending id, each subset takes the lowest colour that no earlier
    subset sharing one of its clusters holds, so no two subsets of a level
    share a cluster.
    """
    held: dict[int, set[int]] = {}
    groups: list[list[int]] = []
    for b in graph.subset_ids:
        cont = graph.containing_outers[b]
        taken = set().union(*(held.get(a, ()) for a in cont))
        lv = min(set(range(len(groups) + 1)) - taken)
        if lv == len(groups):
            groups.append([])
        groups[lv].append(b)
        for a in cont:
            held.setdefault(a, set()).add(lv)
    return tuple(tuple(g) for g in groups)


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


def _moebius(varsets: dict[int, frozenset], supersets) -> dict[int, int]:
    order = sorted(varsets, key=lambda i: (-len(varsets[i]), i))
    counts: dict[int, int] = {}
    for i in order:
        counts[i] = 1 - sum(counts[j] for j in supersets[i])
    return counts


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
    regions = [Region(i, tuple(t), 1, "outer") for i, t in enumerate(outer_varsets)]
    for k, s in enumerate(subs):
        rid = base + k
        regions.append(Region(rid, tuple(sorted(s)), counts[rid], "subset"))
    return RegionGraph(regions, _containment=containment)


def build_cvm(outer_clusters, num_vars=None) -> RegionGraph:
    """Close the outer clusters under pairwise intersection, recursively.

    The closure includes intersections of intersections, so the result is a
    full cluster variation poset.  Overcounting numbers come out of the
    recursion as integers.
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
    """Bethe construction: the given clusters plus every shared single variable.

    A variable that two or more clusters share gets a subset region counting
    1 - n, where n is the number of clusters it appears in.  A variable in one
    cluster only would count 1 - 1 = 0 and carry no consistency constraint,
    so it gets no region; every subset region lies in two or more clusters.
    A single-variable cluster is never shared, since a cluster holding it
    would absorb it.
    """
    outers = _canonical_clusters(clusters, num_vars)
    holders = Counter(v for t in outers for v in t)
    return _assemble(outers, [frozenset((v,)) for v, n in holders.items() if n > 1])


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


def per_variable_counting_sums(g: RegionGraph) -> dict[int, int]:
    """Sum of overcounting numbers over the regions holding each variable.

    Equals one for every variable on well-balanced graphs; reported as a
    diagnostic, never enforced.
    """
    sums: Counter = Counter()
    for r in g.regions:
        for v in r.vars:
            sums[v] += r.overcount
    return dict(sorted(sums.items()))
