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

The builders take the model's variable count and refuse a cluster naming a
variable outside it.  ``RegionGraph`` takes any poset of regions; only its
``Layout`` needs each subset region inside an outer cluster, and a card of
at least 1 for each variable.

Containment is derived once per graph from one variable -> regions index:
a builder indexes the clusters (which finds the absorbed ones), then extends
that index with the subset regions, and the graph takes it as it is.  The
regions strictly containing a region are those that hold every one of its
variables.  The overcounts, the Hasse edges, the containing-outer map and the
max-flow arcs of ``bounds`` are all read off that one map, ``supersets``.  The
graph keeps the index to place factor scopes (``outer_containing``, read by
``outer_log_potentials`` and the CLI's single-variable marginals, computed on
each call); ``counts``, every region's overcounting number as a float, and
``hasse_edges`` are derived once, on first use.

``build_cvm`` intersects new sets with clusters only: an intersection of k
clusters is one of k - 1 of them intersected with one more, and all k hold
each of its variables.  So it first intersects each pair of clusters that
hold a common variable, then each new set with every cluster holding one of
its variables, until no new set appears.

``RegionGraph.layout(cards)`` places every region's table in one flat array
(``Layout``), once per graph and cards: the outer clusters by id, then the
subsets in the order the inner sweep visits them.  Its ``sums`` index maps
say which entries of a region's table sum into each entry of a region it
contains.  Which entries of the larger table a pair reads, and in what order,
depends only on that table's shape and the axes the smaller region keeps, so
``sums`` lays out each such shape class of pairs in one broadcast.  The free
energy, the constraint residual, the linearization fold and the sweep are
reductions over that one array, and one scatter,
``into_clusters``, carries values per (cluster, subset) entry group into the
cluster tables for both the fold and the sweep.  The layout also compiles
the sweep itself, on first use: its messages, segments and per-level steps.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, starmap
from operator import and_
from typing import Sequence

import numpy as np


RECIPES = ("bethe", "grid-plaquettes", "all-triplets")


class GraphError(ValueError):
    """Structurally invalid cluster input or region graph."""


class RecipeError(ValueError):
    """A region recipe that does not fit the model it is asked to cover."""


def _is_integer(v) -> bool:
    """Whether ``v`` is a Python or NumPy integer; a ``bool`` is neither, so
    ``True`` never reads as variable 1."""
    return type(v) is int or isinstance(v, np.integer)


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
        if self.vars[0] < 0:
            raise GraphError(f"region {self.id}: negative variable {self.vars[0]}")
        if self.kind == "outer" and self.overcount != 1:
            raise GraphError(f"region {self.id}: outer clusters must count once")


class RegionGraph:
    """Immutable-by-convention poset of regions.

    Containment, sign groupings and containing-outer maps are computed at
    construction, the Hasse edges and the float counts on first use.
    ``supersets[rid]`` is the sorted tuple of the ids of the regions strictly
    containing ``rid``.  Any poset of regions builds; its ``layout`` needs
    every subset region inside an outer cluster, which holds for all built
    graphs.  ``_index`` is the regions' (variable -> ids index, supersets),
    for a builder that has already computed them.
    """

    def __init__(self, regions: Sequence[Region], *, _index=None):
        self.regions = tuple(regions)
        self.by_id = {r.id: r for r in self.regions}
        if len(self.by_id) != len(self.regions):
            raise GraphError("duplicate region ids")
        if _index is None:
            varsets = {r.id: frozenset(r.vars) for r in self.regions}
            if len(set(varsets.values())) != len(self.regions):
                raise GraphError("two regions share one variable set")
            members = _extend({}, varsets.items())
            _index = members, {rid: _supersets(members, rid, vs) for rid, vs in varsets.items()}
        self._members, self.supersets = _index

        self.outer_ids = tuple(sorted(r.id for r in self.regions if r.kind == "outer"))
        subset_ids = tuple(sorted(r.id for r in self.regions if r.kind == "subset"))
        self.subset_ids = subset_ids
        self.neg_ids = tuple(b for b in subset_ids if self.by_id[b].overcount < 0)
        self.pos_ids = tuple(b for b in subset_ids if self.by_id[b].overcount > 0)
        self.zero_ids = tuple(b for b in subset_ids if self.by_id[b].overcount == 0)

        self._layouts: dict[tuple[int, ...], Layout] = {}
        outer_set = self._outer_set = set(self.outer_ids)
        self.containing_outers = {
            b: tuple(a for a in self.supersets[b] if a in outer_set)
            for b in subset_ids
        }

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

    def subset_overcounts(self) -> dict[int, float]:
        return {b: self.counts[b] for b in self.subset_ids}

    def layout(self, cards) -> "Layout":
        """The flat layout of this graph's tables for ``cards``, built on first use."""
        cards = tuple(cards)
        if cards not in self._layouts:
            self._layouts[cards] = Layout(self, cards)
        return self._layouts[cards]


# One level of the inner sweep, as ``Layout.sweep_steps`` describes it.
SweepStep = namedtuple("SweepStep", "block column msg msg_starts msg_pair msg_sub sub")
# What the fold and the inner solve derive from one count map, as ``Layout.bind_counts`` describes it.
CountBinding = namedtuple("CountBinding", "kept den fold")


class Layout:
    """Every region's table in one flat array: outer clusters by id, then subsets in sweep order.

    Sweep order is the inner sweep's: the colours of ``levels``
    (``_levels``) in turn, ascending id within a colour.  In layout order,
    ``ids`` holds each region's id, ``starts`` and ``sizes`` the start and
    length of its segment and ``outer_counts`` its number of containing
    clusters (1 for a cluster);
    ``seg`` holds each entry's region number.  The clusters fill
    ``[0, outer_size)``.
    ``views[rid]`` is region ``rid``'s (start, stop, shape), keyed clusters
    then subsets, each by ascending id.  Only ``RegionGraph.layout`` builds one.
    It is the inner sweep's one compiled form (``edge_views`` to
    ``sweep_steps``) and keeps no numbers of a run; beside it, it keeps
    the ``CountBinding`` of the last count map it was given (``bind_counts``).
    """

    def __init__(self, graph: RegionGraph, cards: tuple[int, ...]):
        for b in graph.subset_ids:
            if not graph.containing_outers[b]:
                raise GraphError(f"subset region {b} is not strictly inside any outer cluster")
        for a in graph.outer_ids:  # every subset lies inside one of these
            for v in graph.region_vars(a):
                if v >= len(cards) or cards[v] < 1:
                    has = f"card {cards[v]}, below 1" if v < len(cards) else f"no card; {len(cards)} cards given"
                    raise GraphError(f"region {a}: variable {v} has {has}")
        self.graph = graph
        self.cards = cards
        self.levels = _levels(graph)
        self.ids = graph.outer_ids + tuple(b for level in self.levels for b in level)
        shapes = [tuple(cards[v] for v in graph.region_vars(r)) for r in self.ids]
        self.sizes = sizes = np.array([math.prod(s) for s in shapes], dtype=np.intp)
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(len(sizes)), sizes)
        views = {
            r: (int(lo), int(lo + n), s) for r, lo, n, s in zip(self.ids, self.starts, sizes, shapes)
        }
        self.views = {r: views[r] for r in graph.outer_ids + graph.subset_ids}
        self.size = int(sizes.sum())
        self.outer_size = int(sizes[: len(graph.outer_ids)].sum())
        self.outer_counts = np.array([len(graph.containing_outers.get(r, (r,))) for r in self.ids], dtype=np.intp)
        self._number = {r: i for i, r in enumerate(self.ids)}
        self._bound = None  # (a copy of the last count map, its CountBinding)

    @cached_property
    def overcounts(self) -> np.ndarray:
        """The overcounting number of each region, in layout order."""
        return np.array([self.graph.counts[r] for r in self.ids])

    def kept_counts(self, subset_counts=None) -> np.ndarray:
        """``overcounts`` with ``subset_counts[b]`` for each subset ``b`` the map holds.

        Raises ``ValueError`` naming the first key that is not a subset
        region, or else a region whose count is not finite.  The array of a
        map is its ``bind_counts(subset_counts).kept``, read-only.
        """
        return self.overcounts if subset_counts is None else self.bind_counts(subset_counts).kept

    def bind_counts(self, subset_counts) -> CountBinding:
        """What the fold and the inner solve derive from the count map ``subset_counts`` (None: none) alone.

        ``kept`` is ``kept_counts``'s array, checked as it says; ``den`` holds
        each subset's containing-cluster count plus kept count, the
        denominator of its update exponent; ``fold`` holds, per group of
        ``cluster_sums``, minus the share of its subset's linearized count,
        ``(overcount - kept) / outer_counts``, that the group's cluster takes.
        The arrays are read-only.  The layout keeps the binding of the last
        map it was given and returns that same object while the map it is
        given equals it.
        """
        subset_counts = {} if subset_counts is None else subset_counts
        if self._bound is not None and self._bound[0] == subset_counts:
            return self._bound[1]
        n_outer = len(self.graph.outer_ids)
        keep = self.overcounts.copy()
        for b, c in subset_counts.items():
            i = self._number.get(b, -1)
            if i < n_outer:
                raise ValueError(f"count given for region {b!r}, which is not a subset region")
            keep[i] = c
        finite = np.isfinite(keep)
        if not finite.all():
            i = finite.argmin()
            raise ValueError(f"region {self.ids[i]}: count {keep[i]} is not finite")
        share = (self.overcounts - keep) / self.outer_counts
        binding = CountBinding(keep, self.outer_counts[n_outer:] + keep[n_outer:],
                               -share[self.seg[self.cluster_sums[3]]])
        for x in binding:
            x.flags.writeable = False
        self._bound = (dict(subset_counts), binding)
        return binding

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
        order in p's table.  Each shape class of pairs (p's shape and the
        axes of p that c keeps) is laid out in one broadcast.
        """
        by_id, number = self.graph.by_id, self._number
        classes: dict[tuple, list[int]] = {}
        ps, cs = [], []
        for k, (p, c) in enumerate(pairs):
            kept = tuple(map(by_id[p].vars.index, by_id[c].vars))
            classes.setdefault((self.views[p][2], kept), []).append(k)
            ps.append(number[p])
            cs.append(number[c])
        ps, cs = np.array(ps, dtype=np.intp), np.array(cs, dtype=np.intp)
        p_size, c_size = self.sizes[ps], self.sizes[cs]
        src = np.empty(p_size.sum(), dtype=np.intp)
        first = np.cumsum(p_size) - p_size
        for (shape, kept), ks in classes.items():
            n = math.prod(shape)
            order = np.moveaxis(np.arange(n).reshape(shape), kept, range(len(kept))).ravel()
            src[first[ks][:, None] + np.arange(n)] = self.starts[ps[ks]][:, None] + order
        width = np.repeat(p_size // c_size, c_size)
        at = np.arange(c_size.sum()) + np.repeat(self.starts[cs] - (np.cumsum(c_size) - c_size), c_size)
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
    def sweep_steps(self) -> list[SweepStep]:
        """The slices of the inner sweep, one ``SweepStep`` per level of ``levels``.

        A step's ``block`` lays out the level's cluster entries as one
        (width, message entries) array: column j holds the entries that sum
        into the level's message entry j, in the order ``cluster_sums`` lists
        them, so a reduction over the rows chains each column's entries left
        to right.  A level whose columns differ in length pads the short ones
        with the sentinel index ``outer_size``, one cluster slot past the
        tables that the sweep holds at -inf, so a padded entry adds nothing to
        its column's reduction and is written back as -inf.  ``column`` gives
        each entry of ``block`` its column.  ``msg`` and ``sub`` slice the
        messages and the subset block; ``msg_starts`` and ``msg_pair`` are the
        start of each message and the message of each entry; ``msg_sub`` is
        the subset-block entry of each message entry.  Apart from the indices
        into the clusters and the two slices, each counts from the level's
        first message entry, message or block entry.  Within a level each
        cluster entry belongs to one message only.
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
        row, steps = np.arange(len(clu)) - group_starts[group], []
        for p0, p1, m0, m1, c0, c1, s0, s1 in zip(p, p[1:], m, m[1:], c, c[1:], s, s[1:]):
            block = np.full((row[c0:c1].max() + 1, m1 - m0), self.outer_size, dtype=np.intp)
            block[row[c0:c1], group[c0:c1] - m0] = clu[c0:c1]
            column = np.tile(np.arange(m1 - m0), (len(block), 1))
            steps.append(SweepStep(block, column, slice(m0, m1), msg_starts[p0:p1] - m0, msg_pair[m0:m1] - p0,
                                   at[m0:m1] - (self.outer_size + s0), slice(s0, s1)))
        return steps

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


def _canonical_clusters(clusters, num_vars):
    """The clusters as sorted tuples, with duplicates and clusters inside a larger one absorbed.

    The survivors keep their first-occurrence order and are numbered from 0;
    also returns their index, each variable's set of the survivors holding it.
    """
    cooked = []
    for cl in clusters:
        odd = [v for v in cl if not _is_integer(v)]
        if odd:
            raise GraphError(f"cluster {tuple(cl)}: variable {odd[0]!r} is not an integer")
        t = tuple(sorted(set(int(v) for v in cl)))
        if not t:
            raise GraphError("empty cluster in input")
        if t[0] < 0 or t[-1] >= num_vars:
            raise GraphError(f"cluster {t} references an unknown variable")
        cooked.append(t)
    if not cooked:
        raise GraphError("no clusters given")

    uniq = list(dict.fromkeys(cooked))
    members = _extend({}, enumerate(uniq))
    kept = [t for t in uniq if len(set.intersection(*map(members.__getitem__, t))) == 1]
    dropped = len(cooked) - len(kept)
    if dropped:
        warnings.warn(f"absorbed {dropped} duplicate or contained cluster(s)")
    if len(kept) < len(uniq):
        members = _extend({}, enumerate(kept))
    return kept, members


def _extend(members: dict[int, set[int]], sets) -> dict[int, set[int]]:
    """``members``, the variable -> ids index, with the (id, variables) of ``sets`` added."""
    for rid, vs in sets:
        for v in vs:
            members.setdefault(v, set()).add(rid)
    return members


def _supersets(members, rid, vs) -> tuple[int, ...]:
    """The sorted ids of the sets strictly containing ``rid``, whose variables are ``vs``.

    A set containing ``rid`` holds every variable of ``rid``, so it lies in
    the intersection of those variables' member sets; the variable sets are
    distinct, so every other member of that intersection contains it strictly.
    """
    return tuple(sorted(set.intersection(*map(members.__getitem__, vs)) - {rid}))


def _assemble(outers, subsets, members):
    """The graph of the clusters ``outers``, indexed by ``members``, and the sets ``subsets``.

    The subsets are numbered after the clusters, largest first, then by
    their sorted variables, and added to ``members``.  Every subset lies
    inside a cluster and no cluster inside another, so no region contains a
    cluster, and every region containing a subset comes before it: the
    overcounts follow in id order.
    """
    base = len(outers)
    subs = sorted(map(tuple, map(sorted, subsets)))
    subs.sort(key=len, reverse=True)
    _extend(members, enumerate(subs, base))
    supersets = dict.fromkeys(range(base), ())
    regions = [Region(i, t, 1, "outer") for i, t in enumerate(outers)]
    counts = [1] * base
    for rid, t in enumerate(subs, base):
        sups = supersets[rid] = _supersets(members, rid, t)
        counts.append(1 - sum(map(counts.__getitem__, sups)))
        regions.append(Region(rid, t, counts[rid], "subset"))
    return RegionGraph(regions, _index=(members, supersets))


def build_cvm(outer_clusters, num_vars) -> RegionGraph:
    """Close the outer clusters under intersection, by the rule of the module docstring.

    The closure holds every nonempty intersection of two or more clusters,
    so the result is a full cluster variation poset.  Overcounting numbers
    come out of the recursion as integers.
    """
    outers, members = _canonical_clusters(outer_clusters, num_vars)
    outer_sets = [frozenset(t) for t in outers]
    closure = set(outer_sets)
    pairs = (combinations(map(outer_sets.__getitem__, ids), 2) for ids in members.values())
    found = set().union(*(starmap(and_, p) for p in pairs))
    while fresh := found - closure:
        closure |= fresh
        found = set()
        for a in fresh:
            if len(a) > 1:  # every cluster holding a single variable contains it
                held = list(map(members.__getitem__, a))
                partners = set().union(*held) - set.intersection(*held)
                found.update(map(a.intersection, map(outer_sets.__getitem__, partners)))
    return _assemble(outers, closure.difference(outer_sets), members)


def build_bethe(clusters, num_vars) -> RegionGraph:
    """Bethe construction: the given clusters plus every shared single variable.

    A variable that two or more clusters share gets a subset region counting
    1 - n, where n is the number of clusters it appears in.  A variable in one
    cluster only would count 1 - 1 = 0 and carry no consistency constraint,
    so it gets no region; every subset region lies in two or more clusters.
    A single-variable cluster is never shared, since a cluster holding it
    would absorb it.
    """
    outers, members = _canonical_clusters(clusters, num_vars)
    return _assemble(outers, [(v,) for v, held in members.items() if len(held) > 1], members)


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
