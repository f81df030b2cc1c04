"""Generalized belief propagation on a two-layer view of the region graph.

Every subset region exchanges messages with every outer cluster whose
variables contain it.  One sweep updates the subsets colour by colour
(``Layout.levels``); for each subset the containing clusters are queried
(cluster belief marginalized, divided by the last downward message), the
subset belief is rebuilt as the product of its n upward messages raised to
1 / (n + c), where n counts its containing clusters and c is its effective
overcounting number (so the geometric mean of the messages to the power
n / (n + c)), and the downward messages and cluster beliefs are refreshed.
With Bethe counting numbers (1 - n per variable) the exponent 1 / (n + c) is
one and the sweep reduces to ordinary loopy belief propagation.  Every
subset of a built graph lies in two or more clusters; a hand-built graph may
hold one inside a single cluster, which is swept like any other.

The sweep runs in the log domain.  Cluster tables, up and down messages and
subset beliefs are log tables; a marginal is a pairwise ``logaddexp``
reduction over the cluster entries that share a subset entry, one pass over
the rows of each level's block (``Layout.sweep_steps``), and division is
subtraction.  Nothing in the sweep is floored: the reduction neither
overflows nor underflows a group to -inf, so a message far below 1e-300
stays exact and finite.

``run_gbp(pots, subset_counts, *, tol, max_sweeps, warm)`` reads the graph
and the cards off ``pots.layout``; ``pots`` is ``ClusterPotentials`` (a
model enters through ``model.outer_log_potentials``); ``free_energy`` and
``inner_potentials`` read the same count map.
The layout compiles the sweep, once per graph and cards: it colours the
subsets greedily, one level per colour.  It binds a count map once
(``Layout.bind_counts``), and a solver is bound once per such binding: the
messages a call returns hand its solver on to the call they warm-start, so
the solves of one outer loop bind one solver and only start it afresh.
The subsets of one level touch disjoint clusters and messages, so their
updates commute, and one batched update per level, levels in order,
replays the sequential sweep that visits the subsets colour by colour,
update for update; only the order of floating-point sums differs.  The
returned ``Beliefs`` and ``MessageSet`` hold flat log arrays and carry their
layout: the beliefs on it, the messages in sweep order, located by its
``edge_views``.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .energy import Beliefs
from .model import ClusterPotentials
from .regions import CountBinding, Layout, _is_integer


class ConfigurationError(ValueError):
    """Inner-loop setup that cannot run (bad exponent, foreign warm messages)."""


def _check_knob(key, value, integer=False) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is a finite, nonnegative number,
    an integer if ``integer``; a ``bool`` is no tolerance, and no integer either."""
    kind = type(value)
    if kind is not float and kind is not int and (
        isinstance(value, bool) and not integer or not isinstance(value, numbers.Real)
    ) or not 0 <= value < math.inf:
        raise ValueError(f"{key} must be finite and nonnegative, got {value!r}")
    if integer and not _is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")


def _log_normalize(x, starts, seg):
    """Segment-wise ``x - log(sum(exp(x)))``, by a pairwise ``logaddexp`` reduction."""
    return x - np.logaddexp.reduceat(x, starts)[seg]


class MessageSet:
    """The up and down log messages of one ``run_gbp`` call, flat on its ``layout``.

    ``logs = (up, down)``, both in sweep order: entry j is group j of
    ``layout.cluster_sums``.  ``layout.edge_views`` gives the (start, stop,
    shape) of each (cluster, subset) pair's table in both.
    """

    def __init__(self, layout: Layout, log_up, log_down):
        self.layout = layout
        self.logs = (log_up, log_down)
        self._solve = None  # the solver that computed them, until a warm start takes it over


class _Solve:
    """The inner solver of one count binding on a layout, and its sweep.

    The state is the cluster log tables ``logacc``, the up and down log
    messages ``log_up`` and ``log_down`` in sweep order, and the subset
    log-belief block ``log_sub``.  The constructor binds the solver to
    ``counts``, a ``CountBinding`` of ``layout``: it checks each subset's
    update exponent, sets the damping, allocates the state and binds each
    level of ``Layout.sweep_steps`` to its views of the state once: its block
    of cluster entries and their columns, its slices of the messages and of
    the subset block, its message bounds and block entries, its slice of the
    damping buffer ``mix`` (None when undamped) and its share.  ``start``
    then starts one solve on potentials; a solver serves one solve after
    another, as ``run_gbp`` hands it on with the messages it returns.
    ``logacc`` is a view of one array that holds, past the cluster tables,
    the sentinel slot of the padded blocks at -inf.  So every writer of the
    state, ``start`` and the driver's rebuild as much as any mixing of
    iterates, writes into these arrays in place (``solve.logacc[...] =
    ...``) and never rebinds them.

    A negative kept count c lifts the power n / (n + c) of the geometric mean
    of a region's n upward messages above one, so the update overshoots; then
    every update is damped by one half: the new log belief is the mean of the
    updated and the previous one.  A level's share weighs its summed upward
    log messages: the update exponent times the undamped share.
    """

    def __init__(self, layout: Layout, counts: CountBinding):
        self.layout, self.counts = layout, counts
        n_outer = len(layout.graph.outer_ids)
        low = np.flatnonzero(counts.den <= 1e-12)
        if len(low):
            raise ConfigurationError(
                f"region {layout.ids[n_outer + low[0]]}: containing-cluster count plus effective "
                f"overcounting number is {counts.den[low[0]]}; the update exponent needs it positive"
            )
        self.damping = damping = 0.0 if (counts.kept[n_outer:] >= 0).all() else 0.5
        # The update exponent's denominator of each subset-block entry.
        self._den = den = counts.den[layout.subset_segments[1]]
        n_msg = len(layout.message_segments[1])
        self.log_up, self.log_down, self.log_sub = np.empty(n_msg), np.empty(n_msg), np.empty(len(den))
        self.mix = mix = np.empty_like(den) if damping else None
        # The cluster tables and, past them, the sentinel slot of the padded blocks.
        self._acc = np.empty(layout.outer_size + 1)
        self.logacc = self._acc[:-1]
        self.levels = [
            (block, column, self.log_up[msg], self.log_down[msg], msg_starts, msg_pair, msg_sub,
             self.log_sub[sub], None if mix is None else mix[sub], (1.0 - damping) / den[sub])
            for block, column, msg, msg_starts, msg_pair, msg_sub, sub in layout.sweep_steps
        ]

    def start(self, pots: ClusterPotentials, warm=None) -> None:
        """Start a solve on ``pots``: uniform messages, or copies of ``warm``'s, and the
        subset block and cluster tables they give."""
        layout = self.layout
        pair = layout.message_segments[1]
        if warm is None:
            # log(1 / entries of its table) at each message entry
            self.log_up[...] = -np.log(np.bincount(pair))[pair]
            self.log_down[...] = self.log_up
        elif not (isinstance(warm, MessageSet) and warm.layout is layout):
            raise ConfigurationError("warm messages must come from run_gbp on this layout object")
        elif any(np.shape(x) != pair.shape for x in warm.logs):
            raise ConfigurationError(
                f"warm message arrays have shapes {[np.shape(x) for x in warm.logs]}; "
                f"this layout has {len(pair)} message entries"
            )
        else:
            self.log_up[...], self.log_down[...] = warm.logs
        acc = np.bincount(layout.cluster_sums[3], weights=self.log_up, minlength=layout.size)
        self.log_sub[...] = _log_normalize(acc[layout.outer_size:] / self._den, *layout.subset_segments)
        self._acc[-1] = -np.inf
        self.logacc[...] = layout.into_clusters(pots.logs, self.log_down)

    def sweep(self) -> None:
        """Apply one sweep, level by level, to the state in place.

        Each level writes its slice of the messages and of the block; the
        block's new log beliefs are left unnormalized until the end of the
        sweep, then normalized at once.  That is exact: within the sweep a
        belief only enters its downward messages, which are shifted to a
        maximum of zero at once, so a constant per region cancels; and the
        damped mix reads the block as the previous sweep left it.
        """
        acc, log_sub, mix = self._acc, self.log_sub, self.mix
        if mix is not None:
            np.multiply(log_sub, self.damping, out=mix)
        for block, column, up, down, msg_starts, msg_pair, msg_sub, q, m, share in self.levels:
            la = acc[block]
            # A two-row block's one pairwise step costs less as a plain ufunc call.
            u = np.logaddexp(la[0], la[1], out=up) if len(la) == 2 else np.logaddexp.reduce(la, axis=0, out=up)
            u -= down
            np.multiply(np.bincount(msg_sub, weights=u), share, out=q)
            if m is not None:
                q += m
            nd = q[msg_sub]
            nd -= u
            # A constant shift of a message cancels in the beliefs.  A maximum of zero
            # bounds each message's constant, which would otherwise grow geometrically
            # wherever an update's exponent times (1 - damping) exceeds one.
            nd -= np.maximum.reduceat(nd, msg_starts)[msg_pair]
            # ``down`` is the level's view of ``log_down``: it holds the old
            # minus the new messages until the new ones are written.
            down -= nd
            la -= down[column]
            acc[block] = la
            down[...] = nd
        sub_starts, sub_seg = self.layout.subset_segments
        log_sub -= np.logaddexp.reduceat(log_sub, sub_starts)[sub_seg]


def run_gbp(pots: ClusterPotentials, subset_counts, *, tol=1e-8, max_sweeps=2000, warm=None):
    """Sweep to a fixed point; returns (beliefs, messages, sweeps, converged).

    ``pots`` are cluster potentials on a graph's layout, as
    ``inner_potentials`` returns them; the sweep runs on the steps that
    layout compiles.  ``subset_counts`` maps a subset id to its effective
    count; a subset it leaves out keeps the graph's count, and a key that is
    no subset region raises ``ValueError``.  ``converged`` is true only when
    the largest change of a sweep, within ``max_sweeps``, fell below ``tol``
    and every returned log table is finite; on counts not convex over the
    constraints, which ``minimize`` never passes, it means only that the
    beliefs settled, as the messages may diverge.  The returned beliefs and
    messages carry ``pots.layout`` and hold flat log arrays of this call
    alone.  ``warm`` is the messages of an earlier call, carrying the same
    layout object, under any counts; anything else raises ``ConfigurationError``,
    as does a subset whose containing-cluster count plus kept count is not
    positive.  ``tol`` and ``max_sweeps`` are checked as ``OuterSettings``
    checks its knobs.  The returned messages hold the solver privately, and
    a call warm-started from them under the same ``Layout.bind_counts``
    binding takes it over, so a run of warm-started calls binds one solver.
    """
    _check_knob("tol", tol)
    _check_knob("max_sweeps", max_sweeps, integer=True)
    layout = pots.layout
    counts = layout.bind_counts(subset_counts)
    solve = warm._solve if isinstance(warm, MessageSet) else None
    if solve is not None:
        warm._solve = None
    if solve is None or solve.counts is not counts:
        solve = _Solve(layout, counts)
    solve.start(pots, warm)
    q_sub = np.exp(solve.log_sub)
    prev = np.empty_like(q_sub)
    sweeps, converged = 0, False
    for sweeps in range(1, max_sweeps + 1):
        solve.sweep()
        prev, q_sub = q_sub, np.exp(solve.log_sub, out=prev)
        prev -= q_sub
        delta = float(np.maximum.reduce(np.abs(prev, out=prev), initial=0.0))
        if math.isnan(delta):
            break
        if sweeps % 64 == 0:
            # Incremental cluster updates accumulate round-off; rebuild, in
            # place like every write to the swept state.
            solve.logacc[...] = layout.into_clusters(pots.logs, solve.log_down)
        if delta < tol:
            converged = True
            break

    n_outer = len(layout.graph.outer_ids)
    outer = layout.into_clusters(pots.logs, solve.log_down)
    outer = _log_normalize(outer, layout.starts[:n_outer], layout.seg[: layout.outer_size])
    q = Beliefs(layout, np.concatenate((outer, solve.log_sub)))
    converged = converged and bool(np.isfinite(q.logs).all())
    logs = (_log_normalize(x, *layout.message_segments) for x in (solve.log_up, solve.log_down))
    messages = MessageSet(layout, *logs)
    messages._solve = solve
    return q, messages, sweeps, converged


def constraint_residual(q: Beliefs) -> float:
    """Worst consistency violation over the parent/child containment pairs.

    One segment reduction over ``q``'s layout: every parent table summed onto
    its child's entries, against the child's table.
    """
    probs, _ = q.flat(q.layout)
    src, _, starts, at = q.layout.hasse_sums
    return float(np.max(np.abs(np.add.reduceat(probs[src], starts) - probs[at]), initial=0.0))
