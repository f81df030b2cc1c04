"""Print a sha256 over 27 fixed ``minimize`` runs, to show that a change moves no trace.

The runs: 5x5 plaquettes under conv3, model seeds 0-1; all triplets of full
Boltzmann n=5, weight scale 3, seed 0, under conv1, conv3 and cccp; QMR with
20 diseases and 10 findings on Bethe regions, seeds 0-4, under conv1, conv2,
conv3 and cccp; and 4x4 plaquettes, seed 3, with ``inner_max_sweeps=5``,
under conv1 and conv3.  The hash covers, run by run in that order, the
``repr`` of every ``OuterRecord`` as a tuple, the bytes of the final belief
logs, and ``converged`` with ``stop_reason``.

The digest depends on the platform's libm (``logaddexp``), so it compares
two trees on one machine and is pinned nowhere.  Run from the repository
root:

    PYTHONPATH=src python tools/trace_digest.py
"""
from __future__ import annotations

import hashlib
from dataclasses import astuple

from kikuchi import OuterSettings, ModelSpec, build_bethe, generate, make_bound_spec, minimize, recipe_graph


def runs():
    """The (model, graph, variant, settings) of each run, in hashing order."""
    for seed in (0, 1):
        m = generate(ModelSpec("grid_boltzmann", rows=5, cols=5, seed=seed))
        yield m, recipe_graph(m, "grid-plaquettes"), "conv3", None
    m = generate(ModelSpec("full_boltzmann", nodes=5, weight_scale=3.0, seed=0))
    g = recipe_graph(m, "all-triplets")
    for variant in ("conv1", "conv3", "cccp"):
        yield m, g, variant, None
    for seed in range(5):
        m = generate(ModelSpec("qmr_like", diseases=20, findings=10, seed=seed))
        g = build_bethe(m.scopes, m.num_vars)
        for variant in ("conv1", "conv2", "conv3", "cccp"):
            yield m, g, variant, None
    m = generate(ModelSpec("grid_boltzmann", rows=4, cols=4, seed=3))
    g = recipe_graph(m, "grid-plaquettes")
    for variant in ("conv1", "conv3"):
        yield m, g, variant, OuterSettings(inner_max_sweeps=5)


def main() -> None:
    h, count = hashlib.sha256(), 0
    for model, graph, variant, settings in runs():
        trace = minimize(model, graph, make_bound_spec(graph, variant), settings)
        for record in trace.outer:
            h.update(repr(astuple(record)).encode())
        h.update(trace.final_beliefs.logs.tobytes())
        h.update(str((trace.converged, trace.stop_reason)).encode())
        count += 1
    print(f"runs {count}")
    print(f"sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
