"""Property tests: the promises of a returned trace on random small models."""
from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kikuchi import (
    ConvexityError,
    ModelSpec,
    build_bethe,
    generate,
    make_bound_spec,
    minimize,
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    diseases=st.integers(3, 8),
    findings=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(("conv1", "conv2", "conv3", "cccp")),
)
def test_qmr_bethe_traces_keep_their_promises(diseases, findings, seed, variant):
    m = generate(ModelSpec("qmr_like", diseases=diseases, findings=findings, seed=seed))
    g = build_bethe(m.scopes, m.num_vars)
    try:
        spec = make_bound_spec(g, variant)
    except ConvexityError:
        assume(False)
    trace = minimize(m, g, spec)
    fs = [r.f_kik for r in trace.outer]
    assert all(math.isfinite(f) for f in fs)
    for t, (a, b) in enumerate(zip(fs, fs[1:])):
        assert b <= a + 1e-9, f"rise at outer {t + 1}"
    if trace.converged:
        assert trace.outer[-1].constraint_residual <= 1e-6
