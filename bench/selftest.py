#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Checks that each end-to-end and per-layer metric named in ``BENCHMARK.json``
is reported with the unit given there, that every counter repeats exactly
across two traced passes, that the traced self times cover the pass within
``TRACE_SLACK``, and that a run without the library exits non-zero with no
result.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def check_workload(name: str, spec: dict) -> list[str]:
    errors = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _, _ = bench.measure(name, seed=0, seconds=0, trace=trace, tiny=True)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            errors.append(f"{key} metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
        for n, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
                errors.append(f"{n}: value {m['value']!r} is not a number")
        if result["attempted"] < 1:
            errors.append("no case attempted")
    wl = bench.WORKLOADS[name]
    passes = [bench.run_pass(wl, wl.tiny, 0, traced=True) for _ in range(2)]
    first, second = passes
    for counter in bench.COUNTERS:
        if first.counters[counter] != second.counters[counter]:
            errors.append(f"{counter}: {first.counters[counter]} then {second.counters[counter]}")
    if [c.value for c in first.cases] != [c.value for c in second.cases]:
        errors.append("case values differ between two passes")
    for p in passes:
        covered = sum(p.self_times.values())
        if abs(p.wall - covered) > bench.TRACE_SLACK * p.wall:
            errors.append(f"self times sum to {covered:.4f} s of a {p.wall:.4f} s pass")
    return errors


def check_no_library() -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail without printing a result."""
    with tempfile.TemporaryDirectory(dir=bench.ROOT / "bench" / "out") as tmp:
        root = Path(tmp)
        (root / "bench").mkdir()
        for f in bench.BENCH_DIR.iterdir():
            if f.is_file():
                (root / "bench" / f.name).write_bytes(f.read_bytes())
        (root / "BENCHMARK.json").write_bytes((bench.ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "check_large", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library: exit {proc.returncode}, output {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    bench.OUT.mkdir(parents=True, exist_ok=True)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        errors = check_workload(name, spec)
        failures += bool(errors)
        print(f"{name}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
    errors = check_no_library()
    failures += bool(errors)
    print(f"no library: {'ok' if not errors else 'FAILED'}")
    for e in errors:
        print(f"  {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
