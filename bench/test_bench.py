"""Smoke-size self-test of the benchmark; not part of the package's tests.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at smoke size, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit, that each
layer predicted to be bypassed on a workload counts zero there, and that the
same counts are nonzero on the workload that targets the layer.  A wrapper
that misses a binding of a wrapped function shows up as a zero count on a
target workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import OSC_PROBES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5

# Counts that must be zero because the workload bypasses the layer.
ZERO = {
    "principal": [
        "perms.contains.calls",
        "poset.downset.builds",
        "poset.solve.calls",
        "engine.mobius.calls",
        "engine.route.theorem",
        "engine.route.naive",
        "engine.candidates.builds",
        "oscillation_fast.memo.entries",
        "oscillation_fast.memo.terms",
    ],
    "osc_lower": [
        "poset.downset.builds",
        "poset.solve.calls",
        "engine.route.theorem",
        "engine.route.naive",
        "engine.candidates.builds",
        "analysis.is_prime.calls",
        "cli.output_bytes",
    ],
    "sweep": ["analysis.is_prime.calls", "cli.output_bytes"],
    "oracle12": ["analysis.is_prime.calls"],
}

# Metrics that must be nonzero because the workload targets the layer.
NONZERO = {
    "principal": [
        "oscillation_fast.principal.s",
        "oscillation_fast.divisors.entries",
        "analysis.records.s",
        "analysis.jelinek.s",
        "analysis.banding.s",
        "analysis.is_prime.calls",
        "cli.self_s",
        "cli.output_bytes",
    ],
    "osc_lower": ["oscillation_fast.memo.entries", "oscillation_fast.memo.terms"],
    "sweep": [
        "perms.contains.calls",
        "poset.downset.builds",
        "poset.downset.members",
        "engine.mobius.calls",
        "engine.cache.entries",
        "engine.route.prop1",
        "engine.route.prop2",
        "engine.route.cor3",
        "engine.route.theorem",
        "engine.route.oscillation",
        "engine.route.naive",
    ],
    "oracle12": [
        "poset.solve.calls",
        "poset.leq_bytes.max",
        "engine.route.theorem",
        "engine.candidates.builds",
        "cli.output_bytes",
    ],
}


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = BENCH / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return workload, run_bench(workload, 0), run_bench(workload, 1)


def test_every_metric_is_emitted_with_its_unit(runs):
    _, (plain, _), (traced, _) = runs
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_outputs_match_the_reference(runs):
    workload, (plain, record), (traced, _) = runs
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["attempted"] >= 1
    if workload == "osc_lower":
        # Exactly the known-defect probes fail, in every pass.
        for p in record["passes"]:
            assert p["failed"] == p["known_failures"] == len(OSC_PROBES)
    else:
        assert plain["failed"] == traced["failed"] == 0


def test_bypassed_layers_count_zero_and_targets_count(runs):
    workload, _, (traced, record) = runs
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert {k: layers[k] for k in ZERO[workload] if layers[k]} == {}
    assert [k for k in NONZERO[workload] if not layers[k]] == []
    if workload == "osc_lower":
        # Only the dispatcher probes reach the engine.
        assert layers["engine.mobius.calls"] == len(OSC_PROBES)
        assert layers["perms.contains.calls"] <= len(OSC_PROBES)


def test_wrappers_cover_every_binding(runs):
    _, _, (_, record) = runs
    summary = record["summary"]
    assert summary["trace_missing"] == []
    # Every lookup of the downset cache went through the wrapper, whichever
    # module's binding the caller used.
    assert summary["ctx_calls"]["wrapped"] == summary["ctx_calls"]["lru"]
