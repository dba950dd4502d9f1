"""Benchmark of permmobius: time to solution per workload, and per-layer
counts and self times from a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads: principal, osc_lower, sweep,
oracle12 (see workloads.py for what each exercises and why).

A run first starts a few interpreters that only import the package, to
measure set-up time.  It then starts one worker interpreter (child.py),
which checks that the package's module-level stores are cold, builds the
inputs from the seed and runs passes over the workload, one at a time, until
the next pass would end past ``--seconds`` (at least three; with
``--trace 1`` untraced and traced passes alternate, at least three of each).
Each pass is a fork of the worker, so it starts from the same cold stores,
and it times each of the workload's operations.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: wall_s (for each operation its shortest time over the passes,
summed, and scaled to a fixed host speed by the reference kernel of
calib.py), setup_s (median interpreter start plus ``import permmobius``),
peak_rss_mb (median peak resident memory of a pass) and ok_frac (share of
operations that returned the reference output).  With ``--trace 1`` it
holds the per-layer metrics of the median traced pass and
trace.overhead_frac.  Earlier lines give the time as measured, quartiles,
counts, failed_frac and the environment; the full record goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
CHILD = BENCH / "child.py"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

# One thread per child, and the same hashing in every child.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def spawn(args: list[str]) -> dict:
    """Run one child to completion and return its JSON record, with the
    child's set-up time added.  The child leads its own process group, so
    that on a timeout the passes it forked are stopped with it."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"child {' '.join(args)} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        fail(f"child {' '.join(args)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"child {' '.join(args)} printed no record")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    return record


def spec_units(kind: str) -> dict[str, str]:
    """Metric name to unit, for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2], "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read from files (no git call);
    None when the checkout is not a repository."""
    head_path = ROOT / ".git" / "HEAD"
    try:
        head = head_path.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = ROOT / ".git" / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the package source the children import."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "permmobius").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(record: dict) -> dict:
    return {
        "python": record["python"],
        "numpy": record["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "child_env": CHILD_ENV,
    }


def sum_of_minima(passes: list[dict]) -> float:
    """Time to solution at the host's quietest: for each operation of the
    workload, its shortest time over the passes, summed over operations."""
    return sum(min(times) for times in zip(*(p["op_s"] for p in passes)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="smoke: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "permmobius" / "__init__.py").is_file():
        fail(f"no package source under {ROOT / 'src'}; run from a full checkout")

    t0 = time.monotonic()
    setups = [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    remaining = max(0.0, args.seconds - (time.monotonic() - t0))
    worker = spawn([
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--seconds", repr(remaining), *(["--trace"] if args.trace else []),
    ])
    # The worker's own start, then one probe after each of its passes.
    setups += [worker["setup_s"], *worker["setup_probes_s"]]
    passes = worker["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted = {p["attempted"] for p in passes}
    if len(attempted) != 1:
        fail(f"passes attempted different numbers of operations: {sorted(attempted)}")
    attempted = attempted.pop()
    # An operation counts as failed once, however many passes it failed in.
    failed = max(p["failed"] for p in passes)
    # The host's speed drifts by tens of percent over minutes; the reference
    # kernel, timed between passes, drifts with it.
    scale = calib.scale(worker["cal_s"])
    summary = {
        "wall_s": scale * sum_of_minima(plain),
        "measured_wall_s": sum_of_minima(plain),
        "scale": scale,
        "pass_wall_s": quartiles([p["wall_s"] for p in plain]),
        "setup_s": quartiles(setups),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in plain]),
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "operations": len(plain[0]["op_s"]),
    }
    notes = sorted({note for p in passes for note in p["notes"]})
    env = environment(worker)

    if args.trace == 1:
        median_traced = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        # Keep the spans of the pass whose layers are reported.
        for p in traced:
            path = Path(p.pop("spans_file"))
            if p is median_traced:
                path.replace(RESULTS / f"spans-{args.workload}.tsv.gz")
            else:
                path.unlink()
        layers = dict(median_traced["layers"])
        summary["traced_wall_s"] = scale * sum_of_minima(traced)
        layers["trace.overhead_frac"] = summary["traced_wall_s"] / summary["wall_s"] - 1.0
        summary["traced_pass_wall_s"] = quartiles([p["wall_s"] for p in traced])
        summary["trace_missing"] = median_traced["trace_missing"]
        summary["spans"] = median_traced["spans"]
        summary["ctx_calls"] = median_traced["ctx_calls"]
        values = layers
    else:
        values = {
            "wall_s": summary["wall_s"],
            "setup_s": summary["setup_s"]["median"],
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
            "ok_frac": 1.0 - failed / attempted,
        }
    units = spec_units("per_layer" if args.trace == 1 else "end_to_end")
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "summary": summary,
        "notes": notes,
        "cold_sizes": worker["cold_sizes"],
        "cal_s": worker["cal_s"],
        "passes": passes,
        "metrics": metrics,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    walls = [("wall_s", plain)] + ([("traced_wall_s", traced)] if args.trace else [])
    for name, group in walls:
        q = quartiles([p["wall_s"] for p in group])
        print(f"{args.workload} {name}: {summary[name]:.6g} s at the reference speed; "
              f"{sum_of_minima(group):.6g} s as measured, the sum over "
              f"{summary['operations']} operations of each one's shortest time in "
              f"{q['n']} passes, times {scale:.4g}; a whole pass as measured: median "
              f"{q['median']:.6g} s, q1 {q['q1']:.6g}, q3 {q['q3']:.6g}")
    for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
        q = summary[name]
        print(f"{args.workload} {name}: median {q['median']:.6g} {unit} "
              f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")
    print(f"{args.workload} failed_frac: {summary['failed_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    for note in notes:
        print(f"{args.workload} note: {note}")
    print(json.dumps({
        "correct": all(p["failed"] == p["known_failures"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
