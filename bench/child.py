"""One run of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --seconds S [--trace] [--size smoke]
    python3 bench/child.py --setup-only

Started by run.py.  It imports the package from ``src/`` first and reads the
monotonic clock, so that the parent can take set-up time (interpreter start
plus ``import permmobius``) as the gap between spawning it and that reading.

It then refuses to go on unless every module-level store of the package is
cold, builds the workload's inputs, and runs passes over the workload until
the next pass would end after ``--seconds``.  Each pass is a forked copy of
this process, so it starts from the same cold stores, runs the workload's
operations in order, timing each, and checks every output.  With
``--trace``, untraced and traced passes alternate.  After each pass it times
the reference kernel (calib.py), and after every second pass one more
import-only interpreter, so that both sample the whole run.  It prints one JSON
object on standard output.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import permmobius  # noqa: E402
from permmobius import analysis, cli, engine, oscillation_fast, perms, poset  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import numpy  # noqa: E402  (already imported by the package)

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PM = types.SimpleNamespace(
    perms=perms,
    poset=poset,
    engine=engine,
    oscillation_fast=oscillation_fast,
    analysis=analysis,
    cli=cli,
)

RESULTS = ROOT / "bench" / "results"

# Passes of each kind a run makes at least, whatever --seconds says.
MIN_PASSES = 3

# Reference kernels timed before the first pass and after each one.
CAL_COUNT = 50

# Module-level stores and their size in a fresh interpreter.
COLD_SIZES = (
    (oscillation_fast, "_principal", 4),
    (oscillation_fast, "_memo", 0),
)


def store_sizes() -> dict[str, int]:
    """Sizes of the known module-level stores and of every lru cache in the
    package (a cache missing from a later version is simply not listed)."""
    sizes = {}
    for module, attr, _ in COLD_SIZES:
        if hasattr(module, attr):
            sizes[f"{module.__name__}.{attr}"] = len(getattr(module, attr))
    for module in (perms, poset, engine, oscillation_fast, analysis, cli):
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{module.__name__}.{attr}"] = value.cache_info().currsize
    if getattr(engine, "_default_engine", None) is not None:
        sizes["permmobius.engine._default_engine"] = 1
    return sizes


def check_cold() -> dict[str, int]:
    """Refuse to run unless every store is at its initial size, so that a
    store filled at import or loaded from disk cannot pass for a speed-up."""
    sizes = store_sizes()
    expected = {f"{m.__name__}.{a}": n for m, a, n in COLD_SIZES}
    warm = {k: v for k, v in sizes.items() if v != expected.get(k, 0)}
    if warm:
        raise SystemExit(f"bench: module-level stores are not cold at start: {warm}")
    return sizes


def cli_output_bytes(workload: str, outputs) -> int:
    if workload not in ("principal", "oracle12"):
        return 0
    return sum(len(text.encode("utf-8")) for code, text in outputs if isinstance(code, int))


def setup_probe() -> float:
    """Set-up time of one more interpreter that only imports the package."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=60,
    )
    return json.loads(proc.stdout)["ready"] - started


def one_pass(args, inputs, prepared, traced: bool, spans_path) -> dict:
    """The workload once, from the stores as they are (cold in a fresh fork)."""
    _, _, make_ops, collect, after, check = workloads.WORKLOAD_STEPS[args.workload]
    t = tracer.install(PM) if traced else None
    ops = make_ops(prepared, PM)
    results = []
    op_s = []
    clock = time.perf_counter
    cpu_start = time.process_time()
    for op in ops:
        start = clock()
        results.append(op())
        op_s.append(clock() - start)
    cpu = time.process_time() - cpu_start
    outputs = collect(results)

    record = {"traced": traced, "wall_s": sum(op_s), "op_s": op_s, "cpu_s": cpu}
    if t is not None:
        t.uninstall()
        layers = tracer.layer_metrics(t, PM)
        layers["cli.output_bytes"] = cli_output_bytes(args.workload, outputs)
        info = poset._downset_ctx.cache_info()
        record.update(
            layers=layers,
            trace_missing=t.missing,
            spans=len(t.spans),
            # Lookups seen by the wrapper against lookups the lru counted:
            # they differ when a caller's binding was not wrapped.
            ctx_calls={"wrapped": t.self_times()[1]["poset.ctx"], "lru": info.hits + info.misses},
        )
        t.write_spans(spans_path)

    record["final_sizes"] = store_sizes()
    extra = after(inputs, PM) if after is not None else {}
    attempted, failed, known, notes = check(inputs, outputs, extra)
    record.update(attempted=attempted, failed=failed, known_failures=known, notes=notes)
    return record


def forked_pass(args, inputs, prepared, traced: bool, spans_path) -> dict:
    """Run one pass in a forked copy of this process and wait for it.

    Forking is safe here: this process starts no threads (BLAS is held to
    one), and the copy leaves only through os._exit.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            record = one_pass(args, inputs, prepared, traced, spans_path)
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(record).encode("utf-8"))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise SystemExit(f"bench: a pass of {args.workload} failed")
    record = json.loads(data)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cold = check_cold()
    make_inputs, prepare = workloads.WORKLOAD_STEPS[args.workload][:2]
    inputs = make_inputs(args.seed, workloads.SIZES[args.size])
    prepared = prepare(inputs, PM)

    RESULTS.mkdir(exist_ok=True)
    t0 = time.monotonic()
    passes: list[dict] = []
    counts = {False: 0, True: 0}
    longest = 0.0
    cal = calib.timings(CAL_COUNT)
    setups: list[float] = []
    while True:
        traced = args.trace and counts[True] < counts[False]
        enough = counts[False] >= MIN_PASSES and (not args.trace or counts[True] >= MIN_PASSES)
        if enough and time.monotonic() - t0 + longest > args.seconds:
            break
        spans_path = RESULTS / f"spans-{args.workload}-{counts[True]}.tsv.gz"
        start = time.monotonic()
        record = forked_pass(args, inputs, prepared, traced, spans_path)
        if traced:
            record["spans_file"] = str(spans_path)
        counts[traced] += 1
        passes.append(record)
        cal += calib.timings(CAL_COUNT)
        if len(passes) % 2 == 0:
            setups.append(setup_probe())
        longest = max(longest, time.monotonic() - start)

    print(json.dumps({
        "ready": READY,
        "cold_sizes": cold,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "passes": passes,
        "cal_s": cal,
        "setup_probes_s": setups,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
