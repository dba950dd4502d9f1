"""Inputs, timed sections and output checks of the four benchmark workloads.

``WORKLOAD_STEPS`` lists six steps per workload:

* ``inputs(seed, size)`` builds plain-data inputs from the seed and the
  reference pools in ``reference/``; it never calls the package;
* ``prepare(inputs, pm)`` turns them into package objects (parsing only);
* ``ops(prepared, pm)`` is the timed section, cut into a list of operations
  that run in order and are timed one by one; each calls the package and
  keeps its outputs (or the class of the exception raised);
* ``collect(results)`` joins the operations' results into the outputs;
* ``after(inputs, pm)``, where present, reads values back once the timed
  section is over;
* ``check(inputs, outputs, after)`` compares all of them with the reference
  values and returns ``(attempted, failed, known, notes)``, where ``known``
  counts the failures of the known-defect probes.

Why these workloads (see also ``BENCHMARK.json``):

* ``principal`` drives the divisor scan and the analysis layer through the
  CLI and never reaches ``poset``, ``engine`` or the matcher;
* ``osc_lower`` drives the O(n^2) oscillation memo kernel, plus a fixed set
  of dispatcher probes beyond the 255-point key limit (a known defect);
* ``sweep`` drives many small downsets through the dispatcher, its cache,
  the ``contains`` pre-check and the contributing-set recursion;
* ``oracle12`` drives a few large downsets through ``interval`` (a row
  solve plus CSV formatting) and the auto route of length-12 upper bounds.

Seed-dependent choices are made so that the amount of work barely moves
with the seed: ranges are narrow, and the length-11/12 upper bounds are the
images of fixed permutations under symmetries of the containment order that
keep sums (inverse and reverse-complement), which leave the shape of every
downset unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import zlib
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("principal", "osc_lower", "sweep", "oracle12")

# The full size, and a smoke size for the benchmark's self-test.
SIZES = {
    "full": {
        "principal_grid": "full",
        "osc_n": 100,
        "sweep_all_up_to": 6,
        "sweep_sample_len": 7,
        "sweep_sample": 60,
        "oracle_intervals": 12,
        "oracle_autos": 2,
    },
    "smoke": {
        "principal_grid": "smoke",
        "osc_n": 24,
        "sweep_all_up_to": 5,
        "sweep_sample_len": 7,
        "sweep_sample": 10,
        "oracle_intervals": 3,
        "oracle_autos": 1,
    },
}

# Lower bounds of osc_lower: the oscillations W_3..W_8 and M_3..M_8.
OSC_SIGMAS = tuple(f"{kind}{n}" for kind in "WM" for n in range(3, 9))

# Dispatcher queries mobius(1, W_n / M_n) with n > 255.  When the reference
# was recorded every one raised TooLarge (the dispatcher's cache key has no
# byte form beyond 255 points); they stay in the workload so that the defect
# shows as failures until it is fixed.
OSC_PROBES = (("W", 256), ("M", 256), ("W", 300), ("M", 301))

SYMMETRIES = ("id", "inv", "rc", "rc_inv")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_digest(values) -> str:
    return sha256_text(",".join(str(v) for v in values))


def column_digest(column) -> str:
    """Order-free digest of a {pattern: mu} column (patterns as tuples)."""
    rows = sorted((len(s), s, mu) for s, mu in column)
    text = ";".join(f"{','.join(map(str, s))}:{mu}" for _, s, mu in rows)
    return format(zlib.crc32(text.encode("ascii")), "08x")


def perm_text(vals) -> str:
    return ",".join(str(v) for v in vals)


def inverse_vals(vals: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(vals)
    for i, v in enumerate(vals):
        out[v - 1] = i + 1
    return tuple(out)


def reverse_complement_vals(vals: tuple[int, ...]) -> tuple[int, ...]:
    n = len(vals)
    return tuple(n + 1 - v for v in reversed(vals))


def apply_symmetry(name: str, vals) -> tuple[int, ...]:
    vals = tuple(vals)
    if name == "id":
        return vals
    if name == "inv":
        return inverse_vals(vals)
    if name == "rc":
        return reverse_complement_vals(vals)
    if name == "rc_inv":
        return reverse_complement_vals(inverse_vals(vals))
    raise ValueError(f"unknown symmetry {name!r}")


def run_cli(cli, argv: list[str]) -> tuple[int, str] | tuple[str, str]:
    """One ``cli.main`` call with its standard output captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # counted as a failed operation
        return ("raised", type(exc).__name__)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# principal
# ---------------------------------------------------------------------------


def principal_inputs(seed: int, size: dict) -> dict:
    ref = load_reference("principal")
    cases = ref["grids"][size["principal_grid"]]
    case = random.Random(seed).choice(cases)
    return {"case": case}


def principal_prepare(inputs: dict, pm) -> list[list[str]]:
    case = inputs["case"]
    return [
        ["check", "--suite", "jelinek", "--range", f"{case['jelinek'][0]}..{case['jelinek'][1]}"],
        ["check", "--suite", "banding", "--range", f"{case['banding'][0]}..{case['banding'][1]}"],
    ]


def principal_ops(argvs, pm) -> list:
    return [(lambda argv=argv: run_cli(pm.cli, argv)) for argv in argvs]


def principal_after(inputs: dict, pm) -> dict:
    """Series values, read back once the timed section is over."""
    n = inputs["case"]["series_n"]
    return {"series": series_digest(pm.oscillation_fast.principal_mu_series(n))}


def principal_check(inputs: dict, outputs: list, after: dict) -> tuple[int, int, int, list]:
    case = inputs["case"]
    notes = []
    failed = 0
    for name, (code, text) in zip(("jelinek", "banding"), outputs):
        want = case[f"{name}_out"]
        if code != want["exit"] or sha256_text(text) != want["sha256"]:
            failed += 1
            notes.append(f"{name}: exit {code}, output differs from the reference")
    if after["series"] != case["series_sha256"]:
        failed += 1
        notes.append(f"principal series to {case['series_n']} differs from the reference")
    return 3, failed, 0, notes


# ---------------------------------------------------------------------------
# osc_lower
# ---------------------------------------------------------------------------


def osc_inputs(seed: int, size: dict) -> dict:
    sigmas = list(OSC_SIGMAS)
    random.Random(seed).shuffle(sigmas)
    return {"n_max": size["osc_n"], "sigmas": sigmas, "probes": list(OSC_PROBES)}


def osc_prepare(inputs: dict, pm):
    P = pm.perms
    ref = load_reference("osc_lower")
    queries = []
    for name in inputs["sigmas"]:
        sigma = P.Permutation(ref["sigma_values"][name])
        ids = [
            P.OscillationId(kind, m)
            for m in range(len(sigma) + 1, inputs["n_max"] + 1)
            for kind in "WM"
        ]
        queries.append((sigma, ids))
    probes = [
        (P.Permutation((1,)), P.Permutation(ref["probe_values"][f"{kind}{n}"]))
        for kind, n in inputs["probes"]
    ]
    return queries, probes


# Each row of osc_lower is cut into this many operations (by n).
OSC_ROW_OPS = 4


def osc_ops(prepared, pm) -> list:
    """One operation per quarter row (lower bound sigma, a range of n), in
    order of n, then one for the dispatcher probes."""
    queries, probes = prepared

    def row_part(sigma, ids):
        mobius_oscillation = pm.oscillation_fast.mobius_oscillation
        out = []
        for id in ids:
            try:
                out.append(mobius_oscillation(sigma, id))
            except Exception as exc:  # counted as a failed operation
                out.append(("raised", type(exc).__name__))
        return out

    def probe_all():
        engine = pm.engine.MobiusEngine()
        out = []
        for sigma, pi in probes:
            try:
                out.append(engine.mobius(sigma, pi))
            except Exception as exc:  # the known defect lands here
                out.append(("raised", type(exc).__name__))
        return out

    ops = []
    for row, (sigma, ids) in enumerate(queries):
        step = -(-len(ids) // OSC_ROW_OPS)
        for i in range(0, len(ids), step):
            ops.append(lambda row=row, sigma=sigma, part=ids[i:i + step]: (row, row_part(sigma, part)))
    ops.append(lambda: (None, probe_all()))
    return ops


def osc_collect(results) -> dict:
    values: list[list] = []
    probes: list = []
    for row, out in results:
        if row is None:
            probes = out
        else:
            if row == len(values):
                values.append([])
            values[row].extend(out)
    return {"values": values, "probes": probes}


def osc_check(inputs: dict, outputs: dict, after: dict) -> tuple[int, int, int, list]:
    ref = load_reference("osc_lower")
    attempted = failed = 0
    notes = []
    for name, row in zip(inputs["sigmas"], outputs["values"]):
        want = ref["values"][name]
        first = len(ref["sigma_values"][name]) + 1
        for i, got in enumerate(row):
            attempted += 1
            kind = "WM"[i % 2]
            if got != want[kind][i // 2]:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"mu({name}, {kind}_{first + i // 2}) = {got!r}")
    # A probe that raises is the known defect; one that returns a wrong
    # value is a wrong output like any other.
    errors: dict[str, int] = {}
    for (kind, n), got in zip(inputs["probes"], outputs["probes"]):
        attempted += 1
        want = ref["probes"][f"{kind}{n}"]
        if isinstance(got, tuple):
            failed += 1
            errors[got[1]] = errors.get(got[1], 0) + 1
        elif got != want:
            failed += 1
            notes.append(f"probe mu(1, {kind}_{n}) = {got}, reference {want}")
    if errors:
        notes.append(
            "known-defect probes (mobius(1, W_n/M_n), n > 255) raised: "
            + ", ".join(f"{k} x{v}" for k, v in sorted(errors.items()))
        )
    return attempted, failed, sum(errors.values()), notes


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    pis = [
        vals
        for n in range(1, size["sweep_all_up_to"] + 1)
        for vals in itertools.permutations(range(1, n + 1))
    ]
    pool = list(itertools.permutations(range(1, size["sweep_sample_len"] + 1)))
    pis += rng.sample(pool, size["sweep_sample"])
    return {"pis": pis}


def sweep_prepare(inputs: dict, pm):
    return [pm.perms.Permutation(vals) for vals in inputs["pis"]]


# Upper bounds per operation of sweep.
SWEEP_CHUNK = 32


def sweep_ops(pis, pm) -> list:
    """The crosscheck loop: one shared dispatcher against the oracle column
    of every upper bound, one operation per run of SWEEP_CHUNK upper bounds."""
    column_of = pm.poset.mobius_naive_column
    state = {}

    def chunk(part):
        engine = state.get("engine")
        if engine is None:
            engine = state["engine"] = pm.engine.MobiusEngine()
        out = []
        for pi in part:
            column = column_of(pi)
            got = []
            for sigma in column:
                try:
                    got.append(engine.mobius(sigma, pi))
                except Exception as exc:  # counted as a failed operation
                    got.append(("raised", type(exc).__name__))
            out.append((column, got))
        return out

    return [
        (lambda part=pis[i:i + SWEEP_CHUNK]: chunk(part))
        for i in range(0, len(pis), SWEEP_CHUNK)
    ]


def concat(results) -> list:
    return [out for part in results for out in part]


def sweep_check(inputs: dict, outputs: list, after: dict) -> tuple[int, int, int, list]:
    ref = {
        vals: crc
        for n, crcs in load_reference("sweep")["column_crc32"].items()
        for vals, crc in zip(itertools.permutations(range(1, int(n) + 1)), crcs)
    }
    attempted = failed = 0
    notes = []
    for vals, (column, got) in zip(inputs["pis"], outputs):
        attempted += 1
        pairs = [(s.values, mu) for s, mu in column.items()]
        if column_digest(pairs) != ref[tuple(vals)]:
            failed += 1
            notes.append(f"oracle column of {perm_text(vals)} differs from the reference")
        for (sigma, expected), actual in zip(pairs, got):
            attempted += 1
            if actual != expected:
                failed += 1
                if len(notes) < 5:
                    notes.append(
                        f"mu({perm_text(sigma)}, {perm_text(vals)}) = {actual!r}, oracle {expected}"
                    )
    return attempted, failed, 0, notes


# ---------------------------------------------------------------------------
# oracle12
# ---------------------------------------------------------------------------


def oracle_inputs(seed: int, size: dict) -> dict:
    ref = load_reference("oracle12")
    rng = random.Random(seed)
    intervals = [
        (i, rng.choice(SYMMETRIES)) for i in range(size["oracle_intervals"])
    ]
    rng.shuffle(intervals)
    autos = [(i, rng.choice(SYMMETRIES)) for i in range(size["oracle_autos"])]
    if len(ref["intervals"]) < size["oracle_intervals"] or len(ref["autos"]) < size["oracle_autos"]:
        raise ValueError("the oracle12 reference pool is smaller than the workload")
    return {"intervals": intervals, "autos": autos}


def _oracle_argvs(inputs: dict) -> list[list[str]]:
    ref = load_reference("oracle12")
    argvs = []
    for kind, picks in (("interval", inputs["intervals"]), ("mobius", inputs["autos"])):
        entries = ref["intervals" if kind == "interval" else "autos"]
        for i, sym in picks:
            entry = entries[i]
            argvs.append([
                kind,
                perm_text(apply_symmetry(sym, entry["sigma"])),
                perm_text(apply_symmetry(sym, entry["pi"])),
            ])
    return argvs


def oracle_prepare(inputs: dict, pm) -> list[list[str]]:
    return _oracle_argvs(inputs)


def oracle_ops(argvs, pm) -> list:
    return [(lambda argv=argv: run_cli(pm.cli, argv)) for argv in argvs]


def oracle_check(inputs: dict, outputs: list, after: dict) -> tuple[int, int, int, list]:
    ref = load_reference("oracle12")
    wants = [ref["intervals"][i]["images"][sym] for i, sym in inputs["intervals"]]
    wants += [ref["autos"][i]["images"][sym] for i, sym in inputs["autos"]]
    failed = 0
    notes = []
    for argv, (code, text), want in zip(_oracle_argvs(inputs), outputs, wants):
        ok = code == 0 and (
            sha256_text(text) == want if argv[0] == "interval" else text == f"{want}\n"
        )
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{' '.join(argv)}: exit {code}, output differs")
    return len(outputs), failed, 0, notes


WORKLOAD_STEPS = {
    "principal": (principal_inputs, principal_prepare, principal_ops, list, principal_after, principal_check),
    "osc_lower": (osc_inputs, osc_prepare, osc_ops, osc_collect, None, osc_check),
    "sweep": (sweep_inputs, sweep_prepare, sweep_ops, concat, None, sweep_check),
    "oracle12": (oracle_inputs, oracle_prepare, oracle_ops, list, None, oracle_check),
}
