"""Record the benchmark's reference outputs and input pools in reference/.

Run from the repository root, against the commit whose outputs are the
reference:

    python3 bench/make_reference.py

It writes one JSON file per workload.  The benchmark reads them to pick its
seeded inputs and to check every output; it never regenerates them.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import permmobius  # noqa: E402
from permmobius import cli, oscillation_fast, perms, poset  # noqa: E402

from run import source_digest  # noqa: E402
from workloads import (  # noqa: E402
    OSC_PROBES,
    OSC_SIGMAS,
    REFERENCE_DIR,
    SIZES,
    SYMMETRIES,
    apply_symmetry,
    column_digest,
    perm_text,
    run_cli,
    series_digest,
    sha256_text,
)

# Seeds of the reference pools; the benchmark's --seed picks from them.
POOL_SEED = 1710_03122

PRINCIPAL_GRIDS = {
    # (cases, half-length h range, Jelinek lower end range, banding lower end range)
    "full": (12, (19_900, 20_100), (51, 150), (1000, 1999)),
    "smoke": (3, (1000, 1100), (51, 150), (500, 999)),
}
ORACLE_INTERVALS = 24
ORACLE_AUTOS = 4
# Downset sizes of the auto-routed upper bounds: about 0.2 s each on one core.
ORACLE_AUTO_MEMBERS = (300, 400)


def write(name: str, payload: dict) -> None:
    payload = {"source_sha256": source_digest(), **payload}
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {name}.json", file=sys.stderr)


def principal() -> None:
    rng = random.Random(POOL_SEED)
    grids = {}
    for grid, (count, h_range, jel_range, band_range) in PRINCIPAL_GRIDS.items():
        cases = []
        for _ in range(count):
            h = rng.randint(*h_range)
            n = 2 * h + 1
            case = {
                "jelinek": [rng.randint(*jel_range), h],
                "banding": [rng.randint(*band_range), n],
                "series_n": n,
                "series_sha256": series_digest(oscillation_fast.principal_mu_series(n)),
            }
            for suite in ("jelinek", "banding"):
                lo, hi = case[suite]
                code, text = run_cli(cli, ["check", "--suite", suite, "--range", f"{lo}..{hi}"])
                case[f"{suite}_out"] = {"exit": code, "sha256": sha256_text(text)}
                case[f"{suite}_payload"] = json.loads(text)
            cases.append(case)
        grids[grid] = cases
    write("principal", {"grids": grids})


def osc_lower() -> None:
    n_max = max(size["osc_n"] for size in SIZES.values())
    sigma_values = {}
    values = {}
    for name in OSC_SIGMAS:
        sigma = perms.oscillation(perms.OscillationId(name[0], int(name[1:])))
        sigma_values[name] = list(sigma.values)
        values[name] = {
            kind: [
                oscillation_fast.mobius_oscillation(sigma, perms.OscillationId(kind, m))
                for m in range(len(sigma) + 1, n_max + 1)
            ]
            for kind in "WM"
        }
    one = perms.Permutation((1,))
    probe_values = {}
    probes = {}
    for kind, n in OSC_PROBES:
        probe_values[f"{kind}{n}"] = list(perms.oscillation(perms.OscillationId(kind, n)).values)
        probes[f"{kind}{n}"] = oscillation_fast.mobius_oscillation(one, perms.OscillationId(kind, n))
    write("osc_lower", {
        "n_max": n_max,
        "sigma_values": sigma_values,
        "values": values,
        "probe_values": probe_values,
        "probes": probes,
    })


def sweep() -> None:
    n_max = max(size["sweep_sample_len"] for size in SIZES.values())
    crcs = {}
    for n in range(1, n_max + 1):
        crcs[n] = [
            column_digest((s.values, mu) for s, mu in poset.mobius_naive_column(perms.Permutation(vals)).items())
            for vals in itertools.permutations(range(1, n + 1))
        ]
    # Per length, in the lexicographic order of itertools.permutations.
    write("sweep", {"column_crc32": crcs})


def _random_pattern(rng: random.Random, vals: tuple[int, ...], k: int) -> tuple[int, ...]:
    sub = [vals[i] for i in sorted(rng.sample(range(len(vals)), k))]
    order = sorted(sub)
    return tuple(order.index(v) + 1 for v in sub)


def oracle12() -> None:
    rng = random.Random(POOL_SEED)
    seen = set()

    def candidates(lengths):
        while True:
            vals = list(range(1, rng.choice(lengths) + 1))
            rng.shuffle(vals)
            pi = perms.Permutation(vals)
            if pi.values in seen or not perms.is_sum_indecomposable(pi):
                continue
            if perms.classify_oscillation(pi) is not None:
                continue
            seen.add(pi.values)
            yield pi

    intervals = []
    for pi in itertools.islice(candidates((11, 12)), ORACLE_INTERVALS):
        sigma = _random_pattern(rng, pi.values, 3)
        images = {}
        for sym in SYMMETRIES:
            code, text = run_cli(cli, [
                "interval",
                perm_text(apply_symmetry(sym, sigma)),
                perm_text(apply_symmetry(sym, pi.values)),
            ])
            if code != 0:
                raise RuntimeError(f"{sym} image of {pi}: exit {code}")
            images[sym] = sha256_text(text)
        members = sum(map(len, permmobius.downset(pi).values()))
        intervals.append({"pi": list(pi.values), "sigma": list(sigma), "members": members, "images": images})

    autos = []
    lo, hi = ORACLE_AUTO_MEMBERS
    for pi in candidates((12,)):
        members = sum(map(len, permmobius.downset(pi).values()))
        if not lo <= members <= hi:
            continue
        sigma = (2, 1)
        images = {}
        for sym in SYMMETRIES:
            code, text = run_cli(cli, [
                "mobius",
                perm_text(apply_symmetry(sym, sigma)),
                perm_text(apply_symmetry(sym, pi.values)),
            ])
            if code != 0:
                raise RuntimeError(f"{sym} image of {pi}: exit {code}")
            images[sym] = int(text)
        autos.append({"pi": list(pi.values), "sigma": list(sigma), "members": members, "images": images})
        if len(autos) == ORACLE_AUTOS:
            break
    write("oracle12", {"intervals": intervals, "autos": autos})


if __name__ == "__main__":
    for step in sys.argv[1:] or ["principal", "osc_lower", "sweep", "oracle12"]:
        globals()[step]()
