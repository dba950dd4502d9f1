"""Spans and counts around the package's layer boundaries, installed from
the benchmark's own files.

Each wrapped callable records one span ``(name, start, end, parent)`` per
call, where ``parent`` is the index of the span that was open when the call
began (-1 at top level).  A wrapper replaces every binding of the original
object in every loaded ``permmobius`` module, so re-imported names (for
example ``engine.contains`` or ``cli.jelinek_check``) are covered as well
as the defining module.  Spans stay in memory until ``write_spans``.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "permmobius"


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, after=None, span: bool = True):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        if not span:
            def counted(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            return counted

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def function(self, module, attr: str, name: str, after=None, span: bool = True) -> None:
        """Wrap a module-level callable and every other binding of it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(original, name, after, span)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, name: str, after=None, span: bool = True) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, after, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time and number of calls."""
        spans = self.spans
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = Counter()
        for (name, _, _, _), t in zip(spans, own):
            totals[name] += t
            calls[name] += 1
        return totals, calls

    def count_by_parent(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(
            1
            for span_name, _, _, parent in spans
            if span_name == name and parent >= 0 and spans[parent][0] == parent_name
        )

    def write_spans(self, path) -> None:
        """One line per span: name, start, end, parent (tab-separated)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# ---------------------------------------------------------------------------
# The package's layers
# ---------------------------------------------------------------------------


def _count_true(tracer, args, result) -> None:
    if result:
        tracer.counts["perms.contains.true"] += 1


def _downset_built(tracer, args, result) -> None:
    tracer.values["poset.downset.members"].append(len(args[0].members))


def _divisors_built(tracer, args, result) -> None:
    tracer.values["oscillation_fast.divisors.limit"].append(args[0])


def _cache_created(tracer, args, result) -> None:
    tracer.values["engine.caches"].append(args[0])


def install(pm) -> Tracer:
    """Wrap the public functions of every layer (and the private helpers
    that mark a layer's own work) in the package modules ``pm``."""
    t = Tracer()
    perms, poset, engine = pm.perms, pm.poset, pm.engine
    osc, analysis, cli = pm.oscillation_fast, pm.analysis, pm.cli

    t.function(perms, "contains", "perms.contains", after=_count_true)

    t.function(poset, "_downset_ctx", "poset.ctx")
    t.method(poset.DownsetContext, "__init__", "poset.downset.build", after=_downset_built)
    t.method(poset.DownsetContext, "column", "poset.solve")
    t.method(poset.DownsetContext, "row", "poset.solve")
    t.function(poset, "interval", "poset.interval")
    t.function(poset, "mobius_naive", "poset.mobius_naive")
    t.function(poset, "mobius_naive_column", "poset.mobius_naive_column")

    t.method(engine.MobiusCache, "__init__", "engine.cache.init", after=_cache_created, span=False)
    t.method(engine.MobiusEngine, "mobius", "engine.mobius")
    t.method(engine.MobiusEngine, "mobius_prop1", "engine.prop1")
    t.method(engine.MobiusEngine, "mobius_prop2", "engine.prop2")
    t.method(engine.MobiusEngine, "mobius_cor3", "engine.cor3")
    t.method(engine.MobiusEngine, "mobius_theorem", "engine.theorem")
    _install_candidates(t, engine.MobiusEngine)

    t.function(osc, "mobius_oscillation", "oscillation_fast.mobius_oscillation")
    t.function(osc, "_fill_memo", "oscillation_fast.memo_fill")
    t.function(osc, "principal_mu_series", "oscillation_fast.principal_mu_series")
    t.function(osc, "_extend_principal", "oscillation_fast.principal")
    t.function(osc, "_even_divisor_lists", "oscillation_fast.divisors", after=_divisors_built)

    t.function(analysis, "principal_series", "analysis.records")
    t.function(analysis, "jelinek_check", "analysis.jelinek")
    t.function(analysis, "banding_report", "analysis.banding")
    # Counted only: primality is part of the Jelinek check's own time.
    t.function(analysis, "is_prime", "analysis.is_prime", span=False)

    t.function(cli, "main", "cli.main")
    return t


def _install_candidates(t: Tracer, engine_cls) -> None:
    """Candidate lists: a span per call, and a count and length per list
    actually built (calls that find the list cached are not builds)."""
    original = engine_cls.__dict__.get("_candidate_list")
    if original is None:
        t.missing.append("MobiusEngine._candidate_list")
        return
    timed = t._wrap(original, "engine.candidates")

    def candidates(self, pi):
        store = getattr(self, "_candidates", None)
        built = store is None or pi.values not in store
        result = timed(self, pi)
        if built:
            t.values["engine.candidates.len"].append(len(result))
        return result

    t._restore.append((engine_cls, "_candidate_list", original))
    engine_cls._candidate_list = candidates


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _memo_terms(t: Tracer, osc, perms) -> int:
    """(shape, k) terms the oscillation kernel evaluated: one per k in
    [engine min k, max k] for every shape of every memo entry."""
    memo = getattr(osc, "_memo", None)
    if not memo:
        return 0
    if not all(hasattr(osc, f) for f in ("_engine_min_k", "pi_class_of", "max_k")):
        t.missing.append("oscillation_fast memo-term helpers")
        return 0
    lows: dict = {}
    terms = 0
    for sigma_key, kind, n in memo:
        if sigma_key not in lows:
            sigma = perms.Permutation(tuple(sigma_key))
            lows[sigma_key] = [osc._engine_min_k(sigma, s) for s in perms.SHAPE_KINDS]
        pi = osc.pi_class_of(perms.OscillationId(kind, n))
        for lo, shape in zip(lows[sigma_key], perms.SHAPE_KINDS):
            terms += max(0, osc.max_k(shape, pi) - lo + 1)
    return terms


def _divisor_entries(limits) -> int:
    """Entries of the even-divisor lists built for each limit L: one per
    pair (q, v) with q even, 4 <= q <= L and q dividing v <= L."""
    return sum(L // q for L in limits for q in range(4, L + 1, 2))


def layer_metrics(t: Tracer, pm) -> dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    perms, poset, engine = pm.perms, pm.poset, pm.engine
    osc = pm.oscillation_fast
    self_s, calls = t.self_times()
    members = t.values["poset.downset.members"]
    ctx_info = poset._downset_ctx.cache_info() if hasattr(poset, "_downset_ctx") else None
    nb_info = perms._neighbor_bounds.cache_info() if hasattr(perms, "_neighbor_bounds") else None
    caches = t.values["engine.caches"]
    cache_hits = sum(c.hits for c in caches)
    cache_misses = sum(c.misses for c in caches)
    cand = t.values["engine.candidates.len"]
    parent = "engine.mobius"
    return {
        "perms.contains.calls": calls["perms.contains"],
        "perms.contains.s": self_s["perms.contains"],
        "perms.contains.true_frac": _ratio(t.counts["perms.contains.true"], calls["perms.contains"]),
        "perms.neighbor_bounds.hit_ratio": _ratio(nb_info.hits, nb_info.hits + nb_info.misses) if nb_info else 0.0,
        "perms.neighbor_bounds.entries": nb_info.currsize if nb_info else 0,
        "poset.downset.builds": len(members),
        "poset.downset.members": sum(members),
        "poset.downset.build_s": self_s["poset.downset.build"],
        "poset.ctx_cache.hit_ratio": _ratio(calls["poset.ctx"] - len(members), calls["poset.ctx"]),
        "poset.ctx_cache.entries": ctx_info.currsize if ctx_info else 0,
        "poset.solve.calls": calls["poset.solve"],
        "poset.solve.s": self_s["poset.solve"],
        "poset.leq_bytes.max": max((m * m for m in members), default=0),
        "engine.mobius.calls": calls["engine.mobius"],
        "engine.mobius.self_s": self_s["engine.mobius"],
        "engine.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "engine.cache.entries": sum(len(c) for c in caches),
        "engine.route.prop1": t.count_by_parent("engine.prop1", parent),
        "engine.route.prop2": t.count_by_parent("engine.prop2", parent),
        "engine.route.cor3": t.count_by_parent("engine.cor3", parent),
        "engine.route.theorem": t.count_by_parent("engine.theorem", parent),
        "engine.route.oscillation": t.count_by_parent("oscillation_fast.mobius_oscillation", parent),
        "engine.route.naive": t.count_by_parent("poset.mobius_naive", parent),
        "engine.theorem.self_s": self_s["engine.theorem"],
        "engine.candidates.builds": len(cand),
        "engine.candidates.s": self_s["engine.candidates"],
        "engine.candidates.mean_len": _ratio(sum(cand), len(cand)),
        "oscillation_fast.memo_fill.s": self_s["oscillation_fast.memo_fill"],
        "oscillation_fast.memo.entries": len(getattr(osc, "_memo", ())),
        "oscillation_fast.memo.terms": _memo_terms(t, osc, perms),
        "oscillation_fast.principal.s": self_s["oscillation_fast.principal"],
        "oscillation_fast.principal.entries": len(getattr(osc, "_principal", ())),
        "oscillation_fast.divisors.s": self_s["oscillation_fast.divisors"],
        "oscillation_fast.divisors.entries": _divisor_entries(t.values["oscillation_fast.divisors.limit"]),
        "analysis.records.s": self_s["analysis.records"],
        "analysis.jelinek.s": self_s["analysis.jelinek"],
        "analysis.banding.s": self_s["analysis.banding"],
        "analysis.is_prime.calls": t.counts["analysis.is_prime"],
        "cli.self_s": self_s["cli.main"],
    }
