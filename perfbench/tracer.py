"""Spans around the sl2ab layers, recorded from outside the package.

install() wraps the public functions of the six layer modules at every import
site (sl2ab.oracle.enumerate_sl2_direct and sl2ab.cli.enumerate_sl2_direct
both get the wrapper), so calls between modules and within a module all pass
through it.  Only functions and methods are wrapped, never classes:
replacing a class would break the isinstance checks inside the package.

A span is (request id, span id, parent span id, name, start ns, end ns).
The wrapper only appends spans to a list in memory; self time (a span's
duration minus its child spans' durations) is worked out from the list once
the traced pass ends, and the first SPAN_FILE_CAP spans are written out.

A traced call costs its caller some time outside the callee's span.  Where
spans are small and many, that cost would swamp the callers' self time, so
the tracer measures it once (calibrate) and takes it off: a span's self time
loses it once per direct child, its duration once per descendant.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from pathlib import Path

LAYERS = ("cli", "theorems", "splitting", "polyarith", "abgroup", "oracle")

# polyarith.is_prime runs in every ModPoly constructor; a span there would
# cost more than the work it measures, so its time stays with its caller.
UNWRAPPED = {"polyarith.is_prime"}

SPAN_FILE_CAP = 100_000

# factor_mod_p cost is bucketed by the prime and the degree of the input.
DEGREE_BUCKETS = ("d01-06", "d07-12", "d13up")


def _degree_bucket(degree: int) -> str:
    return DEGREE_BUCKETS[0 if degree <= 6 else 1 if degree <= 12 else 2]


class Tracer:
    def __init__(self) -> None:
        self.request_id = 0
        self.stack: list[int] = [0]  # open span ids; 0 is the root
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.span_cost_ns = 0.0
        self._ids = itertools.count(1).__next__

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        stack, spans, clock, next_id = self.stack, self.spans, time.perf_counter_ns, self._ids
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next_id()
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer.request_id, span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer, args, result, end - start)
            return result

        return traced

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure what one traced call adds to its caller, over a function
        that does nothing, and keep the median of a few rounds."""

        def empty(x):
            return x

        traced = self.wrap("calibration", empty)
        clock = time.perf_counter_ns
        samples = []
        for _ in range(rounds):
            start = clock()
            for i in range(calls):
                traced(i)
            mid = clock()
            for i in range(calls):
                empty(i)
            samples.append(((mid - start) - (clock() - mid)) / calls)
            self.spans.clear()
        self.span_cost_ns = max(0.0, sorted(samples)[rounds // 2])

    def summarize(self) -> dict[str, list[float]]:
        """name -> [calls, total ns, self ns, max self ns, max total ns], with
        the calibrated cost of tracing taken off."""
        cost = self.span_cost_ns
        below: dict[int, list[int]] = {}  # span -> [child ns, children, descendants]
        stats: dict[str, list[float]] = {}
        # a span is appended when it ends, so its children come before it
        for _req, span, parent, name, start, end in self.spans:
            child_ns, children, descendants = below.pop(span, (0, 0, 0))
            total = end - start
            acc = below.setdefault(parent, [0, 0, 0])
            acc[0] += total
            acc[1] += 1
            acc[2] += 1 + descendants
            own = max(0.0, total - child_ns - cost * children)
            total = max(0.0, total - cost * descendants)
            s = stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
            s[0] += 1
            s[1] += total
            s[2] += own
            s[3] = max(s[3], own)
            s[4] = max(s[4], total)
        return stats

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for req, span, parent, name, start, end in self.spans[:SPAN_FILE_CAP]:
                fh.write(
                    json.dumps(
                        {"req": req, "span": span, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


# hooks: counts taken at a layer boundary from the call's arguments and result


def _factor_mod_p(tracer: Tracer, args, result, incl: int) -> None:
    f = args[0]
    key = f"polyarith.factor_mod_p.p{f.p}.{_degree_bucket(f.degree)}"
    tracer.count(key + ".calls")
    tracer.count(key + ".ms", incl / 1e6)


def _irreducible(tracer: Tracer, args, result, incl: int) -> None:
    if result is not None:
        tracer.count("polyarith.irreducible_over_q_check.certified")


def _enumerate(tracer: Tracer, args, result, incl: int) -> None:
    tracer.count("oracle.sl2_order", len(result))


def _abelianization(tracer: Tracer, args, result, incl: int) -> None:
    tracer.count("oracle.commutator_pairs", len(args[1]) ** 2)
    tracer.count("oracle.coset_count", result.order() or 0)


HOOKS = {
    "polyarith.factor_mod_p": _factor_mod_p,
    "polyarith.irreducible_over_q_check": _irreducible,
    "oracle.enumerate_sl2_direct": _enumerate,
    "oracle.abelianization": _abelianization,
}


def install(tracer: Tracer) -> None:
    """Replace every public layer function, wherever it was imported, by its
    traced wrapper, and count ModPoly.__divmod__ calls."""
    tracer.calibrate()
    modules = {layer: importlib.import_module(f"sl2ab.{layer}") for layer in LAYERS}
    sites = [*modules.values(), importlib.import_module("sl2ab"),
             importlib.import_module("sl2ab.verify")]
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in UNWRAPPED
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            wrapper = tracer.wrap(name, obj)
            for site in sites:
                for site_attr, value in list(vars(site).items()):
                    if value is obj:
                        setattr(site, site_attr, wrapper)
    mod_poly = modules["polyarith"].ModPoly
    divmod_impl = mod_poly.__divmod__

    def counted_divmod(self, g):
        tracer.count("polyarith.modpoly_divmod.calls")
        return divmod_impl(self, g)

    mod_poly.__divmod__ = counted_divmod


# ---------------------------------------------------------------------------
# per-layer metrics

_MS = 1e6


def layer_self_ms(stats: dict[str, list[float]]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        out[name.split(".")[0]] += s[2] / _MS
    return out


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit).  A function that no
    longer exists, or was not called, reads 0."""
    stats = tracer.summarize()
    _stat = lambda name, index: stats.get(name, [0] * 5)[index]  # noqa: E731
    calls = lambda n: (_stat(n, 0), "count")  # noqa: E731
    incl_ms = lambda n: (_stat(n, 1) / _MS, "ms")  # noqa: E731
    self_ms = lambda n: (_stat(n, 2) / _MS, "ms")  # noqa: E731
    count = lambda k, unit="count": (tracer.counts.get(k, 0), unit)  # noqa: E731

    m: dict[str, tuple[float, str]] = {}
    for layer, ms in layer_self_ms(stats).items():
        m[f"{layer}.self_ms"] = (ms, "ms")
    m["cli.run.calls"] = calls("cli.run")
    m["splitting.closed_form_ms"] = (
        sum(
            _stat(f"splitting.{f}", 1)
            for f in ("quadratic_split", "cyclotomic_split", "rational_function_split")
        )
        / _MS,
        "ms",
    )
    m["splitting.dedekind_split.calls"] = calls("splitting.dedekind_split")
    m["splitting.dedekind_split.ms"] = self_ms("splitting.dedekind_split")
    m["splitting.dedekind_split.max_ms"] = (
        _stat("splitting.dedekind_split", 3) / _MS, "ms")
    m["abgroup.canonicalize.calls"] = calls("abgroup.canonicalize")
    m["abgroup.canonicalize.ms"] = incl_ms("abgroup.canonicalize")
    m["abgroup.from_order_statistics.ms"] = incl_ms("abgroup.from_order_statistics")
    m["polyarith.factorint.calls"] = calls("polyarith.factorint")
    m["polyarith.factorint.ms"] = incl_ms("polyarith.factorint")
    m["polyarith.factor_mod_p.calls"] = calls("polyarith.factor_mod_p")
    m["polyarith.factor_mod_p.ms"] = incl_ms("polyarith.factor_mod_p")
    m["polyarith.factor_mod_p.max_ms"] = (
        _stat("polyarith.factor_mod_p", 4) / _MS, "ms")
    for p in (2, 3):
        for label in DEGREE_BUCKETS:
            key = f"polyarith.factor_mod_p.p{p}.{label}"
            m[key + ".calls"] = count(key + ".calls")
            m[key + ".ms"] = count(key + ".ms", "ms")
    m["polyarith.modpoly_divmod.calls"] = count("polyarith.modpoly_divmod.calls")
    m["polyarith.sturm_real_roots.ms"] = incl_ms("polyarith.sturm_real_roots")
    m["polyarith.irreducible_over_q_check.ms"] = incl_ms(
        "polyarith.irreducible_over_q_check")
    checks = _stat("polyarith.irreducible_over_q_check", 0)
    certified = tracer.counts.get("polyarith.irreducible_over_q_check.certified", 0)
    m["polyarith.irreducible_over_q_check.certified_ratio"] = (
        certified / checks if checks else 0.0, "ratio")
    m["oracle.ring_for.ms"] = incl_ms("oracle.ring_for")
    m["oracle.enumerate_sl2_direct.ms"] = self_ms("oracle.enumerate_sl2_direct")
    m["oracle.abelianization.ms"] = self_ms("oracle.abelianization")
    m["oracle.prop_local_formula.ms"] = self_ms("oracle.prop_local_formula")
    for key in ("oracle.sl2_order", "oracle.coset_count", "oracle.commutator_pairs"):
        m[key] = count(key)
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.span_cost_ns"] = (tracer.span_cost_ns, "ns")
    return m
