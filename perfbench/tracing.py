"""Spans and counts recorded at the library's module boundaries.

The benchmark wraps library functions from the outside; nothing in the
library changes.  Each boundary is replaced under every name a caller looks
it up by: a function imported by name into another module (``uniform_block``
into ``probability`` and ``extraction``, ``spread_witness`` into ``cli``)
is a separate binding, so every loaded ``sunflowers`` module is searched for
bindings to the original function object.

A boundary the library no longer has is skipped, so its metrics are absent
from the report instead of failing the run.  A counter that can no longer be
derived from the call (a renamed argument, a changed result) drops only that
boundary's counts.

Spans are kept in memory while ops run and reduced when the run ends: a
span's self time is its duration minus the durations of its direct child
spans.  Durations are CPU time of the process, scaled to the reference
machine speed as the end-to-end op times are.  Recording is on only inside timed ops, so output checks that call
the library add nothing.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

Counter = Callable[[inspect.BoundArguments, Any], dict]
PACKAGE = "sunflowers"


def _mc_hit(args, res):
    trials = args.arguments["trials"]
    return {"trials": trials, "pair_tests": trials * len(args.arguments["family"])}


def _partition(args, res):
    a = args.arguments
    return {"trials": a["trials"], "class_tests": a["trials"] * a["classes"] * len(a["family"])}


def _exact_hit(args, res):
    family = args.arguments["family"]
    size = family.ground_size if res.method == "enumeration" else len(family)
    return {"terms": 2**size}


def _spread_witness(args, res):
    family = args.arguments["family"]
    return {
        "candidates": len(family) * (2**family.k - 1),
        "violations": int(res.violation is not None),
    }


def _extract(args, res):
    kinds = [type(step).__name__ for step in res.steps]
    return {
        "succeeded": int(res.sunflower is not None),
        "link_steps": kinds.count("LinkCase"),
        "spread_steps": kinds.count("SpreadCase"),
    }


def _partition_search(args, res):
    petals, used = res
    return {"trials_used": used, "successes": int(petals is not None)}


@dataclass(frozen=True)
class Boundary:
    """One library function to wrap, the metric prefix it reports under, and
    how to derive its counts from the bound call arguments and the result."""

    name: str
    module: str
    attr: str
    counter: Optional[Counter] = None
    quantities: tuple[str, ...] = ()


BOUNDARIES = (
    Boundary("rng.uniform_block", "rng", "uniform_block",
             lambda a, r: {"draws": a.arguments["trials"] * a.arguments["width"]}, ("draws",)),
    Boundary("probability.mc_hit", "probability", "mc_hit_probability", _mc_hit,
             ("trials", "pair_tests")),
    Boundary("probability.partition", "probability", "partition_experiment", _partition,
             ("trials", "class_tests")),
    Boundary("probability.exact_hit", "probability", "exact_hit_probability", _exact_hit, ("terms",)),
    Boundary("probability.decomposition", "probability", "check_fixed_size_decomposition"),
    Boundary("spread.spread_witness", "spread", "spread_witness", _spread_witness,
             ("candidates", "violations")),
    Boundary("spread.spreadness", "spread", "spreadness"),
    Boundary("families.link", "families", "link"),
    Boundary("families.load_family", "families", "load_family",
             lambda a, r: {"bytes": os.path.getsize(a.arguments["path"])}, ("bytes",)),
    Boundary("cli.main", "cli", "main"),
    Boundary("extraction.extract_sunflower", "extraction", "extract_sunflower", _extract,
             ("succeeded", "link_steps", "spread_steps")),
    Boundary("extraction.partition_search", "extraction", "_spread_case_search", _partition_search,
             ("trials_used", "successes")),
    Boundary("extraction.fallback", "extraction", "brute_force_sunflower",
             lambda a, r: {"found": int(r is not None)}, ("found",)),
    Boundary("sunvalues.max_sunflower_free", "sunvalues", "max_sunflower_free",
             lambda a, r: {"nodes": r.nodes}, ("nodes",)),
)


class Tracer:
    """Span recorder plus per-boundary counters for one worker process."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [boundary name, start, end, parent index]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.installed: list[str] = []
        self.patched: list[tuple] = []  # (module, attribute, original) for uninstall
        self.missing: list[str] = []
        self.broken_counters: dict[str, str] = {}

    def install(self) -> None:
        """Wrap every boundary the loaded library still has."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for boundary in BOUNDARIES:
            home = sys.modules.get(f"{PACKAGE}.{boundary.module}")
            original = getattr(home, boundary.attr, None)
            if not callable(original):
                self.missing.append(boundary.name)
                continue
            wrapper = self._wrap(boundary, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patched.append((module, attr, original))
            self.installed.append(boundary.name)
            self.calls[boundary.name] = 0
            if boundary.counter is not None:
                self.counts[boundary.name] = dict.fromkeys(boundary.quantities, 0)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def _wrap(self, boundary: Boundary, original):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(self.spans)
            span = [boundary.name, time.process_time(), 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                self.stack.pop()
            self.calls[boundary.name] += 1
            if boundary.counter is not None and boundary.name not in self.broken_counters:
                self._count(boundary, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, boundary, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = boundary.counter(bound, result)
        except (TypeError, KeyError, AttributeError, ValueError, OSError) as exc:
            self.broken_counters[boundary.name] = f"{type(exc).__name__}: {exc}"
            self.counts.pop(boundary.name, None)
            return
        totals = self.counts[boundary.name]
        for key, value in increments.items():
            totals[key] += value

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: 0.0 for name in self.installed}
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """``<module>.<function>.<quantity>`` values for every installed boundary;
        self times are multiplied by ``scale`` (the worker's speed factor)."""
        self_s = self.self_seconds()
        out: dict[str, float] = {}
        for name in self.installed:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = scale * self_s[name]
            counts = self.counts.get(name)
            if counts is None:
                continue
            for key, value in counts.items():
                out[f"{name}.{key}"] = value
        for name, num, den, scale in RATIOS:
            if num in out and den in out:
                out[name] = scale * out[num] / out[den] if out[den] else 0.0
        return out


# (metric, numerator, denominator, scale): derived ratios; over an empty base they read 0
RATIOS = (
    ("probability.mc_hit.ns_per_pair", "probability.mc_hit.self_s", "probability.mc_hit.pair_tests", 1e9),
    ("spread.spread_witness.violation_ratio", "spread.spread_witness.violations",
     "spread.spread_witness.calls", 1),
    ("extraction.extract_sunflower.succeeded_ratio", "extraction.extract_sunflower.succeeded",
     "extraction.extract_sunflower.calls", 1),
    ("extraction.partition_search.success_ratio", "extraction.partition_search.successes",
     "extraction.partition_search.calls", 1),
    ("sunvalues.max_sunflower_free.us_per_node", "sunvalues.max_sunflower_free.self_s",
     "sunvalues.max_sunflower_free.nodes", 1e6),
)
