"""Span tracing of realityvote's public functions, installed from outside.

The tracer wraps the functions listed in ``WRAPPED`` and rebinds every
module-level name in the ``realityvote`` package that refers to one of them
(``build_profile`` inside ``verifier``, ``proxy`` and ``montecarlo`` as well
as inside ``population``).  Each wrapped call records a span (id, name,
start, end, parent id, op id) in memory; self time is the span's duration
minus the time covered by its child spans, so nested spans are never counted
twice.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: Layer (module) -> public functions wrapped in it.  A name missing from a
#: later version of the library stops the traced run with an error, so no
#: metric silently reads 0; update this table with the library.
WRAPPED = {
    "population": ("build_profile", "project_to_pair"),
    "betweenness": ("between", "between_union"),
    "rules": ("apply", "build_tally", "evaluate_tally"),
    "proxy": (
        "sample_and_run",
        "analyze",
        "md_proxy",
        "delegate",
        "weighted_median",
        "nearest_entity_to",
    ),
    "guarantees": (
        "safety_threshold",
        "liveness_threshold",
        "feasibility",
        "required_tau",
        "report",
    ),
    "verifier": (
        "outcome_range",
        "is_safe",
        "min_alpha",
        "min_alpha_for_profile",
        "smallest_live_beta",
        "is_live",
        "honest_only",
    ),
    "montecarlo": ("run_safety_whp", "run_proxy_whp", "hoeffding_diagnostic"),
    "formats": (
        "profile_from_json",
        "profile_to_json",
        "write_frontier_csv",
        "parse_rational_list",
    ),
    "cli": ("main",),
}

LAYERS = tuple(WRAPPED)

#: Spans kept in memory for the span file; totals count every span.
MAX_SPANS = 50_000

#: Functions whose calls are divided by the units of work of the operations
#: that reached them (``<name>.per_op``).
PER_OP = ("population.build_profile", "proxy.delegate")


def range_cache() -> dict:
    """The verifier's module-level range cache; an error if it is gone."""
    verifier = importlib.import_module("realityvote.verifier")
    cache = getattr(verifier, "_range_cache", None)
    if not isinstance(cache, dict):
        raise RuntimeError("realityvote.verifier._range_cache is not a dict; "
                           "update perfbench/tracing.py")
    return cache


class Tracer:
    """In-memory span recorder with online self-time totals.

    ``op`` is set by the benchmark before each top-level call, so every span
    of one operation shares it; ``op_units`` holds each operation's units of
    work and ``reached`` the operations that called each function.  At most
    ``MAX_SPANS`` spans are kept for the span file; totals count every span,
    and ``started`` is the number of spans begun.
    """

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.root_s = 0.0
        self.counts = defaultdict(int)
        self.op_units = {}
        self.reached = defaultdict(set)
        self.started = 0
        self._stack = []
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s, spans = self.calls, self.self_s, self.total_s, self.spans
        reached = self.reached[name]

        def traced(*args, **kwargs):
            span_id = self.started
            self.started = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                reached.add(self.op)
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                if parent is None:
                    self.root_s += duration
                else:
                    parent[1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append(
                        (span_id, name, start, end,
                         None if parent is None else parent[0], self.op)
                    )
                else:
                    self.dropped += 1
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        counts = self.counts

        def evaluation(parent, args, kwargs, result):
            # Enumeration work: base-rule evaluations issued by the verifier
            # itself, not through rules.apply.
            if parent is not None and parent[2] == "verifier":
                counts["verifier.evaluations"] += 1

        def bytes_read(parent, args, kwargs, result):
            text = args[0] if args else kwargs.get("text", "")
            counts["formats.bytes_read"] += len(text)

        def bytes_written(parent, args, kwargs, result):
            counts["formats.bytes_written"] += len(result)

        def experiment_trials(parent, args, kwargs, result):
            exp = args[0] if args else kwargs["exp"]
            counts["montecarlo.trials"] += exp.trials

        def diagnostic_trials(parent, args, kwargs, result):
            counts["montecarlo.trials"] += args[3] if len(args) > 3 else kwargs["trials"]

        return {
            "rules.evaluate_tally": evaluation,
            "formats.profile_from_json": bytes_read,
            "formats.write_frontier_csv": bytes_written,
            "montecarlo.run_safety_whp": experiment_trials,
            "montecarlo.run_proxy_whp": experiment_trials,
            "montecarlo.hoeffding_diagnostic": diagnostic_trials,
        }

    def _count_cache(self, fn):
        """Counter (no span) around verifier._cached_range: a miss grows the
        cache by one entry; a shrink means the cache cleared itself."""
        counts = self.counts
        cache = range_cache()

        def counted(*args, **kwargs):
            before = len(cache)
            result = fn(*args, **kwargs)
            after = len(cache)
            counts["verifier.range_cache.calls"] += 1
            if after != before:
                counts["verifier.range_cache.misses"] += 1
            if after < before:
                counts["verifier.range_cache.clears"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        replacement, missing = {}, []
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"realityvote.{layer}")
            for name in names + (("_cached_range",) if layer == "verifier" else ()):
                fn = getattr(module, name, None)
                if not callable(fn):
                    missing.append(f"{layer}.{name}")
                elif name == "_cached_range":
                    replacement[id(fn)] = (fn, self._count_cache(fn))
                else:
                    full = f"{layer}.{name}"
                    replacement[id(fn)] = (fn, self._wrap(full, layer, fn, hooks.get(full)))
        if missing:
            raise RuntimeError(f"realityvote has no {', '.join(missing)}; "
                               "update perfbench/tracing.py")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "realityvote" or module_name.startswith("realityvote.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """The totals of one traced verdict, as plain JSON values."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "started": self.started,
            "units_reached": {
                name: sum(self.op_units[op] for op in self.reached[name]) for name in PER_OP
            },
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
            # Sum of self times minus the time covered by root spans; zero up
            # to rounding when spans nest without double counting.
            "attribution_error_s": sum(self.self_s.values()) - self.root_s,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
