"""Spans and counters around the calls the benchmark makes into vvcode.

The tracer replaces a layer's entry points with timing wrappers, from the
outside: vvcode itself is not changed. Modules bind names with
``from .x import y`` (``codec.parse``, ``measures.truncate``,
``cli.simulate``), so a module-level function is replaced in every vvcode
module that holds it, which is where each caller looks the name up.
Methods are replaced on their class.

Each wrapped call pushes a frame on one stack, so a call's self time is its
duration minus the time of the wrapped calls made inside it. Calls made
once per operation record a span (id, trace id, layer, name, start, end,
parent id), kept in memory and written out when the run ends. Hot calls
(``SourceModel.word_prob`` runs tens of thousands of times in a certify
round)
only add to per-function call counts and times.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

ROOT = "bench"


class Tracer:
    def __init__(self, modules):
        self._modules = list(modules)
        self._patches = []  # (owner, attribute, original, wrapper)
        self.calls = {}  # (layer, name) -> [calls, total_s, self_s]
        self.counters = Counter()
        self.spans = []
        self.trace_id = 0
        self._next_id = 1
        self._stack = [[0.0, 0]]  # frames: [child time, span id]
        self._t0 = time.perf_counter()

    # -- installing wrappers ------------------------------------------

    def wrap_function(self, layer, module, name, *, hot=False, on_result=None,
                      before=None):
        """Wrap module-level ``module.name`` wherever a vvcode module holds it."""
        original = getattr(module, name)
        wrapper = self._make_wrapper(layer, name, original, hot, on_result, before)
        for m in self._modules:
            for attr, value in vars(m).items():
                if value is original:
                    self._patches.append((m, attr, original, wrapper))

    def wrap_method(self, layer, cls, name, *, hot=False, on_result=None):
        original = vars(cls)[name]
        label = f"{cls.__name__}.{name}"
        wrapper = self._make_wrapper(layer, label, original, hot, on_result, None)
        self._patches.append((cls, name, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _make_wrapper(self, layer, name, func, hot, on_result, before):
        key = (layer, name)
        agg = self.calls.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if not hot:
                    spans.append((frame[1], tracer.trace_id, layer, name,
                                  t0 - tracer._t0, t1 - tracer._t0, parent[1]))
            if on_result is not None:
                on_result(args, kwargs, result, token, dur)
            return result

        return wrapper

    # -- benchmark-side spans -----------------------------------------

    @contextmanager
    def span(self, name):
        """One span of the benchmark's own layer, under a new trace id, so
        the spans of one operation share an identifier."""
        self.trace_id += 1
        parent = self._stack[-1]
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[0] += t1 - t0
            self.spans.append((frame[1], self.trace_id, ROOT, name,
                               t0 - self._t0, t1 - self._t0, parent[1]))

    # -- reading results ----------------------------------------------

    def snapshot(self):
        return ({k: list(v) for k, v in self.calls.items()}, Counter(self.counters))

    @staticmethod
    def delta(before, after):
        calls0, counters0 = before
        calls1, counters1 = after
        zero = (0, 0.0, 0.0)
        calls = {k: [a - b for a, b in zip(v, calls0.get(k, zero))]
                 for k, v in calls1.items()}
        counters = Counter(counters1)
        counters.subtract(counters0)
        return calls, counters

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "trace_id", "layer", "name", "start_s", "end_s",
                           "parent_id"],
                "spans": self.spans,
            }, fh)

