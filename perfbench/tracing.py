"""Spans around every call into the public functions of the gpchannels layers.

The benchmark records spans from its own code: :meth:`Tracer.install`
replaces each public function of the layer modules by a wrapper, in every
``gpchannels`` module namespace that holds it, so calls between layers are
spanned as well as the benchmark's own calls.  Nothing under ``src/`` is
edited; the replacement lives only in the benchmark process.

Spans are kept in memory as (name, layer, parent, item, start, end) and
aggregated when the run ends.  Spans are recorded only while an item is
being timed, so warm-up and output checks stay out of the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("mub", "channel", "metrics", "oracle", "dynamics", "cli")


class Tracer:
    """Collects spans; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.item: int | None = None  # id of the item being timed, None when idle

    def _wrap(self, name: str, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, parent, self.item, start, end)

        return spanned

    def install(self) -> None:
        """Wrap every public function of the layer modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gpchannels.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "gpchannels" and not modname.startswith("gpchannels."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(mod, attr, wrapper)

    def summary(self, groups: dict[str, tuple[str, ...]]) -> dict:
        """Per-function and per-layer calls, total time and self time.

        A function's (or layer's) total counts only its outermost spans, so
        nested calls into the same function or layer are not counted twice.
        Self time attributes each instant to the innermost open span.  Each
        of ``groups`` (name -> function names) is totalled the same way.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s[2] >= 0:
                child_time[s[2]] += s[5] - s[4]
        out = {
            "fn_calls": defaultdict(int),
            "fn_total": defaultdict(float),
            "layer_calls": defaultdict(int),
            "layer_total": defaultdict(float),
            "layer_self": defaultdict(float),
            "group_total": dict.fromkeys(groups, 0.0),
            "root_total": 0.0,
            "spans": len(spans),
        }
        for i, (name, layer, parent, _item, start, end) in enumerate(spans):
            dur = end - start
            out["fn_calls"][name] += 1
            out["layer_calls"][layer] += 1
            out["layer_self"][layer] += dur - child_time[i]
            names, layers = set(), set()
            p = parent
            while p >= 0:
                names.add(spans[p][0])
                layers.add(spans[p][1])
                p = spans[p][2]
            if name not in names:
                out["fn_total"][name] += dur
            if layer not in layers:
                out["layer_total"][layer] += dur
            for group, members in groups.items():
                if name in members and names.isdisjoint(members):
                    out["group_total"][group] += dur
            if parent < 0:
                out["root_total"] += dur
        return out
