"""Spans around the calls the sweep makes into rispart's modules.

A function is wrapped in the namespace of the module that calls it, so
``rispart.finite.effective_channel`` times the calls ``finite`` makes and
``rispart.channel.effective_channel`` stays untouched.  Nothing under
``src/`` changes: installing the wrappers swaps module attributes and
``uninstall`` puts the originals back.  A target that no longer exists is
skipped and listed in ``Tracer.absent``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time

# (namespace, function) pairs, wrapped where the sweep calls them.
TARGETS = (
    ("rispart.harness", "realize_channels"),
    ("rispart.harness", "coefficients"),
    ("rispart.harness", "solve"),
    ("rispart.harness", "adapt_solution"),
    ("rispart.harness", "refine_common_phases"),
    ("rispart.channel", "sample_paths"),
    ("rispart.channel", "synth_channel"),
    ("rispart.finite", "effective_channel"),
    ("rispart.finite", "build_theta"),
    ("rispart.finite", "logdet_rate"),
)

# Results the benchmark checks after each traced realization.
KEEP_RESULTS = ("realize_channels", "solve", "adapt_solution",
                "refine_common_phases")


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent id or None, realization, name, start, end)``
    with ``perf_counter`` times in seconds.  ``results`` holds the return
    values of the ``KEEP_RESULTS`` calls since the last ``take_results``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.realization = -1
        self.results: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches = []
        for module_name, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                self.absent.append(name)
                continue
            self._patches.append((module, name, original,
                                  self._wrap(name, original)))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.realization, name,
                               start, end))

    def _wrap(self, name, fn):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if keep:
                self.results.setdefault(name, []).append(out)
            return out
        return wrapper

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def take_results(self) -> dict[str, list]:
        out, self.results = self.results, {}
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, times in ms from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, realization, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent,
                    "realization": realization, "name": name,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4)}) + "\n")


def per_realization(spans) -> dict[int, dict[str, dict[str, float]]]:
    """Per realization and span name: call count, inclusive and self ms.

    Self time is a span's duration minus its children's; the program is
    single-threaded, so children never overlap.
    """
    child_ms: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
    out: dict[int, dict[str, dict[str, float]]] = {}
    for span_id, _, realization, name, start, end in spans:
        ms = (end - start) * 1e3
        entry = out.setdefault(realization, {}).setdefault(
            name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += ms
        entry["self_ms"] += ms - child_ms.get(span_id, 0.0)
    return out
