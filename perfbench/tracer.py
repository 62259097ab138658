"""Spans around calls into grassmoment's modules, recorded from outside.

Each traced function is replaced by a wrapper in every grassmoment module
namespace that holds it, so calls through ``from .x import f`` bindings,
module attributes and calls inside the defining module are all seen.
Spans (name, start, end, parent) stay in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Public functions wrapped per module, as named in the per-layer metrics.
TRACED = {
    "exactgeom": ("sign_vector", "affine_rank", "convex_membership"),
    "regularity": ("is_regular_grassmann", "is_regular_projective",
                   "is_regular_projective_bruteforce"),
    "moment": ("hypersimplex_moment",),
    "plucker": ("normalize_projective", "plucker_relation_residual"),
    "fibers4": ("sample_for_kind", "build_certificate", "sample_fiber5", "jacobian_rank",
                "tangent_fiber_dimension", "ci_jacobian_fd"),
    "cli": ("_emit",),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts[index] = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.ends[index] = self.clock()
                self._stack.pop()
        return traced

    def _patch(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "grassmoment" and not module_name.startswith("grassmoment."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function and each acceptance criterion."""
        import grassmoment.acceptance as acceptance

        for module_name, functions in TRACED.items():
            module = sys.modules[f"grassmoment.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                label = f"{module_name}.{function.lstrip('_')}"
                self._patch(original, self._wrap(label, original))
        self._patched.append((acceptance, "CRITERIA", acceptance.CRITERIA))
        acceptance.CRITERIA = tuple(
            (short, self._wrap(f"acceptance.{func.__name__}", func))
            for short, func in acceptance.CRITERIA)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(span) + "\n")
