"""Spans around the calls into each pszsim layer, recorded from outside.

The tracer swaps the module attributes that ``pszsim.cli`` and
``pszsim.spatial_analysis`` call through (``pszsim.cli.transfer_matrix``,
``pszsim.spatial_analysis.response_matrix``, ...) for wrappers that record
one span per call: layer, parent span, start, end. The program's source is
not touched. A name the program no longer defines is reported as absent and
skipped, so a refactor that deletes or renames an entry point does not
break a traced run; the time spent behind it then shows as ``cli`` self
time.

Counters and unique-call keys are computed after the traced invocation
ends, from the arguments and results the spans keep, so they add no time
inside any span. pszsim's arguments are immutable (frozen dataclasses and
read-only arrays), which is what makes that deferral sound.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import time

import numpy as np

ROOT_LAYER = "cli"

# (layer, module, attribute): every call the benchmark attributes to a layer.
LAYERS = (
    ("acoustics.transfer", "pszsim.cli", "transfer_matrix"),
    ("acoustics.response", "pszsim.spatial_analysis", "response_matrix"),
    ("perturbation", "pszsim.cli", "averaged_perturbed"),
    ("filter_design.target", "pszsim.cli", "build_target_matrix"),
    ("filter_design.solve", "pszsim.cli", "pressure_matching"),
    ("filter_design.system", "pszsim.cli", "system_matrix"),
    ("metrics.isolation", "pszsim.cli", "izi"),
    ("metrics.isolation", "pszsim.cli", "ipi"),
    ("metrics.smooth", "pszsim.cli", "third_octave_smooth"),
    ("spatial_analysis.ipi_map", "pszsim.cli", "ipi_map"),
    ("spatial_analysis.contours", "pszsim.cli", "extract_contours"),
    ("spatial_analysis.area", "pszsim.cli", "enclosed_area"),
)

# Layers whose distinct argument tuples are counted: the repeated work a
# within-run cache would save.
KEYED = frozenset({"acoustics.transfer", "perturbation", "filter_design.solve"})


def _normals(args, kwargs, result):
    h, model = args[0], args[1]
    k, l_count = h.entries.shape
    return model.trials * 2 * k * l_count


def _grid_cells(m):
    return (m.nx - 1) * (m.ny - 1)


# layer -> {counter: f(args, kwargs, result)}; summed over the layer's spans.
COUNTERS = {
    "acoustics.response": {"points": lambda a, kw, r: len(a[1])},
    "perturbation": {"normals_drawn": _normals},
    "metrics.smooth": {"bins": lambda a, kw, r: len(a[0])},
    "spatial_analysis.ipi_map": {"points": lambda a, kw, r: r.nx * r.ny},
    "spatial_analysis.contours": {
        "cells": lambda a, kw, r: _grid_cells(a[0]),
        "vertices": lambda a, kw, r: sum(len(line) for line in r.polylines),
    },
    "spatial_analysis.area": {"cells": lambda a, kw, r: _grid_cells(a[1])},
}

# Raises of this exception name are counted as skipped designs.
SKIPPED = {"filter_design.solve": "IllConditionedError"}


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in LAYERS))


@dataclasses.dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    args: tuple = ()
    kwargs: dict | None = None
    result: object = None
    raised: str | None = None


class Tracer:
    """Records spans for one invocation; ``install`` before, ``uninstall`` after."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module_name, attr in self.layers:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn`` as the root span."""
        return self._wrap(ROOT_LAYER, fn)(*args)

    def _wrap(self, layer: str, fn):
        keep = layer in KEYED or layer in COUNTERS
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None, 0.0)
            if keep:
                span.args, span.kwargs = args, kwargs
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.raised = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if keep:
                span.result = result
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer calls, self seconds, unique calls and counters.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root span.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in [ROOT_LAYER, *layer_names()]}
        for name, counters in COUNTERS.items():
            layers[name].update(dict.fromkeys(counters, 0))
        for name in SKIPPED:
            layers[name]["skipped"] = 0
        keys: dict[str, set] = {name: set() for name in KEYED}
        memo: dict[int, object] = {}
        unmeasured = set()
        for span, children in zip(self.spans, child_time):
            entry = layers[span.layer]
            entry["calls"] += 1
            entry["self_s"] += (span.end - span.start) - children
            if span.layer in keys:
                keys[span.layer].add(_fingerprint((span.args, span.kwargs), memo))
            for counter, fn in COUNTERS.get(span.layer, {}).items():
                if span.raised is not None:
                    continue
                try:
                    entry[counter] += int(fn(span.args, span.kwargs or {}, span.result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    unmeasured.add(f"{span.layer}.{counter}")
            if span.layer in SKIPPED:
                entry["skipped"] += span.raised == SKIPPED[span.layer]
        for name, seen in keys.items():
            layers[name]["unique"] = len(seen)
        root = self.spans[0]
        wall = root.end - root.start
        return {
            "wall_s": wall,
            "self_sum_error_s": sum(e["self_s"] for e in layers.values()) - wall,
            "layers": layers,
            "absent": list(self.absent),
            "unmeasured": sorted(unmeasured),
        }


def _fingerprint(obj, memo: dict):
    """A hashable value equal for equal arguments, arrays compared by bytes."""
    if isinstance(obj, np.ndarray):
        key = id(obj)
        if key not in memo:
            memo[key] = (obj.dtype.str, obj.shape, obj.tobytes())
        return memo[key]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        key = id(obj)
        if key not in memo:
            memo[key] = (type(obj).__qualname__,) + tuple(
                _fingerprint(getattr(obj, f.name), memo) for f in dataclasses.fields(obj)
            )
        return memo[key]
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__,) + tuple(_fingerprint(v, memo) for v in obj)
    if isinstance(obj, dict):
        return ("dict",) + tuple((k, _fingerprint(v, memo)) for k, v in obj.items())
    if isinstance(obj, enum.Enum):
        return (type(obj).__qualname__, obj.value)
    try:
        hash(obj)
    except TypeError:
        return repr(obj)
    return obj
