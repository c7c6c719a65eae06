"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces every module attribute of the `pag` package that
binds one of the traced functions (for example `pag.oracle.is_nash`,
`pag.constructors.is_nash` and `pag.cli.sigma_tau` all bind
`equilibrium.is_nash` or `model.sigma_tau`) with a wrapper that records one
span per call: layer name, start, end, parent span and operation id.  Calls
across modules therefore land in spans too.  Spans stay in memory and are
written out by `write`.

Self time of a span is its duration minus the durations of its direct child
spans.  The benchmark runs one thread with no queues, so no layer metric
measures waiting.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Traced functions per module, named as in the per-layer metrics.
LAYERS = {
    "model": ("sigma_tau", "state_vector", "replace_row", "validate_allocation", "validate_environment"),
    "equilibrium": ("best_deviation", "is_nash"),
    "oracle": ("find_equilibria",),
    "constructors": (
        "balancing_equilibrium",
        "sole_survivor_equilibrium",
        "bipartite_safe_equilibrium",
        "pairwise_annihilation",
    ),
    "analysis": ("dp_cover", "bipartite_safe_necessary", "bipartite_safe_sufficient"),
    "cli": ("parse_scenario", "emit_scenario", "main"),
}
CONSTRUCTORS = ("balancing_equilibrium", "sole_survivor_equilibrium", "bipartite_safe_equilibrium")


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.self_s: list[float] = []
        self.calls: Counter[tuple[str, str]] = Counter()  # (layer, binding module)
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        targets: dict[int, str] = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"pag.{module}"]
            for name in names:
                targets[id(getattr(mod, name))] = f"{module}.{name}"
        for modname, mod in sorted(sys.modules.items()):
            if modname != "pag" and not modname.startswith("pag."):
                continue
            for attr, value in list(vars(mod).items()):
                layer = targets.get(id(value))
                if layer is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(layer, modname, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.self_s.append(0.0)
        return self.layers.index(layer)

    def _wrap(self, layer: str, site: str, fn: Callable) -> Callable:
        lid = self._layer_id(layer)
        on_result = self._result_hook(layer)
        stack, self_s, calls, key = self._stack, self.self_s, self.calls, (layer, site)
        names, starts, ends = self.span_layer, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(lid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            starts[idx] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[idx] = end
                duration = end - start
                self_s[lid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _result_hook(self, layer: str) -> Callable[[Any], None] | None:
        counts = self.counts
        if layer == "equilibrium.best_deviation":
            def hook(dev):
                if dev is not None:
                    counts["equilibrium.witnesses"] += 1
            return hook
        if layer == "oracle.find_equilibria":
            def hook(atlas):
                counts["oracle.candidates"] += atlas.candidates_checked
                counts["oracle.equilibria"] += atlas.total
            return hook
        if layer.split(".")[1] in CONSTRUCTORS:
            def hook(_):
                counts["constructors.successes"] += 1
            return hook
        return None

    # -- results --------------------------------------------------------------

    def layer_calls(self, layer: str, site: str | None = None) -> int:
        return sum(n for (name, s), n in self.calls.items() if name == layer and site in (None, s))

    def layer_self(self, layer: str) -> float:
        return self.self_s[self.layers.index(layer)] if layer in self.layers else 0.0

    def root_seconds(self) -> float:
        """Total duration of spans with no traced parent."""
        return sum(
            e - s for s, e, p in zip(self.span_start, self.span_end, self.span_parent) if p < 0
        )

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write("span\tparent\top\tlayer\tstart_s\tend_s\n")
            spans = zip(self.span_layer, self.span_parent, self.span_op, self.span_start, self.span_end)
            for idx, (lid, parent, op, start, end) in enumerate(spans):
                f.write(f"{idx}\t{parent}\t{op}\t{self.layers[lid]}\t{start:.9f}\t{end:.9f}\n")
