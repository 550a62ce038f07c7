"""Spans around the library's public functions, recorded from outside.

For a traced run every target function is replaced, in every ``abdirac``
module namespace that binds it, by a wrapper that records one span per call:
id, parent span, item, pass, start, end, self time and a work count.  Calls
between library functions inside one module (``bessel_j_prime`` calling
``bessel_j``) go through the module namespace too, so they appear as child
spans.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import numpy as np

# traced function -> name of its work count (None: calls and self time only)
TARGETS = {
    "specfun.bessel_j_ladder": "orders",
    "specfun.bessel_j": "points",
    "specfun.bessel_j_prime": "points",
    "specfun.hankel1": "points",
    "specfun.hankel1_prime": "points",
    "specfun.kummer_f": "points",
    "scattering.dirac_scattering_state": None,
    "bare_tube.matching_coefficient": None,
    "bare_tube.matching_from_log_derivative": None,
    "shielded.shielded_matching": None,
    "shielded.f_factor": None,
    "shielded.barrier_log_derivative": None,
    "propagate.delta_quadrature": None,
    "propagate.delta_closed": None,
    "numerics.gauss_panel_nodes": "nodes",
}

# bytes of one complex long double, the element type of the packet grid
GRID_ELEMENT_BYTES = 32


def _work(kind: str, result) -> int:
    if kind == "orders":
        return len(result)
    if kind == "points":
        return int(np.size(result))
    return len(result[0])  # nodes: gauss_panel_nodes returns (nodes, weights)


class Tracer:
    """In-memory span recorder for the target functions."""

    def __init__(self):
        # span: [id, parent id, name, item, pass, start, end, self seconds, work]
        self.spans: list[list] = []
        self.item = None
        self.pass_index = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def _wrap(self, name: str, fn, work_kind):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                work = _work(work_kind, result) if work_kind and result is not None else 0
                self.spans.append([
                    sid, parent[0] if parent else None, name, self.item,
                    self.pass_index, start, end, duration - frame[1], work,
                ])

        return traced

    @contextmanager
    def patched(self):
        """Swap every target for its wrapper in all abdirac modules; undo on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "abdirac" or n.startswith("abdirac.")]
        undo = []
        try:
            for qualified, work_kind in TARGETS.items():
                mod_name, func_name = qualified.split(".")
                original = getattr(import_module(f"abdirac.{mod_name}"), func_name)
                wrapper = self._wrap(qualified, original, work_kind)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def pass_stats(self, pass_index: int) -> dict:
        """Per-function calls, self time and work, plus derived layer counts."""
        spans = [s for s in self.spans if s[4] == pass_index]
        names = {s[0]: s[2] for s in spans}
        stats = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in TARGETS}
        ladder_orders_in_state = 0
        grid_nodes: dict[int, list[tuple[float, int]]] = {}
        for sid, parent, name, _item, _p, start, _end, self_s, work in spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["work"] += work
            parent_name = names.get(parent)
            if name == "specfun.bessel_j_ladder" and parent_name == "scattering.dirac_scattering_state":
                ladder_orders_in_state += work
            if name == "numerics.gauss_panel_nodes" and parent_name == "propagate.delta_quadrature":
                grid_nodes.setdefault(parent, []).append((start, work))
        grid_bytes = 0
        for calls in grid_nodes.values():
            # each quadrature grid is one radial and one angular node set
            counts = [work for _, work in sorted(calls)]
            for r_nodes, th_nodes in zip(counts[0::2], counts[1::2]):
                grid_bytes += r_nodes * th_nodes * GRID_ELEMENT_BYTES
        return {
            "functions": stats,
            "ladder_orders_in_state": ladder_orders_in_state,
            "grid_bytes": grid_bytes,
        }

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "fields": [
                "id", "parent", "name", "item", "pass", "start", "end", "self_s", "work",
            ]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
