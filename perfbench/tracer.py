"""In-memory spans around the public functions of cityroad's modules.

Nothing inside the package is instrumented: ``Tracer.install`` replaces each
traced function with a wrapper in every cityroad module that holds it, so a
name imported with ``from .x import f`` is wrapped where it is looked up, and
``Tracer.uninstall`` puts the originals back.  A span is (layer, start, end,
parent, counts); a layer's self time is its span durations minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _lattice_counts(args, kwargs):
    v, rho = args[0], args[1]
    steps = args[2] if len(args) > 2 else kwargs["nsteps"]
    n_edges, n_nodes = v.shape
    return {"steps": steps, "node_updates": (n_edges * n_nodes + rho.shape[0]) * steps}


def _asym_counts(args, kwargs):
    return {"steps": args[2] if len(args) > 2 else kwargs["nsteps"]}


# (module, function, counts taken from the call's arguments); the layer name
# is "<module without the package prefix>.<function>".
TARGETS = (
    ("cityroad.cli", "main", None),
    ("cityroad.lattice_sim", "simulate", None),
    ("cityroad.asymptotic", "simulate_asymptotic", None),
    ("cityroad.kernels", "advance_lattice", _lattice_counts),
    ("cityroad.kernels", "advance_asym", _asym_counts),
    ("cityroad.edge_solver", "assemble_step_operator", None),
    ("cityroad.dispersion", "compute_c_star", None),
    ("cityroad.asymptotic", "compute_c_star_inf", None),
    ("cityroad.front_speed", "estimate_speed", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, counts]
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [layer, time.perf_counter(), 0.0, parent,
                    counts(args, kwargs) if counts else None]
            self.spans.append(span)
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cityroad" or name.startswith("cityroad."))]
        for mod_name, attr, counts in TARGETS:
            home = sys.modules.get(mod_name)
            original = getattr(home, attr, None)
            if original is None:  # a later refactor may drop a layer
                continue
            wrapper = self._wrap(f"{mod_name.removeprefix('cityroad.')}.{attr}", original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """Per layer: calls, busy (summed span time), self (busy minus the
        time of child spans) and the summed call counts."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for (layer, start, end, _, counts), inner in zip(self.spans, child_time):
            t = totals[layer]
            t["calls"] += 1
            t["busy"] += end - start
            t["self"] += end - start - inner
            for key, value in (counts or {}).items():
                t[key] += value
        return totals
