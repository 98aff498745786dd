"""Spans around the public functions of each cavens layer.

The wrappers are installed from outside the package, on the names the
callers look up at call time: a function imported into another module by
name (``ensemble`` imports ``pulsed_block_emission`` from ``dicke``) is
wrapped there too.  Each wrapped call records one span (name, start, end,
parent) in memory; :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

# (layer, module attribute, modules in which callers look the name up)
SPANNED = (
    ("config", "load_config", ("config",)),
    ("experiments", "run_experiment", ("experiments",)),
    ("cli", "write_outputs", ("cli",)),
    ("meanfield", "reflection_spectrum", ("meanfield",)),
    ("meanfield", "solve_selfconsistent_x", ("meanfield",)),
    ("analysis", "fit_lorentzian_dip", ("analysis",)),
    ("analysis", "fit_cit_power_laws", ("analysis",)),
    ("ensemble", "bin_lorentzian", ("ensemble",)),
    ("ensemble", "incoherent_scurve", ("ensemble",)),
    ("dicke", "pulsed_block_emission", ("dicke", "ensemble")),
    ("dicke", "build_block_generator", ("dicke",)),
    ("dicke", "block_evolve", ("dicke",)),
    ("dicke", "block_observables", ("dicke",)),
    ("lindblad", "pulsed_emission", ("lindblad",)),
    ("lindblad", "build_generator", ("lindblad",)),
    ("lindblad", "evolve", ("lindblad",)),
    ("lindblad", "evolve_expm", ("lindblad",)),
    ("lindblad", "collective_operators", ("lindblad",)),
)


class Tracer:
    """Records spans of wrapped calls and a few counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapped

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (the package import, before any wrapper)."""
        self.spans.append((name, start, end, -1))

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self, modules: dict) -> None:
        """Wrap every name in :data:`SPANNED` in the given ``cavens``
        submodules (keyed by short name), plus two counters: ODE right-hand
        sides (``Liouvillian.matvec``) and the largest block dimension that
        ``dicke.block_evolve`` propagated."""
        self._block_cache = modules["dicke"].build_block_generator
        for layer, attr, lookups in SPANNED:
            wrapped = self.span(f"{layer}.{attr}", getattr(modules[layer], attr))
            for mod in lookups:
                setattr(modules[mod], attr, wrapped)

        liouvillian = modules["lindblad"].Liouvillian
        liouvillian.matvec = self.count("lindblad.Liouvillian.matvec.calls", liouvillian.matvec)

        dicke = modules["dicke"]
        spanned_evolve = dicke.block_evolve
        counters = self.counters
        counters["dicke.block_evolve.max_dim"] = 0

        def block_evolve(gen, *args, **kwargs):
            counters["dicke.block_evolve.max_dim"] = max(counters["dicke.block_evolve.max_dim"],
                                                         gen.dim)
            return spanned_evolve(gen, *args, **kwargs)

        dicke.block_evolve = block_evolve

    def dump(self, path: str) -> None:
        misses = self._block_cache.cache_info().misses
        self.counters["dicke.build_block_generator.misses"] = misses
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(spans: list, counters: dict) -> dict[str, float]:
    """Per-name call counts, total time (``.s``) and self time (``.self_s``:
    the total minus the time of directly nested wrapped calls)."""
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _parent), inner in zip(spans, child_time):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
    out.update(counters)
    return out
