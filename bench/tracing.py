"""Outside-in layer tracing for the benchmark.

Each layer is traced at the module attribute its caller looks up (for
example ``engine.entails`` rather than ``orderings.entails``), so the
program itself is not changed.  For every wrapped function the tracer
records calls, inclusive time and self time (its span minus the spans of
wrapped functions it called).  A name missing at some later commit is
skipped and its layer reported as absent (None) instead of failing.

Forked worker processes inherit the wrappers, but what they record stays
in the child, so only parent-side spans reach the report.
"""

from __future__ import annotations

import functools
import importlib
import time

#: layer name -> the (module, attribute) references its callers use
LAYERS = {
    "cli.main": (("aggequiv.cli", "main"),),
    "parsing.parse_queries": (("aggequiv.cli", "parse_queries"),),
    "normalize.reduce_query": (("aggequiv.quasilinear", "reduce_query"),),
    "quasilinear.find_isomorphism":
        (("aggequiv.quasilinear", "find_isomorphism"),),
    "engine.n_equivalent": (("aggequiv.engine", "n_equivalent"),),
    "engine.build_base": (("aggequiv.engine", "build_base"),),
    "orderings.enumerate_complete_orderings":
        (("aggequiv.engine", "enumerate_complete_orderings"),),
    "orderings.entails": (("aggequiv.engine", "entails"),),
    "orderings.satisfying_assignment":
        (("aggequiv.engine", "satisfying_assignment"),
         ("aggequiv.identity", "satisfying_assignment")),
    "identity.decide": (("aggequiv.identity", "decide"),),
    "identity.decide_shiftable": (("aggequiv.identity", "decide_shiftable"),),
    "identity.decide_sum": (("aggequiv.identity", "decide_sum"),),
    "identity.decide_prod": (("aggequiv.identity", "decide_prod"),),
    "oracle.eval_concrete": (("aggequiv.oracle", "eval_concrete"),),
}

#: generator functions: the wrapper drains them inside its span and
#: re-yields the items, so callers see exactly the same sequence
GENERATORS = frozenset({"orderings.enumerate_complete_orderings"})

SCAN = "engine.n_equivalent"
BASE = "engine.build_base"
ORDERINGS = "orderings.enumerate_complete_orderings"


class Tracer:
    """Install with `install()`, read `calls` / `total_s` / `self_s` and
    `scans`, and always `uninstall()` (a context manager does both)."""

    def __init__(self, layers=None):
        self.layers = dict(LAYERS if layers is None else layers)
        self.present: set = set()
        self._saved: list = []
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(self.layers, 0)
        self.total_s = dict.fromkeys(self.layers, 0.0)
        self.self_s = dict.fromkeys(self.layers, 0.0)
        self.orderings = 0
        #: one (|BASE|, orderings) entry per completed n_equivalent call
        self.scans: list = []
        self._stack: list = []  # open spans: [name, start, child seconds]
        self._scan = None       # [|BASE|, orderings] of the open scan

    # -- installation -----------------------------------------------------

    def install(self):
        for name, sites in self.layers.items():
            for module_name, attribute in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                self._saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(name, original))
                self.present.add(name)
        return self

    def uninstall(self):
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name in GENERATORS:
            @functools.wraps(fn)
            def drain(*args, **kwargs):
                self._open(name)
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    self._close()
                self.orderings += len(items)
                if self._scan is not None:
                    self._scan[1] += len(items)
                yield from items
            return drain

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if name == BASE and self._scan is not None:
                self._scan[0] = len(result[1])
            return result
        return call

    def _open(self, name):
        if name == SCAN and self._scan is None:
            self._scan = [None, 0]
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child_s = self._stack.pop()
        span = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += span - child_s
        if self._stack:
            self._stack[-1][2] += span
        if any(open_name == name for open_name, _, _ in self._stack):
            return  # inner span of a recursion: its time is already counted
        self.total_s[name] += span
        if name == SCAN:
            base, orderings = self._scan
            if base is not None:
                self.scans.append((base, orderings))
            self._scan = None

    # -- report -----------------------------------------------------------

    def metric(self, name, field):
        """calls, ms or self_ms of a layer; None when the layer is absent."""
        if name not in self.present:
            return None
        if field == "calls":
            return self.calls[name]
        seconds = self.total_s if field == "ms" else self.self_s
        return seconds[name] * 1000.0
