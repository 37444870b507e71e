"""Spans and linear-algebra counts, recorded from outside the program.

``Tracer.installed()`` rebinds, for the length of a with-block, every public
function of the ejof layer modules, ``StructuredLindbladian.asymptotic_projection``
and the numpy/scipy entry points the package calls to recording wrappers. Each
original is replaced in every ejof namespace that holds it, so names bound by
``from x import y`` are covered too. The sources are not changed. Helpers of
``ejof.operators`` are not wrapped: they count toward their callers' self time.

Spans and counts are taken only inside ``Tracer.op()``, so untimed input
generation and output checks stay out of them. Spans are kept in memory and
reduced to per-op metrics by ``Tracer.metrics``. tracemalloc slows
allocation-heavy Python severalfold, so a tracer built with track_memory=True
is for a separate pass that yields only ``Tracer.peak_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "scenarios", "qec", "dynamics", "effective", "lindblad")

# Inclusive per-op time of these spans; nested spans of one metric count once.
NAMED_SPANS = {
    "lindblad.structured_lindbladian": "lindblad.structured_lindbladian_s",
    "lindblad.drazin_inverse": "lindblad.drazin_s",
    "lindblad.asymptotic_projection": "lindblad.asymptotic_projection_s",
    "lindblad.StructuredLindbladian.asymptotic_projection": "lindblad.asymptotic_projection_s",
    "lindblad.asymptotic_projection_analytic": "lindblad.projection_oracles_s",
    "lindblad.asymptotic_projection_limit": "lindblad.projection_oracles_s",
    "effective.effective_lindbladian_general": "effective.general_s",
    "effective.effective_lindbladian_closed": "effective.closed_s",
    "effective.effective_to_superop": "effective.closed_s",
    "effective.identity_suite": "effective.identity_suite_s",
    "effective.corner_sensitivity": "effective.corner_sensitivity_s",
    "dynamics.evolve_and_compare": "dynamics.evolve_and_compare_s",
    "qec.robustness_check": "qec.robustness_check_s",
    "qec.hamiltonian_obstruction_demo": "qec.obstruction_s",
}
GENERATOR_SPAN = "lindblad.structured_lindbladian"
GENERAL_SPAN = "effective.effective_lindbladian_general"
PEAK_LAYERS = ("lindblad", "effective", "dynamics")
LINALG_KINDS = ("eig", "schur", "svd", "solve", "expm")
# Dense spectral decompositions; linalg.max_n and the waste ratio count these.
DECOMPOSITIONS = ("eig", "schur", "svd")
MB = 2.0 ** 20


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0


def _is_matrix_2norm(args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and np.ndim(args[0]) == 2


def _linalg_targets():
    """(module, attribute, kind, predicate): calls counted when predicate holds."""
    import scipy.linalg

    return (
        (np.linalg, "eigvals", "eig", None),
        (np.linalg, "eig", "eig", None),
        (scipy.linalg, "schur", "schur", None),
        (np.linalg, "svd", "svd", None),
        (np.linalg, "norm", "svd", _is_matrix_2norm),
        (np.linalg, "solve", "solve", None),
        (scipy.linalg, "expm", "expm", None),
    )


class Tracer:
    """Records spans, linear-algebra calls and, optionally, tracemalloc peaks of traced ops."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.decomposition_sides: Counter[int] = Counter()
        self.generator_sides: set[int] = set()
        self.ops = 0
        self._active = False
        self._stack: list[int] = []
        # Per open span: [traced bytes at entry, highest traced bytes seen].
        self._mem: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind program and library entry points to recording wrappers."""
        started = self.track_memory and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for module, attr, kind, when in _linalg_targets():
                self._replace(module, attr, self._count(kind, when, getattr(module, attr)))
            for layer in LAYERS:
                module = sys.modules[f"ejof.{layer}"]
                for name, fn in list(vars(module).items()):
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not name.startswith("_")):
                        self._replace(module, name, self._span(f"{layer}.{name}", layer, fn))
            self._wrap_cached_property(sys.modules["ejof.lindblad"].StructuredLindbladian,
                                       "asymptotic_projection", "lindblad")
            yield self
        finally:
            for obj, attr, original in reversed(self._restore):
                setattr(obj, attr, original)
            self._restore.clear()
            if started:
                tracemalloc.stop()

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        holders = [owner] + [
            m for name, m in sys.modules.items()
            if (name == "ejof" or name.startswith("ejof.")) and m is not owner
        ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def _wrap_cached_property(self, cls, attr: str, layer: str) -> None:
        prop = cls.__dict__[attr]
        new = functools.cached_property(
            self._span(f"{layer}.{cls.__name__}.{attr}", layer, prop.func)
        )
        new.__set_name__(cls, attr)
        self._restore.append((cls, attr, prop))
        setattr(cls, attr, new)

    # -- wrappers -------------------------------------------------------------

    def _count(self, kind: str, when, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active and (when is None or when(args, kwargs)):
                self.calls[kind] += 1
                if kind in DECOMPOSITIONS:
                    self.decomposition_sides[int(np.shape(args[0])[0])] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name == GENERATOR_SPAN:
                self.generator_sides.add(result.superop.shape[0])
            return result
        return wrapper

    def _enter(self, name: str, layer: str) -> None:
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, layer, self.ops, parent, time.perf_counter()))

    def _exit(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span.end = end
        if self.track_memory:
            _, peak = tracemalloc.get_traced_memory()
            base, high = self._mem.pop()
            high = max(high, peak)
            span.peak_bytes = high - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], high)
            tracemalloc.reset_peak()

    @contextmanager
    def op(self):
        """Record spans and counts for the operation run inside the block."""
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self.ops += 1

    # -- reduction ------------------------------------------------------------

    def _has_ancestor(self, index: int, metric: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if NAMED_SPANS.get(self.spans[parent].name) == metric:
                return True
            parent = self.spans[parent].parent
        return False

    def metrics(self) -> dict[str, float]:
        """Per-op span times and call counts over every traced op."""
        n = max(self.ops, 1)
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_time = dict.fromkeys(LAYERS, 0.0)
        named = dict.fromkeys(NAMED_SPANS.values(), 0.0)
        general_calls = generators = 0
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            self_time[span.layer] += duration - child_time[i]
            metric = NAMED_SPANS.get(span.name)
            if metric is not None and not self._has_ancestor(i, metric):
                named[metric] += duration
            general_calls += span.name == GENERAL_SPAN
            generators += span.name == GENERATOR_SPAN
        decompositions = sum(self.decomposition_sides[side] for side in self.generator_sides)
        out = {f"{layer}.self_s": self_time[layer] / n for layer in LAYERS}
        out.update({metric: total / n for metric, total in named.items()})
        out["effective.general.calls"] = general_calls / n
        out.update({f"linalg.{kind}.calls": self.calls[kind] / n for kind in LINALG_KINDS})
        out["linalg.max_n"] = float(max(self.decomposition_sides, default=0))
        out["lindblad.decompositions_per_generator"] = (
            decompositions / generators if generators else 0.0
        )
        return out

    def peak_metrics(self) -> dict[str, float]:
        """Largest tracemalloc peak inside any span of each layer, in MB."""
        peak = dict.fromkeys(PEAK_LAYERS, 0)
        for span in self.spans:
            if span.layer in peak:
                peak[span.layer] = max(peak[span.layer], span.peak_bytes)
        return {f"{layer}.peak_mb": peak[layer] / MB for layer in PEAK_LAYERS}
