"""In-memory span recording around the public calls of stoclim.

The tracer replaces selected public functions of the already imported
``stoclim`` modules by thin wrappers defined here, so every call made
through a module attribute -- from the benchmark or from inside the
library -- records a span (name, start, end, parent span, pass id).  No
program file changes; :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory until the run ends and are then written out as JSON.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

#: Traced calls: (module, attribute, span name).  ``Class.attr`` patches a
#: method or cached property on the class.  Span names are the per-layer
#: metric prefixes, named after the package module that owns the call.
TRACED_CALLS = (
    ("stoclim.operators", "spectral_decompose", "operators.spectral_decompose"),
    ("stoclim.operators", "bohr_frequencies", "operators.bohr_frequencies"),
    ("stoclim.bath", "correlation_table", "bath.correlation_table"),
    ("stoclim.generator", "build_generator", "generator.build_generator"),
    ("stoclim.generator", "Generator.dense_adjoint", "generator.dense_adjoint"),
    ("stoclim.generator", "apply_adjoint", "generator.apply_adjoint"),
    ("stoclim.evolution", "evolve", "evolution.evolve"),
    ("stoclim.evolution", "stationary_state", "evolution.stationary_state"),
    ("stoclim.evolution", "diagonal_restriction", "evolution.diagonal_restriction"),
    ("stoclim.evolution", "ClassicalKineticSystem.evolve", "evolution.kinetic_evolve"),
    ("stoclim.glauber", "classical_glauber_generator", "glauber.classical_generator"),
    ("stoclim.glauber", "quantum_glauber_generator", "glauber.quantum_generator"),
    ("stoclim.config", "load_config", "config.load_config"),
    ("stoclim.cli", "main", "cli.main"),
)

#: Calls that are counted, not spanned: a span per principal-value
#: integral would move the quadrature time out of ``bath.correlation_table``.
COUNTED_CALLS = (("stoclim.bath", "pv_lamb_shift", "bath.pv_integrals"),)

#: Span names whose return value is kept until the pass ends, so counts can
#: be derived from it outside the timed interval.
KEEP_RESULT = frozenset(
    {
        "operators.bohr_frequencies",
        "generator.build_generator",
        "generator.dense_adjoint",
        "glauber.classical_generator",
    }
)

ROOT = "pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(s.start, s.end, children.get(k, ()))
        for k, s in enumerate(spans)
    ]


class Tracer:
    """Records spans and call counts; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.pass_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, result=None) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if span.name in KEEP_RESULT:
            span.result = result
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self._close(idx, result)

    def count(self, name: str) -> None:
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + 1

    def run_pass(self, pass_id: str, fn: Callable, *args):
        """Run one pass under a root span, with the wrappers installed only
        for its duration; returns (result, duration)."""
        self.pass_id = pass_id
        self.install()
        try:
            idx = self._open(ROOT)
            try:
                result = fn(*args)
            finally:
                self._close(idx)
        finally:
            self.uninstall()
        return result, self.spans[idx].duration

    def pass_spans(self, pass_id: str) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    # -- patching --------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        # ``from .x import f`` binds f in every importing module, so the
        # replacement goes into each stoclim namespace holding the original.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stoclim" or mod_name.startswith("stoclim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        """Wrap every traced and counted call in the loaded stoclim modules."""
        for mod_name, attr, name in TRACED_CALLS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(
                        self._span_wrapper(name, original.func)
                    )
                    replacement.__set_name__(cls, meth)
                else:
                    replacement = self._span_wrapper(name, original)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, replacement)
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self._span_wrapper(name, original))
        for mod_name, attr, name in COUNTED_CALLS:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(original, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write all spans (with self times) and counts as one JSON file."""
        selfs = self_times(self.spans)
        doc = {
            "spans": [
                {
                    "id": k,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self": selfs[k],
                    "parent": s.parent,
                    "pass": s.pass_id,
                }
                for k, s in enumerate(self.spans)
            ],
            "counts": [
                {"pass": p, "name": n, "count": c} for (p, n), c in self.counts.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
