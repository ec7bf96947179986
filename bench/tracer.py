"""Spans and counters at the quatcurves module boundaries, from outside the library.

A traced run replaces each wrapped function by a wrapper in every namespace
the library looks it up in at call time (the defining module, the modules
that import it by name, and the package itself), and restores the originals
afterwards.  A span records name, start, end, parent and instance; spans stay
in memory until the run ends.  The hottest field operations get counters
only, because a timed span per call would swamp the run.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import time
from dataclasses import dataclass, field

import quatcurves
from quatcurves import cli, curves, gf, polyring, shimura

PKG = quatcurves


@dataclass
class Target:
    """One wrapped function: its span name and every binding to replace.
    The first binding is the definition; without it the target is missing."""

    name: str
    bindings: tuple  # (namespace, attribute) pairs


SPAN_TARGETS = (
    Target("cli.main", ((cli, "main"),)),
    Target("shimura.classify_all", ((shimura, "classify_all"), (PKG, "classify_all"), (cli, "classify_all"))),
    Target("shimura.classify", ((shimura, "classify"), (PKG, "classify"), (cli, "classify"))),
    Target("shimura.fixed_point_count", ((shimura, "fixed_point_count"), (PKG, "fixed_point_count"), (cli, "fixed_point_count"))),
    Target("shimura.embedding_count", ((shimura, "embedding_count"), (PKG, "embedding_count"))),
    Target("curves.class_number", ((curves, "class_number"), (PKG, "class_number"), (shimura, "class_number"))),
    Target("curves.jacobian_order", ((curves, "jacobian_order"), (PKG, "jacobian_order"))),
    Target("curves.point_count", ((curves, "point_count"), (PKG, "point_count"))),
    Target("curves.quadratic_order_info", ((curves, "quadratic_order_info"), (PKG, "quadratic_order_info"), (shimura, "quadratic_order_info"))),
    Target("curves.cache.load", ((curves.ClassNumberCache, "load"),)),
    Target("curves.cache.save", ((curves.ClassNumberCache, "save"),)),
    Target("polyring.parse_poly", ((polyring, "parse_poly"), (PKG, "parse_poly"), (cli, "parse_poly"))),
    Target("polyring.place", ((polyring.Place, "__post_init__"),)),
    Target("polyring.is_irreducible", ((polyring, "is_irreducible"), (PKG, "is_irreducible"))),
    Target("polyring.residue_symbol", ((polyring, "residue_symbol"), (PKG, "residue_symbol"), (shimura, "residue_symbol"))),
    Target("polyring.is_squarefree", ((polyring, "is_squarefree"), (PKG, "is_squarefree"), (curves, "is_squarefree"))),
)

# Counter-only targets.  is_square is wrapped on every field class that
# defines it, so an override added later is still counted.
COUNTER_TARGETS = (
    Target("gf.ext_mul", ((gf.ExtensionField, "mul"),)),
    Target("gf.ext_inv", ((gf.ExtensionField, "inv"),)),
    Target("gf.is_square", tuple(
        (cls, "is_square") for cls in (gf.FiniteField, gf.PrimeField, gf.ExtensionField)
    )),
)


def _bound(namespace, attr):
    if isinstance(namespace, type):
        return namespace.__dict__.get(attr)
    return getattr(namespace, attr, None)


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # (id, parent, name, t0_ns, t1_ns, instance)
    stats: dict = field(default_factory=dict)  # name -> SpanStats
    counts: dict = field(default_factory=dict)  # counter name -> [calls]
    missing: list = field(default_factory=list)
    instance: int = -1
    # derived counts recorded at the boundaries
    squarefree_inputs: set = field(default_factory=set)
    class_number_inputs: set = field(default_factory=set)
    points_enumerated: int = 0
    embedding_zero: int = 0
    cache_records: int = 0
    nested_mul: int = 0
    _gf_depth: int = 0

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._stack = [[0, 0]]  # frames of [child ns, span id]; 0 is the root
        self._saved = []  # (namespace, attribute, original)

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        for target in SPAN_TARGETS:
            self._wrap(target, self._span_wrapper)
        for target in COUNTER_TARGETS:
            self._wrap(target, self._counter_wrapper)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, target: Target, make) -> None:
        if _bound(*target.bindings[0]) is None:
            self.missing.append(target.name)
            return
        wrappers = {}  # one wrapper per distinct original function
        for namespace, attr in target.bindings:
            original = _bound(namespace, attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = make(target.name, original)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, wrappers[id(original)])

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one instance."""
        frame = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, t0, time.perf_counter_ns())

    def _open(self):
        frame = [0, next(self._ids)]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self._stack.pop()
        parent = self._stack[-1]
        duration = t1 - t0
        parent[0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_ns += duration - frame[0]
        self.spans.append((frame[1], parent[1], name, t0, t1, self.instance))

    def _span_wrapper(self, name, fn):
        hook = _HOOKS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if hook is not None:
                before = tracer.stats.get("curves.class_number")
                before = before.calls if before else 0
            frame = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, t0, clock())
            if hook is not None:
                hook(tracer, args, kwargs, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ---------------------------------------------------------------

    def _counter_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])
        tracer = self
        if name == "gf.ext_mul":
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if tracer._gf_depth:
                    tracer.nested_mul += 1
                return fn(*args, **kwargs)
        else:
            # inv and is_square multiply internally; those muls are counted
            # as nested so the estimate does not charge them twice
            def wrapper(*args, **kwargs):
                cell[0] += 1
                tracer._gf_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._gf_depth -= 1
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as handle:
            for sid, parent, name, t0, t1, inst in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start_ns": t0,
                     "end_ns": t1, "instance": inst}, separators=(",", ":")) + "\n")


# -- hooks: counts recorded where the work happens ------------------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _on_squarefree(tracer, args, kwargs, result, _before):
    tracer.squarefree_inputs.add(_arg(args, kwargs, 0, "a"))


def _on_class_number(tracer, args, kwargs, result, _before):
    tracer.class_number_inputs.add(_arg(args, kwargs, 0, "a"))


def _on_point_count(tracer, args, kwargs, result, _before):
    f = _arg(args, kwargs, 0, "f")
    tracer.points_enumerated += f.field.q ** _arg(args, kwargs, 1, "m", 1)


def _on_embedding_count(tracer, args, kwargs, result, before):
    after = tracer.stats.get("curves.class_number")
    if result == 0 and (after.calls if after else 0) == before:
        tracer.embedding_zero += 1


def _on_cache_load(tracer, args, kwargs, result, _before):
    tracer.cache_records += len(args[0])


_HOOKS = {
    "polyring.is_squarefree": _on_squarefree,
    "curves.class_number": _on_class_number,
    "curves.point_count": _on_point_count,
    "shimura.embedding_count": _on_embedding_count,
    "curves.cache.load": _on_cache_load,
}
