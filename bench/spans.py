"""Per-layer tracing of matslice from outside the package.

A :class:`Tracer` replaces every public function of the traced modules by a
wrapper that records a span around the call.  The replacement is made in the
namespace of every traced module and of the ``matslice`` package, because the
modules call each other through names they imported (``toda`` calls
``eigensystem`` through its own global, not through ``linalg``).  Nothing
under ``src/`` changes; leaving the ``with`` block restores the originals.

Spans are not kept one by one (a traced ``flow-plain`` pass makes about a
million calls); each wrapper adds its span to per-function totals as it
closes:

* ``calls``  -- completed calls, exceptions included;
* ``self_s`` -- wall time inside the call minus the time of wrapped calls
  made inside it;
* ``errors`` -- exceptions, counted once, at the innermost wrapped function
  they leave.

Time spent outside any span is the benchmark's own; ``root_s`` sums the
top-level spans, so ``root_s`` over the traced wall time is the share of the
workload the spans attribute to a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass

LAYERS = ("linalg", "slices", "jacobi", "toda", "polytope", "fileio", "generate", "cli")

# Functions whose calls and time are reported together under one name.
GROUPS = {"linalg.validate": ("linalg.as_square", "linalg.as_symmetric")}


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0

    def add(self, other: "Totals"):
        self.calls += other.calls
        self.self_s += other.self_s
        self.errors += other.errors


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: fn for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


def replace_everywhere(package, originals: dict, replacements: dict) -> list:
    """Point every name bound to an original function at its replacement, in
    the package namespace and in each of its modules.  Returns the undo list
    for :func:`restore`."""
    namespaces = [vars(package)] + [vars(module(package, layer)) for layer in LAYERS]
    by_id = {id(fn): key for key, fn in originals.items()}
    undo = []
    for ns in namespaces:
        for name, value in list(ns.items()):
            key = by_id.get(id(value))
            if key is not None:
                undo.append((ns, name, value))
                ns[name] = replacements[key]
    return undo


def module(package, layer: str):
    return importlib.import_module(f"{package.__name__}.{layer}")


def restore(undo: list):
    for ns, name, value in reversed(undo):
        ns[name] = value


def _path_size(arg) -> int:
    if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
        return os.path.getsize(arg)
    return 0


class Tracer:
    """Context manager that traces the public functions of matslice's layers."""

    def __init__(self, package):
        self.package = package
        self.totals: dict[str, Totals] = {}
        self.root_s = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.vertices_tried = 0
        self.vertices_accepted = 0
        self._stack: list[float] = []   # child time of each open span
        self._last_error = None
        self._undo: list = []

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, key: str, fn):
        totals = self.totals.setdefault(key, Totals())
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    totals.errors += 1
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                totals.calls += 1
                totals.self_s += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hook(self, key: str):
        """Counters taken at a layer boundary, from the call's arguments and result."""
        layer, _, name = key.partition(".")
        if layer == "fileio" and name.startswith("write_"):
            def after(args, result):
                self.bytes_written += _path_size(args[-1])
            return after
        if layer == "fileio" and name.startswith("read_"):
            def after(args, result):
                self.bytes_read += _path_size(args[0])
            return after
        if key == "polytope.accessible_vertices":
            def after(args, result):
                self.vertices_tried += math.factorial(len(result.lam))
                self.vertices_accepted += len(result)
            return after
        return None

    def __enter__(self):
        originals = {}
        for layer in LAYERS:
            for name, fn in public_functions(module(self.package, layer)).items():
                originals[f"{layer}.{name}"] = fn
        wrapped = {key: self._wrap(key, fn) for key, fn in originals.items()}
        self._undo = replace_everywhere(self.package, originals, wrapped)
        return self

    def __exit__(self, *exc_info):
        restore(self._undo)
        self._undo = []
        return False

    # -- results ---------------------------------------------------------------
    def function(self, key: str) -> Totals:
        """Totals of one function, or of a group named in GROUPS."""
        out = Totals()
        for member in GROUPS.get(key, (key,)):
            out.add(self.totals.get(member, Totals()))
        return out

    def layer(self, layer: str) -> Totals:
        out = Totals()
        for key, t in self.totals.items():
            if key.partition(".")[0] == layer:
                out.add(t)
        return out

    @property
    def accept_ratio(self) -> float:
        return self.vertices_accepted / self.vertices_tried if self.vertices_tried else 0.0
