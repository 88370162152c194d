"""Outside-in tracing of fracground's layers.

The library carries no instrumentation, so the wrappers live here.  While
installed, a :class:`Tracer` replaces

- every public function of ``fracground.{grid,model,energy,solver,
  experiments,cli}``, in every fracground module that bound it by name at
  import time (``solver`` imports ``energy`` and ``gradient`` that way,
  ``experiments`` and ``cli`` import the solvers that way, and the package
  attribute ``fracground.energy`` is the function, not the submodule);
- ``NonlinearitySpec.f``, ``.F`` and ``.nq`` on the class;
- ``fftn``, ``ifftn``, ``rfftn`` and ``irfftn`` of ``scipy.fft`` and
  ``numpy.fft``, all recorded as the layer ``grid.fft``, so the count keeps
  working if the library moves to real transforms.

Each wrapped call appends a span (name, start, end, parent, op) to an
in-memory list and attaches its count (points, bytes, iterations) at the
same boundary.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np
import numpy.fft
import scipy.fft

MODULES = ("grid", "model", "energy", "solver", "experiments", "cli")
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")
# Span names that differ from "<module>.<function>".
RENAMED = {
    "model.validate_assumptions": "model.validate",
    "solver.nehari_project": "solver.project",
}
OP_SPAN = "bench.op"
EXPERIMENT_DRIVERS = (
    "experiments.lambda_sweep",
    "experiments.compare_periodic_limit",
    "experiments.decoupling_limit",
)


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info", "failed")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None
        self.failed = False


def _points(args, kwargs, out):
    return int(np.size(args[1]))


def _fft_bytes(args, kwargs, out):
    return int(getattr(args[0], "nbytes", 0)) + int(out.nbytes)


def _solve_info(args, kwargs, out):
    init = kwargs["init"] if "init" in kwargs else (args[1] if len(args) > 1 else None)
    return out.iterations, init is not None


INFO = {
    "model.f": _points,
    "model.F": _points,
    "grid.fft": _fft_bytes,
    "solver.solve_ground_state": _solve_info,
}


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patched = []
        self.names = {OP_SPAN}

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                span.failed = True
                raise
            else:
                span.end = perf_counter()
                if info is not None:
                    span.info = info(args, kwargs, out)
                return out
            finally:
                stack.pop()

        return traced

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"fracground.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(RENAMED.get(name, name), obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "fracground" and not modname.startswith("fracground."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        nl_class = importlib.import_module("fracground.model").NonlinearitySpec
        for attr in ("f", "F", "nq"):
            self._patch(nl_class, attr, self._wrap(f"model.{attr}", vars(nl_class)[attr]))
        for mod in (scipy.fft, numpy.fft):
            for attr in FFT_FUNCTIONS:
                self._patch(mod, attr, self._wrap("grid.fft", getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_op(self, index: int, fn):
        """Call fn() as op ``index`` under a root span; the tracer must be installed."""
        self._op = index
        try:
            return self._wrap(OP_SPAN, fn)()
        finally:
            self._op = -1

    def dump(self) -> dict:
        """Spans as plain lists, for writing out when the benchmark ends."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s.name], s.parent, s.op, s.start, s.end, s.info, s.failed]
            for s in self.spans
        ]
        return {
            "fields": ["name", "parent", "op", "start", "end", "info", "failed"],
            "names": names,
            "spans": rows,
        }


# Figures summarize() derives beyond "<span>.calls", ".self_s" and ".failed".
DERIVED = (
    "model.f.points",
    "model.F.points",
    "grid.fft.bytes_computed",
    "solver.project.f_calls",
    "solver.outer_iters",
    "experiments.self_s",
    "experiments.solves",
    "experiments.scalar_iters",
    "experiments.warm_iters",
    # Measured outside the library, by the op, from the files it wrote.
    "cli.bytes_written",
)


def check_nesting(spans) -> None:
    """Raise unless every span lies inside its parent and each parent's
    children follow one another without overlap, as calls on one thread do."""
    last_end = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise RuntimeError(f"span {i} ({s.name}) ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end):
            raise RuntimeError(f"span {i} ({s.name}) lies outside its parent {p.name}")
        if s.start < last_end.get(s.parent, p.start):
            raise RuntimeError(f"span {i} ({s.name}) overlaps an earlier sibling")
        last_end[s.parent] = s.end


def summarize(spans, names) -> dict:
    """Layer figures of each op, keyed by op index.

    ``names`` are the span names the tracer wrapped; every figure of every
    name is present in each op's dict, zero if the op never called it.
    A span's self time is its duration minus the time its child spans
    cover; calls run on one thread, so children never overlap and their
    durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start

    def ancestors(i):
        while i >= 0:
            i = spans[i].parent
            if i >= 0:
                yield spans[i].name

    zero = dict.fromkeys(DERIVED, 0.0)
    for name in names:
        zero.update(dict.fromkeys((f"{name}.calls", f"{name}.self_s", f"{name}.failed"), 0.0))
    ops = {}
    for i, s in enumerate(spans):
        m = ops.setdefault(s.op, dict(zero))
        own = s.end - s.start - child[i]
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += own
        if s.failed:
            m[f"{s.name}.failed"] += 1
        if s.name.startswith("experiments."):
            m["experiments.self_s"] += own
        if s.name in ("model.f", "model.F"):
            m[f"{s.name}.points"] += s.info or 0
            if s.name == "model.f" and s.parent >= 0 and spans[s.parent].name == "solver.project":
                m["solver.project.f_calls"] += 1
        elif s.name == "grid.fft":
            m["grid.fft.bytes_computed"] += s.info or 0
        elif s.name == "solver.solve_ground_state" and not s.failed:
            iters, warm = s.info
            m["solver.outer_iters"] += iters
            chain = set(ancestors(i))
            if chain.intersection(EXPERIMENT_DRIVERS):
                m["experiments.solves"] += 1
            if "solver.solve_scalar_ground_state" in chain:
                m["experiments.scalar_iters"] += iters
            elif warm and spans[s.parent].name in EXPERIMENT_DRIVERS:
                m["experiments.warm_iters"] += iters

    for m in ops.values():
        project = m["solver.project.calls"]
        attempts = project - m["solver.solve_ground_state.calls"]
        drivers = sum(m[f"{d}.calls"] for d in EXPERIMENT_DRIVERS)
        m["solver.project.f_calls_per_call"] = m["solver.project.f_calls"] / project if project else 0.0
        m["solver.accept_ratio"] = m["solver.outer_iters"] / attempts if attempts > 0 else 0.0
        m["experiments.solves_per_call"] = m["experiments.solves"] / drivers if drivers else 0.0
    return ops
