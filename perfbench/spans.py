"""Span tracing of the package from outside its source.

``Tracer.install`` rebinds public functions and methods of ``areatrack`` to
wrappers that record one span per call: name, parent, start and end, plus
the index of the pass it belongs to. Every module-level binding of a
function is replaced, so a name imported with ``from .x import f`` is
traced at its call sites too. Spans stay in memory until the run ends.

Hot tiny functions (``iou``) are only counted: timing each call would cost
more than the call.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
from collections import defaultdict
from time import perf_counter_ns

NAME, PARENT, START, END, PASS, ERROR = range(6)


def _is_package_module(name: str) -> bool:
    return name == "areatrack" or name.startswith("areatrack.")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.probes: dict[str, list] = defaultdict(list)
        self.pass_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _timed(self, fn, name: str, probe=None):
        spans, stack, probes = self.spans, self._stack, self.probes[name]

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[END] = perf_counter_ns()
                rec[ERROR] = type(e).__name__
                stack.pop()
                raise
            rec[END] = perf_counter_ns()
            stack.pop()
            if probe is not None:
                probes.append(probe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def root(self, name: str):
        """The span of one whole pass; every layer span of the pass nests in it."""
        self.pass_id += 1
        rec = [name, -1, 0, 0, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = perf_counter_ns()
            self._stack.pop()

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper_for) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper_for(raw.__func__)))
            return
        wrapped = wrapper_for(raw)
        if isinstance(owner, type):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module function: replace it wherever the package bound it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not _is_package_module(mod_name):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def install(self, timed, counted=()) -> None:
        """timed: (name, owner, attr, probe); counted: (name, owner, attr)."""
        for name, owner, attr, probe in timed:
            self._rebind(owner, attr, lambda fn, n=name, p=probe: self._timed(fn, n, p))
        for name, owner, attr in counted:
            self._rebind(owner, attr, lambda fn, n=name: self._counted(fn, n))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reduction --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total ns, self ns (minus direct children), calls, errors."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"ns": 0, "self_ns": 0, "calls": 0, "errors": 0})
        for i, rec in enumerate(self.spans):
            t = out[rec[NAME]]
            dur = rec[END] - rec[START]
            t["ns"] += dur
            t["self_ns"] += dur - child_ns[i]
            t["calls"] += 1
            t["errors"] += rec[ERROR] is not None
        return out

    def write(self, path) -> None:
        """Gzipped CSV, one line per span: index, parent, pass, name, start_ns, end_ns, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,parent,pass,name,start_ns,end_ns,error\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i},{rec[PARENT]},{rec[PASS]},{rec[NAME]},{rec[START]},"
                         f"{rec[END]},{rec[ERROR] or ''}\n")
