"""Outside-in tracing of the cycloperm modules.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, on every module attribute that holds the function: code that
looked the name up at import (`zonotope.det_rows`, `linkage.set_partitions`)
calls the wrapper just like code that looks it up at call time
(`intlin.det_rows` inside `semiopen_lattice_count`).  Nothing inside the
package changes.

Each wrapped call pushes a frame; its self time is its duration minus the
time its wrapped children took.  Generator functions are timed per
resumption, so the consumer's self time excludes the enumeration.  Every
call updates the per-name aggregates (calls, busy, self, yielded); the
first SPAN_CAP calls of a name in one query also keep a span (id, parent,
query, name, start, end, self).  Later calls of a hot kernel such as
`det_rows` (up to ~380k per query) are aggregated only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("intlin", "zonotope", "forests", "linkage", "oracle", "verification", "cli")
SPAN_CAP = 200

_BRUTE_VOLUME = "zonotope.volume_bruteforce"
_BRUTE_LATTICE = "zonotope.lattice_count_bruteforce"
_SEMIOPEN = "intlin.semiopen_lattice_count"


class _Frame:
    __slots__ = ("name", "span", "start", "child")

    def __init__(self, name: str, span: int | None, start: float):
        self.name = name
        self.span = span
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s, yielded]
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.yields: dict[tuple[str, str], int] = {}  # (resumer, generator) -> items
        self.spans: list[tuple] = []
        self.brute_dets = 0
        self.brute_nonzero_dets = 0
        self.admissible_partitions = 0
        self._query = None
        self._per_query: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._next_span = 0

    # --- queries -------------------------------------------------------

    def begin_query(self, query_id) -> None:
        self._query = query_id
        self._per_query = {}
        self._stack = [self._open("query", None)]

    def end_query(self) -> None:
        root = self._stack.pop()
        end = time.perf_counter()
        self.spans.append((root.span, None, self._query, "query", root.start, end, end - root.start - root.child))
        self._query = None

    def counters(self) -> dict[str, int]:
        """Calls and yielded items per name, for reconciling one query's work."""
        out = {}
        for name, (calls, _, _, yielded) in self.stats.items():
            out[f"{name}.calls"] = calls
            if yielded:
                out[f"{name}.yielded"] = yielded
        return out

    # --- frames --------------------------------------------------------

    def _open(self, name: str, parent: _Frame | None, *, span: bool = True) -> _Frame:
        span_id = None
        if span:
            seen = self._per_query.get(name, 0)
            self._per_query[name] = seen + 1
            if parent is None or seen < SPAN_CAP:
                span_id = self._next_span
                self._next_span += 1
        return _Frame(name, span_id, time.perf_counter())

    def _enter(self, name: str, *, span: bool = True) -> _Frame:
        if not self._stack:  # a call outside any query
            self.begin_query(None)
        frame = self._open(name, self._stack[-1], span=span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, *, count_call: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        parent.child += duration
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = [0, 0.0, 0.0, 0]
        stat[1] += duration
        stat[2] += duration - frame.child
        if count_call:
            stat[0] += 1
            key = (parent.name, frame.name)
            self.edges[key] = self.edges.get(key, 0) + 1
        if frame.span is not None:
            owner = next(f.span for f in reversed(self._stack) if f.span is not None)
            self.spans.append(
                (frame.span, owner, self._query, frame.name, frame.start, end, duration - frame.child)
            )

    # --- wrappers ------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, count_call=True)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                self.begin_query(None)
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0, 0]
            stat[0] += 1
            key = (self._stack[-1].name, name)
            self.edges[key] = self.edges.get(key, 0) + 1
            return self._iterate(name, fn(*args, **kwargs), stat)

        return wrapper

    def _iterate(self, name: str, it, stat: list):
        try:
            while True:
                frame = self._enter(name, span=False)  # resumptions: aggregates only
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, count_call=False)
                stat[3] += 1
                key = (self._stack[-1].name, name)
                self.yields[key] = self.yields.get(key, 0) + 1
                yield item
        finally:
            it.close()

    def install(self) -> None:
        """Wrap the public functions of every layer module, on every
        cycloperm module attribute that refers to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cycloperm.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(value):
                    wrappers[value] = self._wrap_generator(name, value)
                else:
                    wrappers[value] = self._wrap_function(name, value)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cycloperm" or modname.startswith("cycloperm.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    # --- output --------------------------------------------------------

    def dump(self, path, extra: dict | None = None) -> None:
        data = {
            "stats": self.stats,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "yields": [[p, c, n] for (p, c), n in self.yields.items()],
            "brute_dets": self.brute_dets,
            "brute_nonzero_dets": self.brute_nonzero_dets,
            "admissible_partitions": self.admissible_partitions,
            "extra": extra or {},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _observe_det(tracer: Tracer, args, result) -> None:
    # Determinants taken by the two brute routes: directly by the volume
    # route, through semiopen_lattice_count by the lattice route.
    stack = tracer._stack
    parent = stack[-1].name
    if parent == _BRUTE_VOLUME or (
        parent == _SEMIOPEN and len(stack) > 1 and stack[-2].name == _BRUTE_LATTICE
    ):
        tracer.brute_dets += 1
        if result != 0:
            tracer.brute_nonzero_dets += 1


def _observe_f_vector(tracer: Tracer, args, result) -> None:
    # f[k] counts (n-k)! cyclic arrangements of each admissible partition
    # into n+1-k blocks.
    n = len(result) + 1
    tracer.admissible_partitions += sum(f // math.factorial(n - k) for k, f in enumerate(result))


_OBSERVERS = {
    "intlin.det_rows": _observe_det,
    "linkage.f_vector": _observe_f_vector,
}
