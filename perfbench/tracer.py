"""Spans around the calls that cross a layer boundary of dnls_nflab.

A layer is one module of the package.  The tracer records a span (name,
start, end, parent) for

* every call the benchmark makes through ``Tracer.call``;
* every call a module makes into a public function of another module, by
  replacing that imported name in the calling module's namespace with a
  recording wrapper (the package's source files are not touched);
* the few same-module entry points listed in ``INTRA_MODULE``, whose time a
  per-layer metric needs on its own.

Generator functions are left unwrapped: their work happens in the consumer,
so a span around the call would be empty.  ``NullTracer`` has the same
interface and records nothing; the untraced runs use it.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "dnls_nflab"

# same-module calls that carry a per-layer metric (flows.flow_time_one_s)
INTRA_MODULE = {"flows": ("flow_time_one_vec",)}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class NullTracer:
    enabled = False

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def block(self, name: str):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.hooks: dict = {}  # span name -> callback(span index, args, kwargs, result)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, fn, *args, **kwargs):
        return self.wrap(fn)(*args, **kwargs)

    @contextmanager
    def block(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn):
        name = span_name(fn)

        def recorded(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            hook = self.hooks.get(name)
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return recorded

    def install(self, modules: dict) -> None:
        """Wrap layer-crossing names in each module's namespace.

        ``modules`` maps layer name -> imported module object.
        """
        for layer, mod in modules.items():
            own = set(INTRA_MODULE.get(layer, ()))
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                home = obj.__module__ or ""
                crossing = home.startswith(PACKAGE + ".") and home != mod.__name__
                if crossing or (home == mod.__name__ and attr in own):
                    setattr(mod, attr, self.wrap(obj))

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str, window: tuple[int, int]) -> list[float]:
        """Durations in seconds of the spans called ``name`` that start in window."""
        return [(t1 - t0) * 1e-9 for n, t0, t1, _ in self.spans if n == name and window[0] <= t0 <= window[1]]

    def summary(self, window: tuple[int, int]) -> dict:
        """Per-name and per-layer totals and self times for the spans that
        start inside ``window`` (perf_counter_ns bounds), plus the time the
        top-level spans of that window cover."""
        child_ns = [0] * len(self.spans)
        for n, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        by_name: dict[str, dict] = {}
        by_layer: dict[str, float] = {}
        covered_ns = 0
        inside = set()
        for sid, (n, t0, t1, parent) in enumerate(self.spans):
            if not window[0] <= t0 <= window[1]:
                continue
            inside.add(sid)
            self_s = (t1 - t0 - child_ns[sid]) * 1e-9
            rec = by_name.setdefault(n, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += (t1 - t0) * 1e-9
            rec["self_s"] += self_s
            layer = n.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + self_s
            if parent not in inside:
                covered_ns += t1 - t0
        return {
            "spans": len(inside),
            "covered_s": covered_ns * 1e-9,
            "self_s_by_layer": dict(sorted(by_layer.items())),
            "by_name": dict(sorted(by_name.items())),
        }

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "format": "spans: [name index, start_ns, end_ns, parent span or -1]",
                    "names": names,
                    "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
