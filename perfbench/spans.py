"""Call spans for one traced subsym request, recorded from outside the package.

`Tracer.install` wraps the public functions and methods of each subsym layer
module, plus the arithmetic operators of its classes, and re-points every
module global that names a wrapped function (so `decompose`'s by-name import
of `class_multiply` is traced too).  Each call appends one span -- name id,
parent span index, start, end -- to flat arrays held in memory; `dump` writes
them out once, `load` reads them back, and `aggregate` turns them into calls
and self time (duration minus the duration of child spans) per span name.
`restore` puts every original back.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time

# The layer modules, in dependency order.  `cli` and `report` are left
# unwrapped: their time, with interpreter start-up and imports, is the glue.
LAYERS = (
    "scalars",
    "rings",
    "weyl",
    "linalg",
    "ambient",
    "boundary",
    "symbols",
    "classalg",
    "decompose",
)

# Operators wrapped on every layer class; other dunders (hash, eq, bool) are
# container plumbing, not arithmetic.
OPERATORS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)


def span_name(layer: str, qualname: str) -> str:
    """'rings', 'LaurentPoly.__mul__' -> 'rings.LaurentPoly.mul'."""
    return layer + "." + ".".join(part.strip("_") for part in qualname.split("."))


def _observe_rref(counters, args):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    counters["linalg.rref.cells"] = counters.get("linalg.rref.cells", 0) + len(rows) * cols
    counters["linalg.rref.max_cols"] = max(counters.get("linalg.rref.max_cols", 0), cols)


# Shape counters taken from a call's arguments, by span name.
OBSERVERS = {"linalg.rref": _observe_rref}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}

    def wrap(self, name: str, fn):
        """Return a wrapper of `fn` that records one span per call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        stack, clock = self.stack, self.clock
        observe = OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            if observe is not None:
                observe(counters, args)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        return wrapper

    def _patch(self, target, key, new):
        self._patches.append((target, key, vars(target)[key]))
        setattr(target, key, new)

    def install(self, modules):
        """Wrap the layer modules' functions; `modules` maps layer name to module
        and may hold extra modules (cli, report) whose globals are re-pointed."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            if layer not in LAYERS:
                continue
            for key, val in list(vars(mod).items()):
                if key.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(val):
                    self._install_class(layer, val)
                elif callable(val) and not inspect.isgeneratorfunction(val):
                    name = span_name(layer, key)
                    wrapped[id(val)] = (val, self.wrap(name, val))
                    if hasattr(val, "cache_info"):
                        self._cached[name] = val
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, key, hit[1])

    def _install_class(self, layer, cls):
        for key, raw in list(vars(cls).items()):
            if key.startswith("_") and key not in OPERATORS:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapper = self.wrap(span_name(layer, f"{cls.__name__}.{key}"), fn)
            self._patch(cls, key, kind(wrapper) if kind else wrapper)

    def restore(self):
        """Put every original back and record lru_cache statistics."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self.counters[name + ".hits"] = info.hits
            self.counters[name + ".misses"] = info.misses
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def dump(self, path):
        """Write the spans once: a JSON header line, then the four arrays."""
        header = {"names": self.names, "n": len(self.name_id), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.t0, self.t1):
                arr.tofile(fh)


def load(path):
    """Read a dump back: (names, name_id, parent, t0, t1, counters)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array.array(code)
            arr.fromfile(fh, header["n"])
            arrays.append(arr)
    return (header["names"], *arrays, header["counters"])


def aggregate(names, name_id, parent, t0, t1):
    """Calls and self time per span name, and the time the root spans cover.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans sum to the covered time.
    Returns ({name: [calls, self_s]}, covered_s).
    """
    n = len(name_id)
    dur = [t1[i] - t0[i] for i in range(n)]
    child = [0.0] * n
    covered = 0.0
    for i in range(n):
        p = parent[i]
        if p < 0:
            covered += dur[i]
        else:
            child[p] += dur[i]
    out: dict[str, list] = {}
    for i in range(n):
        row = out.setdefault(names[name_id[i]], [0, 0.0])
        row[0] += 1
        row[1] += dur[i] - child[i]
    return out, covered
