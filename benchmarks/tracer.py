"""Outside-in span tracing of the ``seakit`` layers.

The tracer wraps the public functions of each layer module, plus the
methods of the model context classes, from outside the package.  Every
binding of a wrapped function in every loaded ``seakit`` namespace is
replaced, because ``from .linalg import eigh`` binds the same function
object separately in ``matrices``, ``spectral`` and ``verify``; patching
one namespace would miss most calls.

Spans (name, start, end, parent) are kept in memory in flat arrays and
analysed after the run.  A span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Layer modules, in dependency order.  ``config`` does no work.
LAYERS = ("linalg", "matrices", "fuzzy", "tables", "spectral", "verify",
          "report", "cli")

# Engine context classes whose methods are wrapped as class attributes.
CONTEXT_CLASSES = (("spectral", "MatrixContext"), ("fuzzy", "FuzzyContext"))

EIGH = "linalg.eigh"


class Tracer:
    """Flat in-memory span store; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, note=None):
        """Wrapper recording one span per call; ``note(result)``, if given,
        is stored in ``notes`` under the span's index."""
        nid = self.intern(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        notes, stack = self.notes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (used for request roots)."""
        return self.wrap(fn, name)(*args, **kwargs)


class Installation:
    """Wrappers installed into the loaded ``seakit`` package."""

    def __init__(self):
        self.wrapped: dict[str, object] = {}     # span name -> original
        self._wrapper_of: dict[object, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()


def seakit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "seakit"
                                  or name.startswith("seakit."))]


def _public_functions(owner, module_name: str):
    for attr, obj in list(vars(owner).items()):
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module_name):
            yield attr, obj


def install(tracer: Tracer, notes: dict | None = None) -> Installation:
    """Wrap every layer's public functions and rebind every alias.

    ``notes`` maps span names to a function of the call's result whose value
    is kept per span.  Layers or context classes missing from the code under
    test are skipped; ``missing_targets`` reports which named metrics they
    leave empty.
    """
    notes = notes or {}
    inst = Installation()
    for layer in LAYERS:
        mod = sys.modules.get(f"seakit.{layer}")
        if mod is None:
            continue
        for attr, fn in _public_functions(mod, mod.__name__):
            name = f"{layer}.{attr}"
            inst.wrapped[name] = fn
            inst._wrapper_of[fn] = tracer.wrap(fn, name, notes.get(name))
    for layer, cls_name in CONTEXT_CLASSES:
        cls = getattr(sys.modules.get(f"seakit.{layer}"), cls_name, None)
        if cls is None:
            continue
        for attr, fn in _public_functions(cls, cls.__module__):
            name = f"{layer}.{cls_name}.{attr}"
            inst.wrapped[name] = fn
            wrapper = tracer.wrap(fn, name, notes.get(name))
            inst._rebound.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
    for mod in seakit_modules():
        for attr, obj in list(vars(mod).items()):
            wrapper = (inst._wrapper_of.get(obj) if inspect.isfunction(obj)
                       else None)
            if wrapper is not None:
                inst._rebound.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    return inst


def unwrapped_bindings(inst: Installation) -> list[str]:
    """Self-test: every place a ``seakit`` module or class still holds an
    original (unwrapped) function.  Empty when the installation is whole."""
    originals = {id(fn) for fn in inst.wrapped.values()}
    leftovers = []
    for mod in seakit_modules():
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                leftovers.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    if id(cobj) in originals:
                        leftovers.append(f"{mod.__name__}.{attr}.{cattr}")
    return sorted(set(leftovers))


def missing_targets(inst: Installation, targets) -> list[str]:
    return sorted(t for t in targets if t not in inst.wrapped)


# ---------------------------------------------------------------------------
# analysis


class Spans:
    """Read-only numpy view of a tracer's spans with derived columns."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        self.start = start.copy()
        self.duration = end - start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.duration[has_parent],
                                 minlength=len(self.parent))
        self.self_time = self.duration - child_time

    def __len__(self) -> int:
        return len(self.name_id)

    def ids(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            return -1

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self.ids(name)

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def below(self, name: str, lo: int, hi: int) -> np.ndarray:
        """For spans lo..hi-1 (whole requests), how many ``name`` spans sit
        beneath each one at any depth.  Exact, from the parent links."""
        nid = self.ids(name)
        count = np.zeros(hi - lo, dtype=np.int64)
        parent = self.parent
        name_id = self.name_id
        for i in range(hi - 1, lo - 1, -1):
            p = parent[i]
            if p >= lo:
                count[p - lo] += count[i - lo] + (name_id[i] == nid)
        return count

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=self.name_id, parent=self.parent,
                            start=self.start, duration=self.duration)
