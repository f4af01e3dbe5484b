"""Span tracing of the package's layers from outside the package.

`Tracer.install` rebinds every public function of each layer module, in
every `graphtower.*` module that imports it, to a wrapper that records a
span (name, start, end, parent span, job id) and accumulates calls,
inclusive time and self time per name.  Methods of the hot arithmetic
classes are wrapped on the class.  `Tracer.uninstall` restores the
original bindings.  Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Layer modules whose public module-level functions are wrapped.
LAYER_MODULES = ("graphs", "groups", "cyclotomic", "polynomials", "linalg",
                 "grouprings", "voltage", "jacobian", "zeta", "iwasawa", "cli")

# Classes whose methods are wrapped on the class: (module, class, methods);
# None wraps every public method plus the arithmetic dunders.
LAYER_CLASSES = (
    ("cyclotomic", "CyclotomicInteger", None),
    ("groups", "TowerGroupSpec", ("multiply",)),
    ("polynomials", "PolynomialRing", None),
    ("polynomials", "LaurentRing", None),
)

_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")

_SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "job")


class Tracer:
    """Per-name counters and an in-memory span log for one traced run."""

    def __init__(self) -> None:
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # flat rows of _SPAN_FIELDS
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, hook, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        spans = self.spans
        span_id = len(spans) // 5
        spans.extend((self._name_ids[name], 0, 0, parent, self.job))
        frame = [span_id, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            base = span_id * 5
            spans[base + 1] = start
            spans[base + 2] = end
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            if failed:
                self.errors[name] += 1
        if hook is not None:
            hook(self.extra, args, result)
        return result

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        call = self._call
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            return call(name, hook, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function binding and the listed class methods."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "graphtower" or name.startswith("graphtower.")}
        for short in LAYER_MODULES:
            module = package[f"graphtower.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn) or
                        fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for mod in package.values():
                    if vars(mod).get(attr) is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for short, cls_name, methods in LAYER_CLASSES:
            cls = getattr(package[f"graphtower.{short}"], cls_name)
            if methods is None:
                methods = [m for m in vars(cls)
                           if not m.startswith("_") or m in _DUNDERS]
            for method in methods:
                raw = inspect.getattr_static(cls, method)
                name = f"{short}.{cls_name}.{method}"
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__))
                elif inspect.isfunction(raw):
                    replacement = self._wrap(name, raw)
                else:
                    continue
                self._restore.append((cls, method, raw))
                setattr(cls, method, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // 5

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose parent span is named parent_name."""
        spans = self.spans
        parent_id = self._name_ids.get(parent_name)
        child_id = self._name_ids.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        count = 0
        for base in range(0, len(spans), 5):
            parent = spans[base + 3]
            if spans[base] == child_id and parent >= 0 and \
                    spans[parent * 5] == parent_id:
                count += 1
        return count

    def write(self, directory: Path) -> None:
        """Dump the span log: a JSON header and the raw int64 rows."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spans.json").write_text(json.dumps(
            {"fields": _SPAN_FIELDS, "names": self.names,
             "count": self.span_count(), "dtype": "int64",
             "byteorder": sys.byteorder}, indent=1))
        with open(directory / "spans.bin", "wb") as fh:
            self.spans.tofile(fh)


# -- per-name hooks: extra work counters derived from arguments ------------

def _dim(extra, args, result, key):
    extra[key] += len(args[0])


def _exact_div(extra, args, result):
    other = args[1]
    if any(other.coeffs[1:]):
        extra["cyclotomic.exact_div.nonrational"] += 1


def _derive(extra, args, result):
    extra["voltage.derive.cover_vertices"] += len(result.graph.vertices)


HOOKS = {
    "linalg.smith_invariant_factors":
        lambda e, a, r: _dim(e, a, r, "linalg.smith_invariant_factors.dim_sum"),
    "linalg.det_int": lambda e, a, r: _dim(e, a, r, "linalg.det_int.dim_sum"),
    "cyclotomic.CyclotomicInteger.exact_div": _exact_div,
    "voltage.derive": _derive,
}
