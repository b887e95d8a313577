"""Layer tracing installed from the benchmark's own files.

``Tracer`` wraps the functions and methods of each screwalg module, and
``enable`` rebinds every name that refers to them, in the package namespace and in
every module that took them with ``from .x import y``, so calls between
layers are seen as well as calls from the benchmark. Each wrapped call is a
span; a layer's self time is the time during which one of its functions is
the innermost open span, i.e. its spans minus the child spans of other
layers. Spans stay in memory and are written out when the run ends.

Wrapped, per module: functions defined in it that are public or imported by
another screwalg module; and, of each class defined in it, the public
methods and properties, ``__init__``, the arithmetic operators, and the
constructors ``Dual.__post_init__``, ``DualVec3/DualMat3.__init__`` and
``._raw`` (counted as objects, not calls). Two hooks outside screwalg:
argparse (``cli._build_parser`` and ``ArgumentParser.parse_args``) is its own
layer, and ``numpy.linalg.lstsq`` counts the rows the oracle passes to it.
"""

from __future__ import annotations

import argparse
import enum
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("dual", "linalg", "geometry", "theorems", "oracle", "cli", "argparse")
_ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__matmul__",
}
_CONSTRUCTORS = {
    "Dual.__post_init__", "DualVec3.__init__", "DualVec3._raw",
    "DualMat3.__init__", "DualMat3._raw",
}


class Tracer:
    def __init__(self):
        self.active = False  # only the program calls of operations are traced
        self.record_spans = False
        self.op = -1
        self.names: list[str] = []
        self.layer: list[int] = []
        self.is_object: list[bool] = []
        self.calls: list[int] = []
        self.refusals: list[int] = []
        self.self_s: list[float] = []
        self.lstsq_rows = 0
        self.stack: list[int] = []
        self.open_spans: list[int] = []
        self.spans: list[list] = []
        self.t_last = 0.0
        self._patches: list[tuple] = []  # (owner, name, original, wrapper)
        self._prepare()

    # -- installation ---------------------------------------------------------

    def enable(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _prepare(self) -> None:
        from screwalg.errors import ScrewAlgError

        self._refusal = ScrewAlgError
        package = importlib.import_module("screwalg")
        modules = {name: importlib.import_module(f"screwalg.{name}") for name in LAYERS[:-1]}
        namespaces = [package, *modules.values()]
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and _defined_in(obj, mod):
                    imported = any(vars(ns).get(name) is obj for ns in namespaces if ns is not mod)
                    if not name.startswith("_") or imported:
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, (enum.Enum, BaseException)):
                        self._wrap_class(obj, mod, layer)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._set(ns, name, wrapped[id(obj)])
        cli = modules["cli"]
        self._set(cli, "_build_parser", self._wrap(cli._build_parser, "argparse.build", "argparse"))
        self._set(argparse.ArgumentParser, "parse_args",
                  self._wrap(argparse.ArgumentParser.parse_args, "argparse.parse", "argparse"))
        self._set(np.linalg, "lstsq", self._count_lstsq(np.linalg.lstsq))

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name], value))

    def _wrap_class(self, cls, mod, layer) -> None:
        done: dict[int, object] = {}  # aliases such as __radd__ = __add__ share one wrapper
        for name, attr in list(vars(cls).items()):
            label = f"{cls.__name__}.{name}"
            wanted = (
                not name.startswith("_") or name in _ARITHMETIC or name == "__init__"
                or label in _CONSTRUCTORS
            )
            if not wanted:
                continue
            if isinstance(attr, property) and attr.fget and _defined_in(attr.fget, mod):
                self._set(cls, name, property(self._wrap(attr.fget, f"{layer}.{label}", layer)))
            elif isinstance(attr, classmethod) and _defined_in(attr.__func__, mod):
                fn = attr.__func__
                self._set(cls, name, classmethod(self._wrap(fn, f"{layer}.{label}", layer, label)))
            elif inspect.isfunction(attr) and _defined_in(attr, mod):
                if id(attr) not in done:
                    done[id(attr)] = self._wrap(attr, f"{layer}.{label}", layer, label)
                self._set(cls, name, done[id(attr)])

    def _wrap(self, fn, name: str, layer: str, label: str = ""):
        idx = len(self.names)
        self.names.append(name)
        self.layer.append(LAYERS.index(layer))
        self.is_object.append(label in _CONSTRUCTORS)
        self.calls.append(0)
        self.refusals.append(0)
        self.self_s.append(0.0)
        tracer = self
        clock = time.perf_counter
        layer_of = self.layer
        my_layer = self.layer[idx]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            stack = tracer.stack
            if stack:
                tracer.self_s[stack[-1]] += start - tracer.t_last
            stack.append(idx)
            tracer.calls[idx] += 1
            span = -1
            if tracer.record_spans:
                span = len(tracer.spans)
                parent = tracer.open_spans[-1] if tracer.open_spans else -1
                tracer.spans.append([tracer.op, span, parent, idx, start, start])
                tracer.open_spans.append(span)
            tracer.t_last = clock()
            try:
                return fn(*args, **kwargs)
            except tracer._refusal:
                # A refusal is counted where it leaves its layer.
                if len(stack) < 2 or layer_of[stack[-2]] != my_layer:
                    tracer.refusals[idx] += 1
                raise
            finally:
                end = clock()
                tracer.self_s[idx] += end - tracer.t_last
                stack.pop()
                if span >= 0:
                    tracer.spans[span][5] = end
                    tracer.open_spans.pop()
                tracer.t_last = end

        return wrapper

    def _count_lstsq(self, fn):
        tracer = self
        oracle = LAYERS.index("oracle")

        @functools.wraps(fn)
        def lstsq(a, *args, **kwargs):
            if tracer.active and tracer.stack and tracer.layer[tracer.stack[-1]] == oracle:
                tracer.lstsq_rows += int(np.shape(a)[0])
            return fn(a, *args, **kwargs)

        return lstsq

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Calls, objects and refusals per layer, and lstsq rows, so far."""
        out = {f"{layer}.{what}": 0 for layer in LAYERS for what in ("calls", "objects", "refusals")}
        for idx, layer in enumerate(self.layer):
            name = LAYERS[layer]
            out[f"{name}.{'objects' if self.is_object[idx] else 'calls'}"] += self.calls[idx]
            out[f"{name}.refusals"] += self.refusals[idx]
        out["oracle.lstsq_rows"] = self.lstsq_rows
        return out

    def self_seconds(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for idx, layer in enumerate(self.layer):
            out[LAYERS[layer]] += self.self_s[idx]
        return out

    def functions(self) -> list:
        return sorted(
            (
                {"name": n, "layer": LAYERS[l], "calls": c, "self_us": s * 1e6, "refusals": r}
                for n, l, c, s, r in zip(self.names, self.layer, self.calls, self.self_s,
                                         self.refusals)
                if c
            ),
            key=lambda f: -f["self_us"],
        )

    def span_records(self) -> list:
        t0 = self.spans[0][4] if self.spans else 0.0
        return [
            {"op": op, "id": span, "parent": parent, "name": self.names[idx],
             "layer": LAYERS[self.layer[idx]], "start_us": (start - t0) * 1e6,
             "end_us": (end - t0) * 1e6}
            for op, span, parent, idx, start, end in self.spans
        ]


def _defined_in(fn, mod) -> bool:
    """Written in the module's source; excludes dataclass-generated methods."""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == mod.__file__
