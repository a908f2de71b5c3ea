"""Per-layer self time and call counts, measured from outside the program.

:class:`LayerTracer` wraps every function and method defined in the
modules of each named ``repro`` package (a *layer*) with a span.  Spans
are kept in memory as running totals, never written while the
simulation runs:

* a span opens when control enters a layer from a different layer (or
  from outside every layer) and closes when that call returns; a call
  that stays inside the layer it was made from only counts a call, so
  its time stays in the enclosing span of the same layer;
* a span's *self time* is its duration minus the durations of the spans
  opened inside it, so the self times of all layers add up to the time
  spent inside traced code;
* a generator function (``Vcpu.body``, the vhost handlers' ``run``) is
  wrapped so that every resumption -- ``next``, ``send``, ``throw`` --
  is a call and a span of the generator's layer, not only the call that
  creates the generator.

:meth:`LayerTracer.uninstall` puts every original object back, so a
traced run leaves nothing behind in the untraced runs that follow.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import types
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["LayerTracer", "FnStat", "leftover_wrappers"]

#: methods left alone: object protocol hooks whose wrapping would change
#: identity, hashing, pickling or attribute access rather than observe a call
_SKIP_METHODS = frozenset({
    "__new__", "__init_subclass__", "__class_getitem__", "__getattr__",
    "__getattribute__", "__setattr__", "__delattr__", "__del__", "__repr__",
    "__str__", "__format__", "__hash__", "__eq__", "__ne__", "__reduce__",
    "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
    "__deepcopy__", "__set_name__", "__subclasshook__", "__instancecheck__",
    "__subclasscheck__",
})


class FnStat:
    """Totals for one wrapped function: calls, spans it opened, their self time."""

    __slots__ = ("layer", "calls", "spans", "self_ns")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.spans = 0
        self.self_ns = 0


class _TracedGenerator:
    """A generator whose every resumption runs inside its layer's span."""

    __slots__ = ("_gen", "_enter")

    def __init__(self, gen, enter: Callable) -> None:
        self._gen = gen
        self._enter = enter

    def __iter__(self):
        return self

    def __next__(self):
        return self._enter(self._gen.send, (None,), {})

    def send(self, value):
        return self._enter(self._gen.send, (value,), {})

    def throw(self, *args):
        return self._enter(self._gen.throw, args, {})

    def close(self):
        return self._enter(self._gen.close, (), {})


class LayerTracer:
    """Wraps the functions of named packages and attributes time to them.

    ``layers`` maps a layer name to the package names it covers, e.g.
    ``{"sim": ["repro.sim"], "hw": ["repro.hw"]}``.  ``clock`` returns
    integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, layers: Mapping[str, Iterable[str]],
                 clock: Callable[[], int] = perf_counter_ns) -> None:
        self.layers = {name: tuple(pkgs) for name, pkgs in layers.items()}
        self.clock = clock
        #: open spans, innermost last: [layer, start_ns, child_ns]
        self._stack: List[list] = []
        self.stats: Dict[str, FnStat] = {}
        #: (owner, attribute, original value) for every patch, in order
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- install
    def layer_of(self, module_name: str):
        """The layer a module belongs to, or None."""
        for layer, pkgs in self.layers.items():
            for pkg in pkgs:
                if module_name == pkg or module_name.startswith(pkg + "."):
                    return layer
        return None

    def _modules(self) -> List[types.ModuleType]:
        """Import every submodule of every layer package; return them all."""
        for pkgs in self.layers.values():
            for pkg in pkgs:
                mod = importlib.import_module(pkg)
                for info in pkgutil.walk_packages(getattr(mod, "__path__", []), pkg + "."):
                    importlib.import_module(info.name)
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and self.layer_of(name) is not None]

    def install(self) -> None:
        """Wrap every function and method defined in the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: Dict[object, object] = {}
        modules = self._modules()
        for mod in modules:
            layer = self.layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, layer, f"{mod.__name__}.{obj.__qualname__}")
                    wrapped[obj] = wrapper
                    self._patch(mod, name, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, mod.__name__)
        # ``from repro.x import f`` copies the function into the importer's
        # namespace: re-point those copies too, in every module of the
        # layers' top-level packages.
        roots = {pkg.split(".")[0] for pkgs in self.layers.values() for pkg in pkgs}
        for name_, mod in sorted(sys.modules.items()):
            if mod is None or name_.split(".")[0] not in roots:
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])

    def _wrap_class(self, cls: type, layer: str, module: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr in _SKIP_METHODS:
                continue
            key = f"{module}.{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                new = self._wrap(value, layer, key)
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, layer, key))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(value.__func__, layer, key))
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()

    # ------------------------------------------------------------- spans
    def _wrap(self, fn, layer: str, key: str):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = FnStat(layer)
        stack = self._stack
        clock = self.clock

        def enter(target, args, kwargs):
            stat.calls += 1
            if stack and stack[-1][0] is layer:
                return target(*args, **kwargs)
            span = [layer, clock(), 0]
            stack.append(span)
            try:
                return target(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                stat.spans += 1
                stat.self_ns += duration - span[2]
                if stack:
                    stack[-1][2] += duration

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return _TracedGenerator(fn(*args, **kwargs), enter)
        else:
            def wrapper(*args, **kwargs):
                return enter(fn, args, kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.layer_tracer_stat = stat
        return wrapper

    # ----------------------------------------------------------- readout
    def reset(self) -> None:
        """Zero every total (between a warm-up and a measured window).

        Spans still open -- a reset from inside traced code, as at the
        rack's first measured round -- restart at this instant, so only
        time after the reset is counted.
        """
        now = self.clock()
        for span in self._stack:
            span[1] = now
            span[2] = 0
        for stat in self.stats.values():
            stat.calls = stat.spans = stat.self_ns = 0

    def snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        """``{function: (calls, spans, self_ns)}`` for functions that ran."""
        return {key: (s.calls, s.spans, s.self_ns)
                for key, s in self.stats.items() if s.calls}

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """``{layer: {"calls", "spans", "self_ns"}}`` for every layer."""
        out = {layer: {"calls": 0, "spans": 0, "self_ns": 0} for layer in self.layers}
        for stat in self.stats.values():
            row = out[stat.layer]
            row["calls"] += stat.calls
            row["spans"] += stat.spans
            row["self_ns"] += stat.self_ns
        return out


def leftover_wrappers(packages: Iterable[str]) -> List[str]:
    """Names of tracer wrappers still reachable from the given packages."""
    packages = tuple(packages)
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not any(name == p or name.startswith(p + ".") for p in packages):
            continue
        for attr, obj in list(vars(mod).items()):
            members = [(attr, obj)]
            if isinstance(obj, type):
                members += [(f"{attr}.{k}", getattr(v, "__func__", v))
                            for k, v in vars(obj).items()]
            found += [f"{name}.{label}" for label, fn in members
                      if hasattr(fn, "layer_tracer_stat")]
    return found
