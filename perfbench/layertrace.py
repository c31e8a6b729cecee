"""Outside-in layer tracing of the cnproj package.

``LayerTrace.install`` finds every plain function that one cnproj module
binds from another (``from .homspaces import hom_basis`` in ``universe.py``
and ``arquiver.py``), plus the few same-module entry points listed in
``EXTRA``, and replaces each binding in every cnproj module that holds it,
the defining module included, so internal calls are traced too.

Each call becomes a span: name, start, end and parent span, kept in memory
and written by ``write_spans`` when the run ends.  Self time is a span's
duration minus the time its child spans cover; the tracer's own bookkeeping
inside a child is charged to the child, not to the parent's self time.

Counters that need the arguments or results are collected at the same
boundaries: argument repeats for ``hom_basis`` and ``ext_classes`` (exact
``serial_key`` pairs, and support-normalised shape pairs plus their relative
offset), the ``Universe.stats`` of every universe built, and the windows the
sgldim driver enumerated.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import pkgutil
import sys
import time
import types

PACKAGE = "cnproj"

# (module, function) pairs traced although no other module binds them
EXTRA = (
    ("homspaces", "rad_basis"),
    ("arquiver", "almost_split_ending_at"),
    ("arquiver", "_certify"),
    ("exports", "ar_quiver_to_dot"),
    ("exports", "ar_quiver_payload"),
)

# metric prefix for functions whose name is not used as is
ALIASES = {"universe.enumerate_indecomposables": "universe.enumerate"}

REPEAT_TRACKED = ("homspaces.hom_basis", "homspaces.ext_classes")


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:]


def _shape_key(x):
    """(exact key, support-normalised shape, first support cell) of a complex."""
    key = x.serial_key()
    sup = x.support()
    if sup is None:
        return key, key, 0
    lo, hi = sup[0] - 1, sup[1] - 1
    return key, (key[1][lo:hi + 1], key[2][lo:hi]), sup[0]


class LayerTrace:
    """Spans and counters at cnproj's module boundaries, for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._calls: list[int] = []
        self._self_s: list[float] = []
        # one entry per span, indexed by span id
        self._span_name = array.array("H")
        self._span_parent = array.array("l")
        self._span_start = array.array("d")
        self._span_end = array.array("d")
        self._stack: list[list] = []     # [span id, seconds covered by children]
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        # name -> (exact argument pairs, shape pairs with offset, [calls])
        self._pairs = {name: (set(), set(), [0]) for name in REPEAT_TRACKED}
        self._keys: dict[int, tuple] = {}   # id -> (complex, its _shape_key)
        self.universe = {"candidates": 0, "classes": 0, "rounds": 0, "added": 0}
        self.windows = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        """Replace every boundary function's bindings with traced wrappers."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        targets = {}
        for mod in modules[1:]:
            for value in vars(mod).values():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ != mod.__name__
                        and value.__module__.startswith(PACKAGE + ".")):
                    targets[value] = None
        for mod_name, fn_name in EXTRA:
            targets[getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)] = None
        for fn in sorted(targets, key=lambda f: (f.__module__, f.__name__)):
            name = f"{_short(fn.__module__)}.{fn.__name__}"
            targets[fn] = self._wrap(fn, ALIASES.get(name, name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in targets:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, targets[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _key(self, x):
        # complexes are immutable; holding x keeps its id from being reused
        hit = self._keys.get(id(x))
        if hit is None:
            hit = self._keys[id(x)] = (x, _shape_key(x))
        return hit[1]

    def _hooks(self, name):
        if name in self._pairs:
            exact, shapes, calls = self._pairs[name]

            def pre(args):
                kx, sx, ox = self._key(args[0])
                ky, sy, oy = self._key(args[1])
                exact.add((kx, ky))
                shapes.add((sx, sy, ox - oy))
                calls[0] += 1
            return pre, None
        if name == "universe.enumerate":
            def post(uni):
                st = uni.stats
                for key in ("candidates", "classes", "rounds"):
                    self.universe[key] += st[key]
                self.universe["added"] += sum(v for rule, v in st["added_by_rule"].items()
                                              if rule != "seed")
            return None, post
        if name == "sgldim.compute_sgldim":
            def post(report):
                self.windows += len(report.universes)
            return None, post
        return None, None

    def _wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        self._calls.append(0)
        self._self_s.append(0.0)
        pre, post = self._hooks(name)
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self._calls, self._self_s
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            if pre is not None:
                pre(args)
            span = len(span_name)
            span_name.append(sid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result)
                return result
            finally:
                end = clock()
                stack.pop()
                span_end[span] = end
                calls[sid] += 1
                self_s[sid] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += clock() - t_in

        return traced

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic number: call counts, repeat ratios, universe sums."""
        out = {f"{name}.calls": self._calls[i] for i, name in enumerate(self.names)}
        for name, (exact, shapes, calls) in self._pairs.items():
            n = calls[0]
            out[f"{name}.repeat_frac"] = 1 - len(exact) / n if n else 0.0
            out[f"{name}.translate_repeat_frac"] = 1 - len(shapes) / n if n else 0.0
        u = self.universe
        out.update({
            "universe.candidates": u["candidates"],
            "universe.classes": u["classes"],
            "universe.rounds": u["rounds"],
            "universe.yield": u["added"] / u["candidates"] if u["candidates"] else 0.0,
            "sgldim.windows": self.windows,
            "trace.spans": len(self._span_name),
        })
        return out

    def self_times(self) -> dict:
        return {f"{name}.self_s": self._self_s[i] for i, name in enumerate(self.names)}

    def write_spans(self, path: str):
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "spans": len(self._span_name),
                  "clock": "time.perf_counter seconds",
                  "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self._span_name, self._span_parent, self._span_start, self._span_end):
                arr.tofile(fh)
