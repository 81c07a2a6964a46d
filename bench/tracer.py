"""Span tracer that wraps the public functions of each ngonstab layer.

Nothing in the library knows about it.  `Tracer.install` replaces every
public function (the names in a module's ``__all__``) and every public
method or property of a public class with a wrapper that records one
span: name, start, end and parent.  The wrapper is bound both in the
defining module and wherever another ngonstab module imported the name,
so a call is charged to the module that defines the code, whichever
module made it.  `uninstall` puts the originals back.

Spans live in flat integer arrays until `collect` folds them into
per-layer totals; the arrays are then cleared, so memory stays bounded
by one pass of traced work.  A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

# Each module of the package is one layer; the shared schema error type
# is part of the command-line boundary.
LAYER_OF_MODULE = {
    "charges": "charges",
    "gamma0": "gamma0",
    "compat": "compat",
    "sheaves": "sheaves",
    "hn": "hn",
    "moduli": "moduli",
    "cli": "cli",
    "schemas": "cli",
}
LAYERS = ("charges", "gamma0", "compat", "sheaves", "hn", "moduli", "cli")

# Work counters computed from the arguments and results of a few public
# functions: (module, qualified name) -> (counter, function of bound args
# and result giving the amount).
_SCANNING = ("ChainSheaf", "BandSheaf")


def _interval_bound(args, result):
    s = args["s"]
    kind = type(s).__name__
    if kind == "ChainSheaf":
        return s.k * (s.k + 1) // 2 - 1
    if kind == "BandSheaf":
        n = s.n * s.r
        return n * (n - 1)
    return 0


def _scanned_verdict(args, result):
    return int(type(args["s"]).__name__ in _SCANNING)


def _full_scan(args, result):
    scanned = type(args["s"]).__name__ in _SCANNING
    return int(scanned and result in ("Stable", "StrictlySemistable"))


def _box_points(args, result):
    box = args["box"]
    return (2 * box + 1) ** 2 - 1


def _partition_nodes(args, result):
    return len(result.parent)


COUNTERS = {
    ("sheaves", "is_semistable"): (
        ("sheaves.interval_bound", _interval_bound),
        ("sheaves.scanned_verdicts", _scanned_verdict),
        ("sheaves.full_scans", _full_scan),
    ),
    ("gamma0", "brute_force_cusp_partition"): (
        ("gamma0.partition_nodes", _partition_nodes),
    ),
}
for _oracle in (
    "order_preserved_brute_force",
    "order_preserved_linear",
    "order_preserved_pairwise",
    "sampled_pairwise_order",
    "box_sup_phase",
):
    COUNTERS[("compat", _oracle)] = (("compat.box_points", _box_points),)


def _package_modules(package: types.ModuleType) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [package] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
    ]


class Tracer:
    """Records spans around every public entry point of the package."""

    def __init__(self, package: types.ModuleType) -> None:
        self.package = package
        self.span_names: list[str] = []
        self.layer_of_name: list[int] = []
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.errors = [0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules(self.package)
        replaced: dict[int, tuple[object, object]] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            layer = LAYER_OF_MODULE.get(short)
            if layer is None:
                continue
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, short, layer)
                elif callable(obj):
                    wrapper = self._wrapper(obj, short, name, layer)
                    replaced[id(obj)] = (obj, wrapper)
        # rebind in the defining module and at every import site
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls: type, short: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrapper(value.__func__, short, qual, layer))
            elif isinstance(value, property) and value.fget is not None:
                fget = self._wrapper(value.fget, short, qual, layer)
                new = property(fget, value.fset, value.fdel, value.__doc__)
            elif isinstance(value, types.FunctionType):
                new = self._wrapper(value, short, qual, layer)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrapper(self, fn, short: str, qual: str, layer: str):
        name_id = len(self.span_names)
        layer_id = LAYERS.index(layer)
        self.span_names.append(f"{short}.{qual}")
        self.layer_of_name.append(layer_id)
        counters = COUNTERS.get((short, qual))
        signature = inspect.signature(fn) if counters else None
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, errors, layer_of = self.stack, self.errors, self.layer_of_name
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                parent = parents[idx]
                if parent < 0 or layer_of[names[parent]] != layer_id:
                    errors[layer_id] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in counters:
                    counts[key] = counts.get(key, 0) + amount(bound.arguments, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def collect(self) -> dict:
        """Fold the recorded spans into per-layer totals and clear them.

        Returns calls, self time (ns) and escaped exceptions per layer,
        plus the work counters, all for the spans since the last call.
        """
        n = len(self.names)
        child = [0] * n
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        layer_of = self.layer_of_name
        for i in range(n - 1, -1, -1):
            duration = ends[i] - starts[i]
            layer_id = layer_of[names[i]]
            self_ns[layer_id] += duration - child[i]
            calls[layer_id] += 1
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
        out = {
            "spans": n,
            "calls": dict(zip(LAYERS, calls)),
            "self_ns": dict(zip(LAYERS, self_ns)),
            "errors": dict(zip(LAYERS, self.errors)),
            "counts": dict(self.counts),
        }
        for arr in (names, parents, starts, ends):
            del arr[:]
        self.errors[:] = [0] * len(LAYERS)
        self.counts.clear()
        return out
