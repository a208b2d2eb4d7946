"""Per-layer tracing of the mopsrel package, installed from outside it.

``Tracer.install`` replaces each function or method named in ``LAYERS``
with a wrapper that records a span (op, layer, start, end, parent) in
memory, in every ``mopsrel`` module namespace that holds the function (a
module that did ``from .functional import moments_from_recurrence`` calls
its own binding) and on the class for methods. Functions in ``COUNTED`` get
a cheaper wrapper that only counts calls, so their time stays with the
caller. ``uninstall`` puts every original back.

A call into a layer from inside the same layer opens no span: ``calls`` is
the number of entries into a layer from another one, and a layer's self
time is its spans' time minus the time of their child spans. Everything not
named here (``Polynomial.__init__``, ``as_scalar``, ``RecurrencePair``
accessors, private helpers) is self time of its caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# layer -> "module:attribute" targets; "*.to_json" is every to_json of a
# class defined in the package
LAYERS = {
    "poly.mul": ["poly:Polynomial.__mul__"],
    "poly.add": ["poly:Polynomial.__add__", "poly:Polynomial.__sub__",
                 "poly:Polynomial.__neg__"],
    "poly.eq": ["poly:Polynomial.__eq__"],
    "poly.eval": ["poly:Polynomial.__call__"],
    "functional.moments_from_recurrence": ["functional:moments_from_recurrence"],
    "functional.recurrence_from_moments": ["functional:recurrence_from_moments"],
    "functional.mops_from_recurrence": ["functional:mops_from_recurrence"],
    "functional.apply": ["functional:MomentFunctional.apply"],
    "functional.norm_squared": ["functional:norm_squared"],
    "functional.moment_ops": [
        "functional:MomentFunctional.scale",
        "functional:MomentFunctional.normalized",
        "functional:MomentFunctional.left_multiply",
        "functional:MomentFunctional.divide_by_linear",
        "functional:MomentFunctional.add_point_mass",
    ],
    "families.jacobi_recurrence": ["families:jacobi_recurrence"],
    "relation23.classify": ["relation23:classify"],
    "relation23.induced_recurrence": ["relation23:induced_recurrence"],
    "relation23.auxiliary_sequences": ["relation23:auxiliary_sequences"],
    "relation23.constant_sequences": ["relation23:constant_sequences"],
    "relation23.check_by_equations": ["relation23:check_by_equations"],
    "relation23.check_by_constants": ["relation23:check_by_constants"],
    "relation23.relation_constants": ["relation23:relation_constants"],
    "relation23.functional_identity": ["relation23:v_moments_from_relation",
                                       "relation23:verify_functional_relation"],
    "relation23.regularity_criterion": ["relation23:regularity_criterion"],
    "casebook.chebyshev_case": ["casebook:chebyshev_case"],
    "casebook.jacobi_chain": ["casebook:jacobi_chain"],
    "cli.main": ["cli:main"],
    "cli.parse": ["cli:_load_pair", "cli:_load_document", "cli:_relation_from",
                  "cli:_recurrence_from"],
    "cli.emit": ["cli:_emit", "*.to_json", "*.to_csv"],
}
COUNTED = {
    "rational.parse": "rational:parse_rational",
    "rational.format": "rational:format_rational",
}
PACKAGE = "mopsrel"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [op, layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list = []  # targets not found in the package
        self.op = 0
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))
        }
        for layer, targets in LAYERS.items():
            for target in targets:
                for owner, attr, fn in self._resolve(target):
                    self._patch(modules, owner, attr, fn, self._span_wrapper(layer, fn))
        for layer, target in COUNTED.items():
            for owner, attr, fn in self._resolve(target):
                self._patch(modules, owner, attr, fn, self._count_wrapper(layer, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _resolve(self, target: str):
        """(owner, attribute, original) for one target."""
        if target.startswith("*."):
            method = target[2:]
            for cls in self._classes():
                if method in vars(cls):
                    yield cls, method, vars(cls)[method]
            return
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            self.missing.append(target)
            return
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = vars(owner).get(attr) if owner is not None else None
        if fn is None:
            self.missing.append(target)
            return
        yield owner, attr, fn

    def _classes(self):
        seen = set()
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(PACKAGE + "."):
                continue
            for value in vars(mod).values():
                if (isinstance(value, type) and value.__module__ == name
                        and value not in seen):
                    seen.add(value)
                    yield value

    def _patch(self, modules, owner, attr, fn, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it in every namespace holding it
        for mod in modules.values():
            if vars(mod).get(attr) is fn:
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    # ----------------------------------------------------------- wrappers

    def _span_wrapper(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [self.op, layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, layer: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ summary

    def layer_totals(self, scale) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer over every recorded span; the
        spans of op ``k`` are timed in units of ``scale[k - 1]`` seconds."""
        calls: Counter = Counter(self.counts)
        self_s: Counter = Counter()
        for op, layer, start, end, parent in self.spans:
            calls[layer] += 1
            span = (end - start) * scale[op - 1]
            self_s[layer] += span
            if parent >= 0:
                self_s[self.spans[parent][1]] -= span
        return calls, self_s
