"""Tracing of the pseudosphere layers from outside the library.

`Tracer.install()` replaces each traced function by a wrapper in every
module of the package that binds it, and wraps the `TruncatedSeries`,
`SeriesMatrix` and `GaussianRational` methods on their classes;
`uninstall()` puts the originals back.  Nothing in the library changes.

Each wrapped call is a span with a parent (the innermost wrapped call that
was running).  A span's self time is its duration minus the time of its
child spans.  Layer-level calls are kept as individual spans; the far more
numerous series calls are kept as per-(parent, name) aggregates, and
scalar operations as counters charged to the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

# (layer, name, module attribute holding the function)
FUNCTIONS = [
    ("cli", "run", "pseudosphere.cli"),
    ("expressions", "parse_series", "pseudosphere.expressions"),
    ("hypersurface", "make_model", "pseudosphere.hypersurface"),
    ("hypersurface", "check_reality", "pseudosphere.hypersurface"),
    ("hypersurface", "from_graph", "pseudosphere.hypersurface"),
    ("hypersurface", "levi", "pseudosphere.hypersurface"),
    ("matrices", "jacobian_minor_family", "pseudosphere.matrices"),
    ("implicit", "solve_formal_system", "pseudosphere.implicit"),
    ("implicit", "solve_implicit", "pseudosphere.implicit"),
    ("pde", "derive_associated_system", "pseudosphere.pde"),
    ("pde", "check_complete_integrability", "pseudosphere.pde"),
    ("flatness", "minors", "pseudosphere.flatness"),
    ("flatness", "main_theorem_tensor", "pseudosphere.flatness"),
    ("flatness", "hachtroudi_tensor", "pseudosphere.flatness"),
    ("flatness", "cross_check", "pseudosphere.flatness"),
    ("flatness", "is_pseudospherical", "pseudosphere.flatness"),
]

# (layer, name, class path, method names sharing the span name)
METHODS = [
    ("matrices", "determinant", "pseudosphere.matrices.SeriesMatrix", ("determinant",)),
    ("series", "mul", "pseudosphere.series.TruncatedSeries", ("__mul__", "__rmul__")),
    ("series", "add", "pseudosphere.series.TruncatedSeries", ("__add__", "__radd__")),
    ("series", "sub", "pseudosphere.series.TruncatedSeries", ("__sub__", "__rsub__")),
    ("series", "substitute", "pseudosphere.series.TruncatedSeries", ("substitute",)),
    ("series", "partial", "pseudosphere.series.TruncatedSeries", ("partial",)),
    ("series", "scale", "pseudosphere.series.TruncatedSeries", ("scale",)),
    ("series", "invert_unit", "pseudosphere.series.TruncatedSeries", ("invert_unit",)),
]

# GaussianRational + - * /.  The reflected - and / call the forward
# operator, so only the forward ones and the aliased + and * are counted.
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__")

# Results whose coefficients bound scalars.max_bits: theta, PDE system, tensor.
BITS_SOURCES = {
    "hypersurface.make_model": lambda model: [model.theta],
    "pde.derive_associated_system": lambda system: [
        system.component(*key) for key in system.component_keys()
    ],
    "flatness.main_theorem_tensor": lambda tensor: list(tensor.components.values()),
}

SPAN_NAMES = [f"{layer}.{name}" for layer, name, _ in FUNCTIONS] + [
    f"{layer}.{name}" for layer, name, _, _ in METHODS
]


def _resolve(path):
    module_name, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module_name), attr)


def _coefficient_bits(series_list):
    bits = 0
    for series in series_list:
        for c in series.terms.values():
            for part in (c.re, c.im):
                bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in SPAN_NAMES}  # calls, self ns, total ns
        self.spans = []        # (id, parent id, request, name, start ns, end ns)
        self.edges = {}        # (parent name, name) -> [calls, total ns]
        self.scalar = [0, 0]   # ops, ns
        self.mul_pairs = 0
        self.max_bits = 0
        self.request = None
        self._stack = []       # open frames: [name, span id, child ns]
        self._observed = []
        self._patches = []     # (owner, attribute, original)
        self._next_id = 0

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name, fn, keep_span):
        stats = self.stats[name]
        edges = self.edges
        stack = self._stack
        bits_source = BITS_SOURCES.get(name)
        observed = self._observed

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                stats[2] += duration
                if parent is not None:
                    parent[2] += duration
                edge_key = (parent[0] if parent else None, name)
                edge = edges.get(edge_key)
                if edge is None:
                    edges[edge_key] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
                if keep_span:
                    self.spans.append(
                        (span_id, parent[1] if parent else None, self.request, name, start, end)
                    )
            if bits_source is not None:
                observed.append((bits_source, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_span(self, fn):
        from pseudosphere.series import TruncatedSeries

        timed = self._span("series.mul", fn, keep_span=False)

        def wrapper(a, b):
            if isinstance(b, TruncatedSeries):
                order = min(a.order, b.order)
                left = _degree_histogram(a, order)
                right = _degree_histogram(b, order)
                self.mul_pairs += sum(
                    count * sum(n for d, n in right.items() if d <= order - degree)
                    for degree, count in left.items()
                )
            return timed(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_op(self, fn):
        counter = self.scalar
        stack = self._stack

        def wrapper(a, b):
            start = perf_counter_ns()
            result = fn(a, b)
            duration = perf_counter_ns() - start
            counter[0] += 1
            counter[1] += duration
            if stack:
                stack[-1][2] += duration
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        package = [
            module for name, module in list(sys.modules.items())
            if name == "pseudosphere" or name.startswith("pseudosphere.")
        ]
        for layer, name, path in FUNCTIONS:
            original = _resolve(f"{path}.{name}")
            wrapper = self._span(f"{layer}.{name}", original, keep_span=True)
            for module in package:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapper)
        for layer, name, path, methods in METHODS:
            cls = _resolve(path)
            wrappers = {}
            for method in methods:
                original = cls.__dict__[method]
                if original not in wrappers:
                    if name == "mul":
                        wrappers[original] = self._mul_span(original)
                    else:
                        wrappers[original] = self._span(f"{layer}.{name}", original, keep_span=False)
                self._patch(cls, method, wrappers[original])
        scalar_cls = _resolve("pseudosphere.scalars.GaussianRational")
        wrappers = {}
        for method in SCALAR_OPS:
            original = scalar_cls.__dict__[method]
            if original not in wrappers:
                wrappers[original] = self._scalar_op(original)
            self._patch(scalar_cls, method, wrappers[original])

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def measure_bits(self):
        """Fold the coefficient sizes of the results seen so far into max_bits."""
        for source, result in self._observed:
            self.max_bits = max(self.max_bits, _coefficient_bits(source(result)))
        self._observed.clear()

    # ------------------------------------------------------------------
    # output

    def metrics(self):
        """Per-layer metric values keyed by metric name."""
        out = {}
        for name in SPAN_NAMES:
            calls, self_ns, total_ns = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.total_s"] = total_ns / 1e9
        ops, scalar_ns = self.scalar
        out["series.mul.pairs"] = self.mul_pairs
        mul_ns = self.stats["series.mul"][2]
        out["series.mul.ns_per_pair"] = mul_ns / self.mul_pairs if self.mul_pairs else 0.0
        out["scalars.ops"] = ops
        out["scalars.self_s"] = scalar_ns / 1e9
        out["scalars.ns_per_op"] = scalar_ns / ops if ops else 0.0
        out["scalars.max_bits"] = self.max_bits
        return out

    def write(self, path):
        """Write the spans and the aggregated call edges as JSON."""
        payload = {
            "spans": [
                {"id": s[0], "parent": s[1], "check": s[2], "name": s[3],
                 "start_ns": s[4], "end_ns": s[5]}
                for s in self.spans
            ],
            "edges": [
                {"parent": parent, "name": name, "calls": calls, "total_ns": total}
                for (parent, name), (calls, total) in sorted(
                    self.edges.items(), key=lambda item: (item[0][0] or "", item[0][1])
                )
            ],
            "metrics": self.metrics(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _degree_histogram(series, order):
    hist = {}
    for exps in series.terms:
        degree = sum(exps)
        if degree <= order:
            hist[degree] = hist.get(degree, 0) + 1
    return hist
