"""Per-layer spans for the traced run, recorded from the benchmark's own files.

``Tracer.install()`` wraps the public calls of each layer (see ``LAYERS``) in
every ``reciprocity`` module namespace that holds them, so calls made through
``from .norms import mat_det`` are caught as well as ``norms.mat_det``.  Each
wrapped call records a span ``[layer, start_ns, end_ns, parent]``; spans of one
op live in memory until the op ends and are then folded into per-layer totals
by ``layer_times``.  ``uninstall()`` puts the original functions back.

The element layer (``AlgebraElement`` construction) is counted, never spanned:
a span there would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# layer -> (module, public name) pairs; a dotted name is Class.method
LAYERS = {
    "cli": [("reciprocity.cli", "main")],
    "parsing": [("reciprocity.parsing", n) for n in (
        "parse_field_spec", "parse_ring_spec", "parse_rational", "parse_series")],
    "curve": [("reciprocity.curve", n) for n in (
        "verify_wrl", "verify_residue_theorem", "verify_gf_global", "verify_wrl_local_data",
        "verify_residues_local_data", "relevant_places", "local_expansion",
        "trace_residue_at_place", "wrl_local_factor")],
    "factor": [("reciprocity.factor", n) for n in ("poly_factor", "is_irreducible")],
    "norms": [("reciprocity.norms", n) for n in ("mat_det", "mat_mul", "algebra_norm", "relative_norm")],
    "poly": [("reciprocity.poly", "Polynomial." + n) for n in (
        "__mul__", "__divmod__", "gcd", "invmod", "pow_mod", "shift")],
    "kernels": None,  # every function of the reciprocity._kernels namespace
    "laurent": [("reciprocity.laurent", n) for n in (
        "unit_factorize", "cc_factorize", "LaurentSeries.__mul__", "LaurentSeries.inverse")],
    "symbols": [("reciprocity.symbols", n) for n in (
        "tame_symbol", "contou_carrere_symbol", "tate_residue", "gelfand_fuchs_cocycle")],
    "blockops": [("reciprocity.blockops", n) for n in ("multiplication_operator", "lie_cocycle")],
}


def layer_times(spans, n_layers: int):
    """Per-layer (calls, inclusive_ns, self_ns) of one op's span tree.

    ``spans`` are ``[layer, start, end, parent]`` in start order, so a parent
    precedes its children; ``parent`` is an index into ``spans`` or -1.
    Inclusive time counts only the outermost span of each layer on a path;
    self time is a span's duration minus the time its direct children cover.
    """
    calls = [0] * n_layers
    incl = [0] * n_layers
    self_ns = [0] * n_layers
    child_ns = [0] * len(spans)
    outer = [0] * len(spans)  # bitmask of the layers open above each span
    for i, (layer, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[layer] += 1
        if parent >= 0:
            child_ns[parent] += dur
            outer[i] = outer[parent] | (1 << spans[parent][0])
        if not outer[i] >> layer & 1:
            incl[layer] += dur
    for i, (layer, start, end, _) in enumerate(spans):
        self_ns[layer] += end - start - child_ns[i]
    return calls, incl, self_ns


def _kernel_coeffs(args) -> int:
    n = 0
    for a in args:
        if isinstance(a, (list, tuple)):
            if a and isinstance(a[0], (list, tuple)):
                n += sum(len(row) for row in a)
            else:
                n += len(a)
    return n


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.spans: list = []
        self.stack = [-1]
        self.counts = {"kernel_coeffs": 0, "elements": 0}
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer: int, kernel: bool = False):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            if kernel:
                counts["kernel_coeffs"] += _kernel_coeffs(args)
            span = [layer, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _counted_init(self, init):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["elements"] += 1
            init(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def _replace(self, namespace, original, wrapped):
        """Swap ``original`` for ``wrapped`` under every key of ``namespace`` that holds it."""
        for key, value in list(vars(namespace).items()):
            if value is original:
                self._patches.append((namespace, key, original))
                setattr(namespace, key, wrapped)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "reciprocity" or name.startswith("reciprocity.")]
        for layer, name in enumerate(self.names):
            if name == "kernels":
                kernels = importlib.import_module("reciprocity._kernels")
                for key, value in list(vars(kernels).items()):
                    if callable(value) and not key.startswith("_") and not isinstance(value, types.ModuleType):
                        self._patches.append((kernels, key, value))
                        setattr(kernels, key, self._span(value, layer, kernel=True))
                continue
            for module_name, qualname in LAYERS[name]:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[attr]
                    self._replace(cls, original, self._span(original, layer))
                else:
                    original = getattr(module, qualname)
                    wrapped = self._span(original, layer)
                    for m in modules:
                        self._replace(m, original, wrapped)
        fields = importlib.import_module("reciprocity.fields")
        init = fields.AlgebraElement.__init__
        self._replace(fields.AlgebraElement, init, self._counted_init(init))

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            setattr(namespace, key, original)
        self._patches.clear()

    def take(self):
        """Per-layer (calls, inclusive, self) of the spans since the last call; clears them."""
        out = layer_times(self.spans, len(self.names))
        self.spans.clear()
        return out
