"""In-memory spans around the public functions of each cubicff module.

`Tracer.install()` replaces every wrapped function in every `cubicff`
module namespace that binds it (for example `placegeom` imports
`residue_field` and `make_field` by name), and wraps methods on their
class.  A name that no longer exists is reported as absent instead of
failing, so the benchmark keeps running across refactors.

A span is (layer, start, end, parent span index, op id).  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# layer name -> wrapped (module, attribute) pairs; "Class.method" attributes
# are patched on the class
LAYERS = {
    "cfftool.main": [("cfftool", "main")],
    "polyrat.parse": [("polyrat", "rat_parse"), ("polyrat", "place_parse")],
    "polyrat.FqPoly.factor": [("polyrat", "FqPoly.factor")],
    "polyrat.residue_field": [("polyrat", "residue_field")],
    "polyrat.ResidueField": [("polyrat", "ResidueField.__init__")],
    "normalform.normalize": [("normalform", "normalize")],
    "normalform.standardize": [
        ("normalform", "as_standardize_full"),
        ("normalform", "kummer_standardize_full"),
        ("normalform", "purely_cubic_test"),
        ("normalform", "char3_to_artin_schreier"),
    ],
    "ringops.cubic_has_rational_root": [("ringops", "cubic_has_rational_root")],
    "galoiskit.is_galois": [("galoiskit", "is_galois")],
    "galoiskit.is_constant_extension": [("galoiskit", "is_constant_extension")],
    "galoiskit.galois_norm_witness": [("galoiskit", "galois_norm_witness")],
    "galoiskit.is_irreducible_standard": [("galoiskit", "is_irreducible_standard")],
    "placegeom.splitting_type": [("placegeom", "splitting_type")],
    "placegeom.ramified_places": [("placegeom", "ramified_places")],
    "placegeom.split_via_order": [("placegeom", "split_via_order")],
    "intbasis.build": [
        ("intbasis", "standard_integral_basis"),
        ("intbasis", "as_integral_basis"),
        ("intbasis", "kummer_integral_basis"),
    ],
    "intbasis.basis_discriminant": [("intbasis", "basis_discriminant")],
    "action.galois_action": [("action", "galois_action")],
    "gfq.FieldSpec": [("gfq", "FieldSpec.__init__")],
    "gfq.quad_ext": [("gfq", "quad_ext")],
}

# layers reported as builds per op rather than calls and self time
BUILD_LAYERS = ("polyrat.ResidueField", "gfq.FieldSpec")

MODULES = ("cfftool", "polyrat", "normalform", "ringops", "galoiskit", "placegeom", "intbasis", "action", "gfq")


def layer_module(layer: str) -> str:
    return layer.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.absent = []
        self._undo = []

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack.clear()

    def _wrap(self, fn, layer):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.op_id)

        return wrapper

    def install(self):
        """Wrap every function of LAYERS in the loaded cubicff modules."""
        loaded = [m for name, m in sys.modules.items() if name == "cubicff" or name.startswith("cubicff.")]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                module = sys.modules.get("cubicff." + modname)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, name, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapped = self._wrap(original, layer)
                if owner_name:
                    self._set(owner, name, wrapped, original)
                    continue
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped, original)

    def _set(self, owner, name, wrapped, original):
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def layer_metrics(self, n_ops: int, traced_wall: float, untraced_wall: float) -> dict:
        """calls and self time per op for each layer, builds per op, each
        module's share of the self time, and the tracing overhead."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        total_s = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            if s is None:
                continue
            layer, start, end = s[0], s[1], s[2]
            calls[layer] += 1
            total_s[layer] += end - start
            self_s[layer] += end - start - child_time[i]
        n = max(n_ops, 1)
        out = {}
        for layer in LAYERS:
            if layer in BUILD_LAYERS:
                out[f"{layer}.builds_per_op"] = (calls[layer] / n, "builds/op")
            else:
                out[f"{layer}.calls_per_op"] = (calls[layer] / n, "calls/op")
                out[f"{layer}.self_ms_per_op"] = (1000 * self_s[layer] / n, "ms/op")
        out["gfq.FieldSpec.build_ms_per_op"] = (1000 * total_s["gfq.FieldSpec"] / n, "ms/op")
        all_self = sum(self_s.values()) or 1.0
        for module in MODULES:
            share = sum(v for layer, v in self_s.items() if layer_module(layer) == module) / all_self
            out[f"{module}.self_share"] = (share, "share")
        out["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
        return out

    def write(self, path):
        # a span cut short by the op budget before its end was recorded is None
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "fields": ["layer", "start", "end", "parent", "op"]}, fh)
            fh.write("\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s))
                    fh.write("\n")
