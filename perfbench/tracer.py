"""Outside-in per-layer tracer for sylres.

The library has no instrumentation of its own, so the tracer wraps the
public functions of each layer from outside.  `from .x import f` copies the
binding, so a module function is replaced in every `sylres*` module
attribute that *is* the original object; a method is replaced on the class
that defines it.  Wrappers are installed only for the duration of one op
(`Tracer.op`) and removed afterwards, so untraced code and verification run
on the original functions.

Each wrapped call at a layer boundary records a span (op, id, parent id,
layer, start ns, end ns).  A call re-entering the layer it is already in
(Karatsuba recursing into `conv`, `FixedDivisor.rem` calling `divrem`) is
not a boundary and passes straight through.  A layer's self time is its
spans' durations minus the time covered by their child spans.  Spans stay
in memory until `save_spans` writes them out at the end of the run.

A layer whose sources are all gone from the library is reported as absent
rather than crashing the run; a source that is missing while others of its
layer remain simply has no calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer -> sources, each "module:function" or "module:Class.method".
LAYERS = {
    "field.ntt": ["sylres._backend:ntt_mod"],
    "field.schoolbook": ["sylres._backend:conv_mod"],
    "field.conv": ["sylres.field:PrimeField.conv", "sylres.field:ExtField.conv"],
    "field.vmul": ["sylres.field:PrimeField.vmul", "sylres.field:ExtField.vmul"],
    "upoly.divrem": [
        "sylres.upoly:UPoly.divrem",
        "sylres.upoly:FixedDivisor.divrem",
        "sylres.upoly:FixedDivisor.rem",
        "sylres.upoly:FixedDivisor.exact_div",
        "sylres.upoly:FixedDivisor._inverse",
    ],
    "upoly.interpolate": ["sylres.upoly:interpolate"],
    "upoly.multipoint_eval": ["sylres.upoly:multipoint_eval"],
    "upoly.berlekamp_massey": ["sylres.upoly:berlekamp_massey"],
    "bipoly.bimul": ["sylres.bipoly:bimul"],
    "bipoly.vec": [
        "sylres.bipoly:vec",
        "sylres.bipoly:unvec",
        "sylres.bipoly:vec_y",
        "sylres.bipoly:unvec_y",
        "sylres.bipoly:vec_x",
        "sylres.bipoly:unvec_x",
    ],
    "sylvester.trunc_inv_apply": [
        "sylres.sylvester:trunc_inv_apply",
        "sylres.sylvester:trunc_inv_apply_T",
    ],
    "sylvester.matvec": [
        "sylres.sylvester:matvec",
        "sylres.sylvester:matvec_window",
        "sylres.sylvester:matvec_T",
    ],
    "sylvester.is_column_reduced": ["sylres.sylvester:is_column_reduced"],
    "normalform.normal_form": ["sylres.normalform:normal_form"],
    "normalform.linear_form": [
        "sylres.normalform:LinearForm.apply_embedded",
        "sylres.normalform:LinearForm.apply",
    ],
    "normalform.transposed": [
        "sylres.normalform:transposed_normal_form",
        "sylres.normalform:NormalFormProgram.transpose",
    ],
    "kucompose.power_tower": ["sylres.kucompose:power_tower"],
    "kucompose.grid_eval": ["sylres.kucompose:grid_eval"],
    "kucompose.mv_multipoint_eval": ["sylres.kucompose:mv_multipoint_eval"],
    "kucompose.grid_interp": ["sylres.kucompose:grid_interp"],
    "condition.condition": ["sylres.condition:condition_for_both"],
    "condition.recover": ["sylres.condition:recover_last_invariant"],
    "invariant.min_poly": ["sylres.invariant:min_poly_mult_x"],
    "invariant.determinant": ["sylres._dense:gauss_det"],
}

# counter -> source whose calls are counted without a span (too frequent
# for one: ~267k UPoly constructions per d=e=64 normal form).
COUNTERS = {"upoly.construct.count": "sylres.upoly:UPoly.__init__"}


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.unattributed_s"] = "s"
    return units


def _resolve(source):
    """(owner, attribute name, original) for a source, or None if missing."""
    modname, _, qual = source.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = vars(owner).get(attr)
    return None if orig is None else (owner, attr, orig)


def _binding_sites(owner, attr, orig):
    """Every sylres module attribute bound to orig (a method has one site)."""
    if isinstance(owner, type):
        return [(owner, attr)]
    return [
        (mod, name)
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "sylres" or modname.startswith("sylres."))
        for name, val in list(vars(mod).items())
        if val is orig
    ]


class Tracer:
    def __init__(self, layers=LAYERS, counters=COUNTERS):
        self.layers = list(layers)
        self.counter_names = list(counters)
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.counts = [0] * len(self.counter_names)
        self.missing = []  # sources not found in the library
        self.absent = []  # layers or counters with no source at all
        self.spans = array("q")  # flat rows: op, id, parent, layer, start, end
        self.walls_ns = []  # traced wall time of each op
        self._stack = []  # open spans: [layer, id, child ns]
        self._next_id = 0
        self._op = -1
        self._patches = []  # (owner, attr, original, wrapper)
        for idx, layer in enumerate(self.layers):
            self._add(layer, layers[layer], functools.partial(self._span_wrapper, idx))
        for idx, name in enumerate(self.counter_names):
            self._add(name, [counters[name]], functools.partial(self._count_wrapper, idx))

    def _add(self, name, sources, make_wrapper):
        found = False
        for source in sources:
            hit = _resolve(source)
            if hit is None:
                self.missing.append(source)
                continue
            found = True
            owner, attr, orig = hit
            wrapper = make_wrapper(orig)
            for site, site_attr in _binding_sites(owner, attr, orig):
                self._patches.append((site, site_attr, orig, wrapper))
        if not found:
            self.absent.append(name)

    def _span_wrapper(self, idx, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == idx:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [idx, sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.calls[idx] += 1
                self.self_ns[idx] += t1 - t0 - frame[2]
                if stack:
                    stack[-1][2] += t1 - t0
                self.spans.extend((self._op, sid, parent, idx, t0, t1))

        return traced

    def _count_wrapper(self, idx, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def op(self, index, fn, *args):
        """fn(*args) run as traced op number `index`, with the wrappers
        installed; exceptions propagate after they are removed."""
        self._op = index
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.walls_ns.append(time.perf_counter_ns() - t0)
            for owner, attr, orig, _ in reversed(self._patches):
                setattr(owner, attr, orig)
            self._stack.clear()

    def metrics(self) -> dict:
        """Per-op means over the traced ops, without the absent metrics."""
        n = max(len(self.walls_ns), 1)
        values = {}
        for idx, layer in enumerate(self.layers):
            if layer not in self.absent:
                values[f"{layer}.calls"] = self.calls[idx] / n
                values[f"{layer}.self_s"] = self.self_ns[idx] / n / 1e9
        for idx, name in enumerate(self.counter_names):
            if name not in self.absent:
                values[name] = self.counts[idx] / n
        values["trace.unattributed_s"] = (sum(self.walls_ns) - sum(self.self_ns)) / n / 1e9
        return values

    def save_spans(self, path) -> None:
        """Write the spans as an .npz: `spans` (rows of op, id, parent,
        layer, start ns, end ns) and `layers` (names by layer index)."""
        import numpy as np

        np.savez(
            path,
            spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6),
            layers=np.array(self.layers),
        )
