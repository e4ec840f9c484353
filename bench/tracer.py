"""Spans and counters around the engine's public entry points.

Installed from the benchmark's worker process after `gchodge.cli` is
imported; nothing inside `src/` knows about it.  Every public function and
method of each engine module is wrapped, and each wrapped function is
replaced in every `gchodge` module namespace that binds it (seed code imports
names directly, e.g. `from .linalg import vec_axpy`), so no call site is
missed.  Hot value-type helpers in HOT are left alone: their calls would
cost more to record than they take, and their time is charged to the
calling span.

A span records name, start, end, parent span and job id.  Spans stay in
memory and are written out by `Tracer.dump` when the worker ends.  A
layer's busy time is its self time: span time minus the time its child
spans cover.

`Counter` is the separate counting run: it wraps the scalar dunders and
`vec_axpy`, which are too hot to time, and only counts them.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
import time
from array import array

# Engine modules, as layers.  `scalars` is covered by the counting run only.
LAYERS = ("cli", "modelfile", "liemodel", "forms", "linalg", "courant", "gcs",
          "cohomology", "families", "poly", "gkaehler")

# Entry points called far too often to span (hundreds of thousands of calls
# per pass); their time stays with the caller's span.
HOT = frozenset({
    "forms.popcount", "forms.blade_wedge_sign", "forms.insert_sign",
    "forms.sigma_sign", "forms.blade_name", "forms.Form.__init__",
    "forms.Form.is_zero", "forms.Form.scale", "forms.Form.contract_index",
    "forms.Form.degrees", "forms.Form.is_homogeneous", "forms.Form.conj",
    "forms.Form.parity_part", "forms.Form.blade", "forms.Form.zero",
    "forms.Form.one", "forms.Form.blades_sorted",
    "linalg.vec_zero", "linalg.vec_is_zero", "linalg.vec_add",
    "linalg.vec_sub", "linalg.vec_scale", "linalg.vec_axpy", "linalg.vec_conj",
    "linalg.vec_eq", "linalg.vec_pivot", "linalg.Echelon.__init__",
    "linalg.Echelon.dim", "linalg.Echelon.basis", "linalg.Subspace.__init__",
    "linalg.Subspace.basis", "linalg.Subspace.zero", "linalg.Subspace.full",
    "gcs.form_of_vec", "gcs.gen_from_sparse", "gcs.apply_matrix",
    "courant.GenElem.__init__", "courant.GenElem.x", "courant.GenElem.e",
    "courant.GenElem.scale", "courant.GenElem.conj", "courant.GenElem.is_zero",
    "courant.GenElem.to_coords", "courant.GenElem.from_coords",
    "courant.GenElem.cov_form", "courant.pairing",
    "liemodel.LieModel.d", "liemodel.LieModel.d_generator",
    "poly.ParamPoly.__init__", "poly.ParamPoly.is_zero",
    "poly.ParamPoly.is_constant", "poly.ParamPoly.const", "poly.ParamPoly.var",
    "poly.ParamPoly.scale", "poly.ParamPoly.degree", "poly.ParamPoly.eval",
    "poly.ParamPoly.conj", "poly.PolyForm.__init__", "poly.PolyForm.is_zero",
})

# Counters named by the benchmark, keyed by span name.
COUNTED = {
    "linalg.insert.calls": "linalg.Echelon.insert",
    "linalg.reduce.calls": "linalg.Echelon.reduce",
    "linalg.kernel.calls": "linalg.matrix_kernel",
    "gcs.structs_built": "gcs.GCStruct.__init__",
    "gcs.spin_op.calls": "gcs.spin_op",
    "gcs.del_delbar.calls": "gcs.GCStruct.del_delbar",
    "gcs.decompose.calls": "gcs.GCStruct.decompose",
    "cohomology.twisted_builds": "cohomology.TwistedCohomology.__init__",
    "cohomology.delbar_builds": "cohomology.delbar_cohomology",
    "cohomology.ddbar_checks": "cohomology.ddbar_check",
    "courant.clifford.calls": "courant.clifford_act",
    "forms.wedge.calls": "forms.Form.wedge",
    "liemodel.d_H.calls": "liemodel.LieModel.d_H",
    "liemodel.validate.calls": "liemodel.LieModel.validate",
}

_INT = re.compile(r"\d+")


def _engine_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gchodge" or n.startswith("gchodge."))]


def _classes():
    found = {}
    for mod in _engine_modules():
        for v in vars(mod).values():
            if inspect.isclass(v) and v.__module__.startswith("gchodge"):
                found[id(v)] = v
    return list(found.values())


def _rebind(old, new, classes=()):
    """Point every engine binding of `old` (module globals and class
    attributes, aliases included) at `new`."""
    for mod in _engine_modules():
        for name, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, name, new)
    for cls in classes:
        for name, val in list(vars(cls).items()):
            if val is old:
                setattr(cls, name, new)


def entry_points(layer: str):
    """(qualified name, raw attribute) for every public function and method
    defined in gchodge.<layer>; `__init__` counts as public."""
    mod = sys.modules[f"gchodge.{layer}"]
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    out.append((f"{layer}.{name}.{attr}", raw))
    return [e for e in out if e[0] not in HOT]


def max_rational_bits(text: str) -> int:
    """Largest bit length among the integers in a canonical scalar string."""
    return max((int(t).bit_length() for t in _INT.findall(text)), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.busy = dict.fromkeys(LAYERS, 0.0)
        # spans, one entry per array
        self.s_id = array("q")
        self.s_parent = array("q")
        self.s_name = array("l")
        self.s_job = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.job = -1
        self._next = 0
        self._stack: list[list] = []       # [span id, child seconds]
        self.insert_useful = 0
        self.rep_bits_max = 0
        self.models_per_job = 0
        self._job_models: set = set()

    # -- installation -------------------------------------------------------

    def install(self):
        classes = _classes()
        for layer in LAYERS:
            for qual, raw in entry_points(layer):
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(qual, raw.__func__))
                else:
                    new = self._wrap(qual, raw)
                _rebind(raw, new, classes)

    def _wrap(self, qual: str, fn):
        idx = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.incl.append(0.0)
        layer = qual.split(".", 1)[0]
        hook = {"linalg.Echelon.insert": self._insert_hook,
                "linalg.QuotientSpace.__init__": self._quotient_hook,
                "cohomology.TwistedCohomology.__init__": self._twisted_hook,
                }.get(qual)
        stack, busy, calls, incl = self._stack, self.busy, self.calls, self.incl
        clock = time.perf_counter
        s_id, s_parent, s_name = self.s_id, self.s_parent, self.s_name
        s_job, s_start, s_end = self.s_job, self.s_start, self.s_end
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                busy[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                incl[idx] += dur
                s_id.append(sid)
                s_parent.append(parent)
                s_name.append(idx)
                s_job.append(tracer.job)
                s_start.append(t0)
                s_end.append(t1)
            if hook is not None:
                # Runs inside the parent span; credit it as covered by a
                # child so that no layer's busy_s is charged for it.
                h0 = clock()
                hook(args, result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    # -- hooks, called with the arguments and result of a finished call -----

    def _insert_hook(self, args, result):
        if result[0]:          # a non-empty residual raised the rank
            self.insert_useful += 1

    def _quotient_hook(self, args, result):
        # Read from the canonical strings, so a change of QI's internal
        # representation does not change what is measured.
        for rep in args[0].reps:
            for x in rep.values():
                self.rep_bits_max = max(self.rep_bits_max, max_rational_bits(str(x)))

    def _twisted_hook(self, args, result):
        m = args[1]
        self._job_models.add((m.dim, repr(m.structure), repr(m.H)))

    # -- jobs and results ---------------------------------------------------

    def start_job(self, job: int):
        self.job = job
        self._job_models = set()

    def end_job(self):
        self.models_per_job += len(self._job_models)

    def summary(self) -> dict:
        by_name = {n: (c, s) for n, c, s in zip(self.names, self.calls, self.incl)}
        counts = {metric: by_name.get(name, (0, 0.0))[0]
                  for metric, name in COUNTED.items()}
        return {"busy": self.busy, "counts": counts,
                "insert_useful": self.insert_useful,
                "rep_bits_max": self.rep_bits_max,
                "models_per_job": self.models_per_job,
                "struct_init_s": by_name.get("gcs.GCStruct.__init__", (0, 0.0))[1]}

    def dump(self, stem: str):
        """Write the spans: `<stem>.json` holds the name table and array
        layout, `<stem>.bin` the six arrays one after the other."""
        arrays = (self.s_id, self.s_parent, self.s_name, self.s_job,
                  self.s_start, self.s_end)
        with open(stem + ".bin", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.s_id),
                       "arrays": [["id", "q"], ["parent", "q"], ["name", "l"],
                                  ["job", "l"], ["start", "d"], ["end", "d"]]},
                      fh)


class Counter:
    """Counts scalar operations and `vec_axpy` calls; optionally keeps every
    k-th multiplication's operands as canonical strings."""

    OPS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__neg__", "inv")

    def __init__(self, sample_every: int = 0):
        self.ops = 0
        self.axpy = 0
        self.sample_every = sample_every
        self.samples: list[list[str]] = []
        self._muls = 0

    def install(self):
        from gchodge.scalars import QI
        from gchodge import linalg
        done = {}
        for attr in self.OPS:
            raw = vars(QI)[attr]
            if raw not in done:
                done[raw] = self._count_op(raw, attr in ("__mul__", "__rmul__"))
            setattr(QI, attr, done[raw])
        axpy = linalg.vec_axpy

        def counted_axpy(*args):
            self.axpy += 1
            return axpy(*args)
        _rebind(axpy, counted_axpy)

    def _count_op(self, fn, is_mul: bool):
        counter = self
        if not is_mul or not self.sample_every:
            def op(*args):
                counter.ops += 1
                return fn(*args)
            return op

        def mul(a, b):
            counter.ops += 1
            counter._muls += 1
            if counter._muls % counter.sample_every == 0 and type(b) is type(a):
                counter.samples.append([str(a.re), str(a.im), str(b.re), str(b.im)])
            return fn(a, b)
        return mul
