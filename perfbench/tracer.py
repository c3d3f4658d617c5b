"""Span tracer for the pqgeom layers.

`install` rebinds every public module-level function of the eight pqgeom
modules, in every pqgeom namespace that holds it (``cli`` and
``reduction`` import names with ``from .x import f``), plus two methods
on their classes: ``SplitQuaternion.__mul__`` and the construction of
``HermitianStructure``.  Each call is a span named ``<layer>.<name>``,
where the layer is the module that defines the function.

Spans are aggregated in memory, keyed by name and by the span that caused
them, and written out once by `Tracer.dump`.  A span's self time is its
duration minus the durations of its child spans, so the self times of all
spans sum to the duration of the outermost span.

The tracer also keeps three work counts computed from the arguments and
results of the calls it sees; they depend only on the inputs:

- ``curvature.tensor_entries``: d**4 summed over the tensor builders;
- ``forms.four_form_entries``: entries of every materialised 4-form;
- ``exactla.elim_cells``: rows * cols summed over elimination calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

LAYERS = ("algebra", "exactla", "linalg", "forms", "curvature", "projspace",
          "reduction", "cli")

# span name -> (class, method); the span's layer is the class's module
CLASS_HOOKS = {
    "algebra.SplitQuaternion.__mul__": ("SplitQuaternion", "__mul__"),
    "linalg.HermitianStructure": ("HermitianStructure", "__init__"),
}

COUNTS = ("curvature.tensor_entries", "forms.four_form_entries",
          "exactla.elim_cells")


def _tensor_entries(args, result):
    return result.tensor.size


def _four_form_entries(args, result):
    return 0 if result.array is None else result.array.size


def _elim_cells(args, result):
    rows, cols = np.shape(args[0])
    return rows * cols


# span name -> (count name, how to compute it from a call)
COUNTERS = {
    "curvature.projective_curvature": ("curvature.tensor_entries",
                                       _tensor_entries),
    "curvature.curvature_from_bilinear": ("curvature.tensor_entries",
                                          _tensor_entries),
    "curvature.weyl_sample": ("curvature.tensor_entries", _tensor_entries),
    "forms.fundamental_four_form": ("forms.four_form_entries",
                                    _four_form_entries),
    # the elimination routines of exactla; rank, solve, inverse and
    # nullspace all eliminate through the private _echelon
    "exactla.det": ("exactla.elim_cells", _elim_cells),
    "exactla.inertia": ("exactla.elim_cells", _elim_cells),
    "exactla.rank_mod_p": ("exactla.elim_cells", _elim_cells),
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}  # (parent, child) -> calls
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []       # open spans: [name, child_s]

    def wrap(self, name: str, fn):
        """Return `fn` recording a span `name` around every call."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, counts = self._stack, self.edges, self.counts
        count_name, measure = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (stack[-1][0] if stack else None, name)
            edges[key] = edges.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if count_name is not None:
                counts[count_name] += measure(args, result)
            return result

        return traced

    def count(self, count_name: str, fn, measure):
        """Return `fn` adding `measure(args, result)` to a count; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[count_name] += measure(args, result)
            return result

        return counted

    def dump(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items()},
            "edges": [[parent, child, calls]
                      for (parent, child), calls in self.edges.items()],
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Rebind the pqgeom functions and class hooks to traced versions.

    Imports pqgeom first; call before the code to be traced runs.
    """
    import pqgeom  # noqa: F401  (loads every layer module)

    replacements = {}
    for layer in LAYERS:
        module = sys.modules["pqgeom." + layer]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__):
                continue
            replacements[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    exactla = sys.modules["pqgeom.exactla"]
    replacements[exactla._echelon] = tracer.count(
        "exactla.elim_cells", exactla._echelon, _elim_cells)

    for name, module in list(sys.modules.items()):
        if name != "pqgeom" and not name.startswith("pqgeom."):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in replacements:
                setattr(module, attr, replacements[obj])

    for span, (cls_name, method) in CLASS_HOOKS.items():
        cls = getattr(sys.modules["pqgeom." + span.split(".")[0]], cls_name)
        setattr(cls, method, tracer.wrap(span, vars(cls)[method]))
