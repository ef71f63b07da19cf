"""Spans around the public functions and methods of every scatdiag module.

`Tracer.install()` replaces each public function and method with a wrapper
that records one span (name, start, end, parent) per call, in every module
namespace that holds it, so `scattering.face_enumerate` is traced as well as
`lattice.face_enumerate`.  `uninstall()` puts the originals back.  Spans stay
in memory, in flat arrays, until `write()`.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over the spans of its module.  Work in helpers
that are not wrapped counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

MODULES = ("coeff", "lattice", "torus", "scattering", "qp", "chambers", "reps", "cli")

# Arithmetic dunders are the public face of CoeffFn.
DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__"}

# Leaf helpers called hundreds of thousands of times per round whose body is
# as cheap as the wrapper; their time stays with the caller.
UNTRACED = {
    "lattice.pair", "lattice.skew", "lattice.total_degree", "lattice.primitive",
    "coeff.CoeffFn.is_zero", "coeff.CoeffFn.is_rational",
    "reps.Rep.matrix", "reps.Rep.total_dim", "reps.mat_mul", "reps.mat_vec",
    "reps.mat_add", "reps.mat_scale", "reps.zero_mat", "reps.identity_mat",
}

# Spans whose result length is summed, as a count of the work they found.
SIZED = {"scattering.ScatDiagram.candidate_normals", "scattering.ScatDiagram.wall_normals",
         "lattice.face_enumerate"}


def _public(name):
    return not name.startswith("_") or name in DUNDERS


class Tracer:
    def __init__(self):
        self.names = []                 # span name table
        self.index = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.sizes = {}
        self.current = -1
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        clock = time.perf_counter
        sized = name in SIZED
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if sized:
                    tracer.sizes[name] = tracer.sizes.get(name, 0) + len(result)
                return result
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module("scatdiag." + m) for m in MODULES}
        wrappers = {}                   # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or not _public(attr):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = "%s.%s" % (layer, attr)
                    if name not in UNTRACED:
                        wrappers[id(obj)] = self._wrap(name, obj)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package
        for mod in list(mods.values()) + [importlib.import_module("scatdiag")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, layer, cls):
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if name in UNTRACED:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def summary(self, inclusive=()):
        """Per span name: calls and self seconds, plus inclusive seconds
        (outermost spans only) for the names in `inclusive`; per layer: self
        seconds."""
        n = len(self.name_ids)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        wanted = {self.index[name] for name in inclusive if name in self.index}
        for i in range(n):
            nid = ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur - child[i]
            if nid in wanted and not self._nested_in_same(i, nid):
                incl[nid] += dur
        per_name = {name: {"calls": calls[i], "incl_s": incl[i], "self_s": own[i]}
                    for i, name in enumerate(self.names)}
        layers = {}
        for name, row in per_name.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return per_name, layers

    def _nested_in_same(self, i, nid):
        p = self.parents[i]
        while p >= 0:
            if self.name_ids[p] == nid:
                return True
            p = self.parents[p]
        return False

    def write(self, path):
        """All spans as rows [name, start, end, parent index]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [[self.name_ids[i], self.starts[i], self.ends[i],
                                  self.parents[i]] for i in range(len(self.name_ids))]},
                      fh, separators=(",", ":"))
