"""Per-layer tracing of buraubuilding, installed from outside the package.

The five modules `arith`, `rep`, `building`, `groupcalc` and `cli` are the
layers.  `Tracer.install` wraps their public functions on every module
binding of the name (`groupcalc` and `cli` import `canonicalize`, `apply`,
`link` and others by name) and the methods of their public classes.

A wrapped call opens a frame when it crosses into another layer, or always
for the functions that have a self-time metric.  A frame's self time is its
duration minus the time of the frames opened inside it, so a layer's self
time is its time minus the time covered by calls into other layers, and a
call nested inside another call of the same layer is counted once.
Frames of the module functions of `cli`, `groupcalc` and `building` are
also kept as spans with parent ids; methods, and all of `rep` and `arith`,
keep only counts and self time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

PACKAGE = "buraubuilding"
LAYERS = ("arith", "rep", "building", "groupcalc", "cli")
SPAN_LAYERS = frozenset({"cli", "groupcalc", "building"})

# functions with per-function metrics: True keeps their self time too
NAMED = {
    "arith.RatFunc.__init__": False,
    "arith.pgcd": True,
    "arith.LaurentInt.__mul__": False,
    "rep.MatrixRF.__mul__": True,
    "rep.MatrixRF.inverse": True,
    "rep.MatrixInt.__mul__": True,
    "rep.word_evaluate": False,
    "rep.word_evaluate_integral": False,
    "rep.is_unitary": False,
    "building.canonicalize": True,
    "building.apply": False,
    "building.link": True,
    "building.induced_link_permutation": True,
    "groupcalc.stab_exact": True,
    "groupcalc.stab_words": True,
    "groupcalc.orbit_bfs": True,
    "cli.main": False,
    "cli.cache_get": False,
    "cli.cache_put": False,
}

# (metric name, unit, better) in output order; see Tracer.metrics
PER_LAYER = (
    ("arith.self_s", "s", "lower"),
    ("arith.RatFunc.init.calls", "count", "lower"),
    ("arith.pgcd.calls", "count", "lower"),
    ("arith.pgcd.self_s", "s", "lower"),
    ("arith.pgcd.nontrivial_ratio", "ratio", "higher"),
    ("arith.LaurentInt.mul.calls", "count", "lower"),
    ("rep.self_s", "s", "lower"),
    ("rep.MatrixRF.mul.calls", "count", "lower"),
    ("rep.MatrixRF.mul.self_s", "s", "lower"),
    ("rep.MatrixRF.inverse.calls", "count", "lower"),
    ("rep.MatrixRF.inverse.self_s", "s", "lower"),
    ("rep.MatrixInt.mul.calls", "count", "lower"),
    ("rep.MatrixInt.mul.self_s", "s", "lower"),
    ("rep.word_evaluate.calls", "count", "lower"),
    ("rep.word_evaluate_integral.calls", "count", "lower"),
    ("rep.is_unitary.calls", "count", "lower"),
    ("building.self_s", "s", "lower"),
    ("building.canonicalize.calls", "count", "lower"),
    ("building.canonicalize.self_s", "s", "lower"),
    ("building.apply.calls", "count", "lower"),
    ("building.link.calls", "count", "lower"),
    ("building.link.self_s", "s", "lower"),
    ("building.induced_link_permutation.calls", "count", "lower"),
    ("building.induced_link_permutation.self_s", "s", "lower"),
    ("groupcalc.self_s", "s", "lower"),
    ("groupcalc.stab_exact.calls", "count", "lower"),
    ("groupcalc.stab_exact.self_s", "s", "lower"),
    ("groupcalc.stab_words.calls", "count", "lower"),
    ("groupcalc.stab_words.self_s", "s", "lower"),
    ("groupcalc.orbit_bfs.calls", "count", "lower"),
    ("groupcalc.orbit_bfs.self_s", "s", "lower"),
    ("groupcalc.orbit_bfs.new_per_apply", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.cache_get.hits", "count", "lower"),
    ("cli.cache_get.misses", "count", "lower"),
    ("cli.cache_put.calls", "count", "lower"),
)


def _defined_in(obj, module):
    code = getattr(inspect.unwrap(obj), "__code__", None)
    return code is not None and code.co_filename == module.__file__


class Tracer:
    """Counts, self times and spans of the calls into the package layers."""

    def __init__(self):
        self._patches = []          # (owner, attribute, original value)
        self._frames = []           # [layer, child time, start]
        self._span_stack = [0]      # 0 is the root
        self.reset()

    def reset(self):
        """Forget everything recorded so far; the wrappers stay installed."""
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.spans = []             # (id, parent id, key, start, end)
        self.pgcd_nontrivial = 0
        self.bfs_vertices = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._ids = itertools.count(1)

    def snapshot(self):
        """State to hand to restore, which forgets the calls made between."""
        return (dict(self.calls), dict(self.self_time), dict(self.layer_self),
                len(self.spans), self.pgcd_nontrivial, self.bfs_vertices,
                self.cache_hits, self.cache_misses)

    def restore(self, state):
        calls, own, layer_self, n_spans, *scalars = state
        self.calls = defaultdict(int, calls)
        self.self_time = defaultdict(float, own)
        self.layer_self = layer_self
        del self.spans[n_spans:]
        (self.pgcd_nontrivial, self.bfs_vertices, self.cache_hits,
         self.cache_misses) = scalars

    # -- wrapping ---------------------------------------------------------

    def _post(self, key):
        if key == "arith.pgcd":
            def post(g):
                if len(g) > 1:
                    self.pgcd_nontrivial += 1
            return post
        if key == "groupcalc.orbit_bfs":
            def post(seen):
                self.bfs_vertices += len(seen)
            return post
        if key == "cli.cache_get":
            def post(entry):
                if entry is None:
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
            return post
        return None

    def _wrap(self, layer, key, fn, method=False):
        tracer = self
        frames = self._frames
        span_stack = self._span_stack
        clock = time.perf_counter
        counted = key in NAMED
        always = NAMED.get(key, False)
        keep_span = layer in SPAN_LAYERS and not method
        post = self._post(key)

        def wrapper(*args, **kwargs):
            if counted:
                tracer.calls[key] += 1
            if not always and frames and frames[-1][0] == layer:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(out)
                return out
            if keep_span:
                sid = next(tracer._ids)
                parent = span_stack[-1]
                span_stack.append(sid)
            frame = [layer, 0.0, clock()]
            frames.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[2]
                own = duration - frame[1]
                tracer.self_time[key] += own
                tracer.layer_self[layer] += own
                if frames:
                    frames[-1][1] += duration
                if keep_span:
                    span_stack.pop()
                    tracer.spans.append((sid, parent, key, frame[2], end))
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap the layers that are already imported; import none of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}               # id(original) -> (original, wrapper)
        own = {}                    # id(original) -> (its module, named)
        for layer in LAYERS:
            module = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._wrap_class(layer, obj, module)
                elif callable(obj) and _defined_in(obj, module):
                    key = "%s.%s" % (layer, name)
                    wrappers[id(obj)] = (obj, self._wrap(layer, key, obj))
                    own[id(obj)] = (module, key in NAMED)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                home, named = own[id(obj)]
                # calls inside the defining module never cross a layer, so
                # only functions with their own metrics are wrapped there
                if module is home and not named:
                    continue
                self._set(module, name, hit[1])

    def _wrap_class(self, layer, cls, module):
        for name, attr in list(vars(cls).items()):
            if name in ("__new__", "__init_subclass__", "__class_getitem__"):
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, (classmethod, staticmethod)):
                if _defined_in(attr.__func__, module):
                    self._set(cls, name, type(attr)(
                        self._wrap(layer, key, attr.__func__, True)))
            elif isinstance(attr, property):
                if attr.fget is not None and _defined_in(attr.fget, module):
                    self._set(cls, name, property(
                        self._wrap(layer, key, attr.fget, True), attr.fset,
                        attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr) and _defined_in(attr, module):
                self._set(cls, name, self._wrap(layer, key, attr, True))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Every PER_LAYER metric, by name."""
        calls, own = self.calls, self.self_time
        bfs = {sid for sid, _, key, _, _ in self.spans
               if key == "groupcalc.orbit_bfs"}
        bfs_applies = sum(1 for _, parent, key, _, _ in self.spans
                          if key == "building.apply" and parent in bfs)
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = self.layer_self[layer]
        for key in NAMED:
            layer, _, rest = key.partition(".")
            name = rest.replace("__init__", "init").replace("__mul__", "mul")
            out["%s.%s.calls" % (layer, name)] = calls[key]
            if NAMED[key]:
                out["%s.%s.self_s" % (layer, name)] = own[key]
        out["arith.pgcd.nontrivial_ratio"] = _ratio(self.pgcd_nontrivial,
                                                    calls["arith.pgcd"])
        out["groupcalc.orbit_bfs.new_per_apply"] = _ratio(self.bfs_vertices,
                                                          bfs_applies)
        out["cli.cache_get.hits"] = self.cache_hits
        out["cli.cache_get.misses"] = self.cache_misses
        return {name: out[name] for name, _, _ in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0
