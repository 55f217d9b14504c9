"""Per-layer tracing of ribbonchar from outside the program.

``Tracer.install()`` replaces the public functions of every ribbonchar module
(and a few methods named in ``METHODS``) with wrappers that open a span on
entry and close it on return.  A layer is the module that defines the
function; the interpreter's garbage collector is the extra layer ``python``.

Spans are aggregated as they close rather than kept one by one: a traced
pass opens millions of them.  For each function the tracer keeps its call
count and its self time (span time minus the time of the spans it caused).
Four rules keep the attribution honest:

* A call that returns a generator gets a second kind of span: every
  resumption of that generator is timed and charged to the enumerator's
  layer, because the enumerators do their work lazily, inside whichever
  function iterates them.
* A generator passed *into* a wrapped function (the ``contributions`` of
  ``build_qseries``, the term stream of ``Ring.from_terms``) is charged back
  to the function that was running when the call was made, so its body's
  work stays with the layer that wrote it.
* A collection by the garbage collector is charged to ``python`` and
  removed from the self time of the span it interrupted.
* Time the benchmark itself takes inside a span (its CPU-speed samples,
  reported through ``pause``) is removed from that span and charged nowhere.

Hot leaf helpers in ``SKIP`` stay unwrapped; their time is self time of
their caller.
"""
from __future__ import annotations

import gc
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("polyring", "shapes", "tableaux", "schur", "spectra", "characters",
          "twisted", "cli")

# Leaf helpers called hundreds of thousands to millions of times per pass.
SKIP = {
    "tableaux.signed_pos",
    "spectra.local_energy",
    "spectra.ground_energy_value",
    "twisted.local_energy_twisted",
}

# Methods traced besides the public module-level functions.
METHODS = {
    "polyring": {
        "Laurent": ("__add__", "__mul__"),
        "Ring": ("from_terms",),
        "QSeries": ("__init__", "__add__", "__neg__", "__sub__", "__mul__",
                    "__eq__", "compare"),
    },
    "shapes": {"SkewDiagram": ("cells",), "BorderStrip": ("realize",)},
}

TABLEAU_ENUMERATORS = ("tableaux.enumerate_sst", "tableaux.enumerate_admissible",
                       "tableaux.enumerate_L_admissible")

_GENERATOR = types.GeneratorType


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [key, start, time of child spans]
        self.self_s = defaultdict(float)  # function key -> self time
        self.calls = Counter()
        self.yields = Counter()
        self.count = Counter()  # named counters kept by the hooks
        self.active = Counter()  # open calls of the functions in _SCOPES
        self.strip_keys = set()
        self.gc_s = 0.0
        self.gc_collections = 0
        self.root_s = 0.0  # total time of spans opened with an empty stack
        self.paused_s = 0.0  # time taken from open spans by pause()
        self.nesting_errors = 0
        self._gc_start = None
        self._patched = []

    # -- span bookkeeping ------------------------------------------------

    def _close(self, frame):
        end = perf_counter()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            self.nesting_errors += 1
            if frame in stack:
                del stack[stack.index(frame):]
        else:
            stack.pop()
        dur = end - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        if stack:
            stack[-1][2] += dur
        else:
            self.root_s += dur

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self._gc_start is None or not self.stack:
            self._gc_start = None
            return
        dur = perf_counter() - self._gc_start
        self._gc_start = None
        self.gc_s += dur
        self.gc_collections += 1
        self.stack[-1][2] += dur

    def pause(self, duration):
        """Remove ``duration`` just spent on other work (the benchmark's
        speed sampling) from the self time of the open span."""
        if self.stack:
            self.stack[-1][2] += duration
            self.paused_s += duration

    def _traced_gen(self, gen, key):
        """Re-yield ``gen``, timing each resumption as a span of ``key``."""
        stack = self.stack
        yields = self.yields
        on_yield = _YIELD_HOOKS.get(key)
        while True:
            frame = [key, perf_counter(), 0.0]
            stack.append(frame)
            try:
                item = next(gen)
            except StopIteration:
                self._close(frame)
                return
            except BaseException:
                self._close(frame)
                raise
            self._close(frame)
            yields[key] += 1
            if on_yield is not None:
                on_yield(self)
            yield item

    def _wrap(self, fn, key):
        tracer = self
        stack = self.stack
        calls = self.calls
        hook = _CALL_HOOKS.get(key)
        scoped = key in _SCOPES
        traced_code = self._traced_gen.__code__

        def wrapped(*args, **kwargs):
            if stack:
                caller = stack[-1][0]
                if any(type(a) is _GENERATOR and a.gi_code is not traced_code for a in args):
                    args = tuple(
                        tracer._traced_gen(a, caller)
                        if type(a) is _GENERATOR and a.gi_code is not traced_code else a
                        for a in args)
            if hook is not None:
                hook(tracer, args, kwargs)
            if scoped:
                tracer.active[key] += 1
            frame = [key, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
                if scoped:
                    tracer.active[key] -= 1
            calls[key] += 1
            if scoped and key in _RESULT_COUNTERS:
                tracer.count[_RESULT_COUNTERS[key]] += result
            if type(result) is _GENERATOR:
                return tracer._traced_gen(result, key)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = fn.__name__
        wrapped.__qualname__ = fn.__qualname__
        return wrapped

    # -- installation ----------------------------------------------------

    def targets(self):
        """(key, function) for everything to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"ribbonchar.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{name}" not in SKIP):
                    out.append((f"{layer}.{name}", obj))
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in names:
                    out.append((f"{layer}.{cls_name}.{name}", vars(cls)[name]))
        return out

    def install(self):
        """Wrap every target in every namespace that refers to it."""
        wrappers = {}
        for key, fn in self.targets():
            wrappers[id(fn)] = (fn, self._wrap(fn, key))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "ribbonchar" or name.startswith("ribbonchar.")]
        for mod in namespaces:
            holders = [mod] + [c for c in vars(mod).values()
                               if inspect.isclass(c) and c.__module__ == mod.__name__]
            for holder in holders:
                for name, obj in list(vars(holder).items()):
                    got = wrappers.get(id(obj))
                    if got is not None and got[0] is obj:
                        setattr(holder, name, got[1])
                        self._patched.append((holder, name, obj))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        gc.callbacks.remove(self._gc_callback)
        for holder, name, obj in reversed(self._patched):
            setattr(holder, name, obj)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for key, t in self.self_s.items():
            out[key.split(".", 1)[0]] += t
        out["python"] = self.gc_s
        return out

    def summary(self, wall_s, output_bytes):
        """Per-layer metrics for one traced pass whose checks took ``wall_s``
        by the caller's clock, outside spans included and pauses left out."""
        s, calls, count, ys = self.self_s, self.calls, self.count, self.yields
        layer = self.layer_self()
        attributed = sum(layer.values())
        spanned = self.root_s - self.paused_s
        unattributed = wall_s - spanned

        def ratio(num, den):
            return num / den if den else 0.0

        fillings = sum(ys[k] for k in TABLEAU_ENUMERATORS)
        strips = ys["characters.decomposition_strips"]
        out = {f"{name}.self_s": t for name, t in layer.items() if name != "python"}
        out.update({
            "polyring.laurent_mul.calls": calls["polyring.Laurent.__mul__"],
            "polyring.laurent_mul.term_pairs": count["term_pairs"],
            "polyring.laurent_add.calls": calls["polyring.Laurent.__add__"],
            "polyring.determinant.calls": calls["polyring.determinant"],
            "polyring.determinant.self_s": s["polyring.determinant"],
            "polyring.qseries.self_s": sum(
                t for k, t in s.items()
                if k.startswith("polyring.QSeries.")
                or k in ("polyring.build_qseries", "polyring.inverse_pochhammer_series")),
            "shapes.cells.calls": calls["shapes.SkewDiagram.cells"],
            "shapes.realize.calls": calls["shapes.BorderStrip.realize"],
            "tableaux.fillings": fillings,
            "tableaux.count_LR.calls": calls["tableaux.count_LR"],
            "tableaux.lr_yield_ratio": ratio(count["lr_counted"], count["lr_fillings"]),
            "tableaux.kostka_number.calls": calls["tableaux.kostka_number"],
            "tableaux.kostka_yield_ratio": ratio(count["kostka_counted"],
                                                 count["kostka_fillings"]),
            "schur.strip_cached.calls": calls["schur.schur_strip_cached"],
            "schur.strip_cached.hit_ratio": ratio(count["strip_seen"],
                                                  calls["schur.schur_strip_cached"]),
            "schur.e_m.calls": calls["schur.e_m"],
            "spectra.configs": calls["spectra.energy"] + ys["spectra.enumerate_fiber"],
            "characters.strips_emitted": strips,
            "characters.strip_use_ratio": ratio(count["strip_lookups"], strips),
            "characters.theta.self_s": s["characters.level1_theta"],
            "characters.kostka.self_s": sum(
                s[k] for k in ("characters.kostka_foulkes", "characters.kostka_oracle",
                               "characters.kostka_rhs")),
            "twisted.fiber_configs": ys["twisted.enumerate_twisted_fiber"],
            "twisted.strips": ys["twisted.twisted_strips"],
            "twisted.sL_det.self_s": s["twisted.sL_determinant"],
            "cli.output_bytes": output_bytes,
            "python.gc_s": self.gc_s,
            "python.gc_collections": self.gc_collections,
        })
        for name, t in layer.items():
            out[f"{name}.share"] = ratio(t, wall_s)
        out["unattributed.share"] = ratio(unattributed, wall_s)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = unattributed
        # Closure: the self times must add up to the time the outermost spans
        # took; a span closed out of order or charged twice breaks it.
        out["trace.closure_error"] = ratio(spanned - attributed, wall_s)
        out["trace.nesting_errors"] = self.nesting_errors
        return out


# -- counters kept at the layer boundaries ---------------------------------

def _laurent_mul(tracer, args, _kwargs):
    a, b = args
    tracer.count["term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _strip_cached(tracer, args, kwargs):
    blocks, n = args[0], args[1]
    relation = args[2] if len(args) > 2 else kwargs.get("relation", False)
    key = (tuple(blocks), n, relation)
    if key in tracer.strip_keys:
        tracer.count["strip_seen"] += 1
    else:
        tracer.strip_keys.add(key)
    # a lookup made by the decomposition itself, not by the recursion
    stack = tracer.stack
    if tracer.active["characters.level1_decomposition"] and (
            not stack or stack[-1][0] != "schur.schur_strip_cached"):
        tracer.count["strip_lookups"] += 1


def _filling(tracer):
    if tracer.active["tableaux.count_LR"]:
        tracer.count["lr_fillings"] += 1
    if tracer.active["tableaux.kostka_number"]:
        tracer.count["kostka_fillings"] += 1


_CALL_HOOKS = {
    "polyring.Laurent.__mul__": _laurent_mul,
    "schur.schur_strip_cached": _strip_cached,
}
_YIELD_HOOKS = dict.fromkeys(TABLEAU_ENUMERATORS, _filling)
# functions whose open calls scope other counters
_SCOPES = {"tableaux.count_LR", "tableaux.kostka_number",
           "characters.level1_decomposition"}
_RESULT_COUNTERS = {"tableaux.count_LR": "lr_counted",
                    "tableaux.kostka_number": "kostka_counted"}
