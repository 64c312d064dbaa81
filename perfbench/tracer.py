"""Spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces every public function and public method of the
measured modules with a wrapper that opens a span, and rebinds the same name
in every package module that imported the function by name. ``uninstall()``
puts the originals back.

Spans are kept in memory. A span records its name, its parent, start, end and
self time (its duration minus the time its child spans cover). Calls of the
functions in ``HOT`` run thousands of times per operation; they are not stored
one by one but summed, with everything they call, into the nearest stored
ancestor (``agg``: name -> [calls, total_s, self_s]).
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("kernels", "compressors", "objectives", "optimizers", "harness", "chain_analysis")
PACKAGE = "markosparse"

HOT = frozenset({
    "kernels.step_mask", "kernels.python_impl",
    "compressors.Compressor.compress", "compressors.sparsify", "compressors.natural_compress",
    "compressors.sample_mask", "compressors.perm_k_masks",
    "compressors.banlast_probabilities", "compressors.kawasaki_probabilities",
    "compressors.apply_activation", "compressors.activation_normalize",
    "compressors.activation_softmax", "compressors.activation_simplex_project",
    "objectives.loss_and_gradient", "objectives.ShardedProblem.shard_loss_grad",
    "objectives.ShardedProblem.full_loss_grad", "objectives.Dataset.row_pairs",
    "optimizers.mqsgd_step", "optimizers.amqsgd_step", "optimizers.diana_step",
    "chain_analysis.sequential_mask_law",
})


class _Frame:
    __slots__ = ("name", "record", "owner", "child_s")

    def __init__(self, name, record, owner):
        self.name = name
        self.record = record    # the stored span, or None when aggregated
        self.owner = owner      # stored span that receives aggregated calls
        self.child_s = 0.0


class Tracer:
    def __init__(self, observers=None):
        self.spans = []
        self.counters = defaultdict(float)
        self.observers = observers or {}   # name -> f(result, bound_args, counters)
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and (name in HOT or parent.record is None):
            frame = _Frame(name, None, parent.owner)
        else:
            record = {"id": len(self.spans), "parent": parent.owner["id"] if parent else None,
                      "name": name, "start": 0.0, "end": 0.0, "self_s": 0.0, "agg": {}}
            self.spans.append(record)
            frame = _Frame(name, record, record)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        total = end - start
        self_s = total - frame.child_s
        if self._stack:
            self._stack[-1].child_s += total
        if frame.record is None:
            agg = frame.owner["agg"].setdefault(frame.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += total
            agg[2] += self_s
        else:
            frame.record.update(start=start - self._t0, end=end - self._t0, self_s=self_s)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield frame.record
        finally:
            self._exit(frame, start, time.perf_counter())

    def _wrap(self, name, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, time.perf_counter())
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(result, bound.arguments, self.counters)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        package = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    # modules that did `from .x import f` hold their own binding
                    for holder in package:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, name, obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, fn, self._wrap(f"{short}.{attr}.{meth}", fn))

    def _patch(self, target, name, original, wrapper):
        setattr(target, name, wrapper)
        self._patches.append((target, name, original))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def totals(self, roots=None):
        """name -> [calls, total_s, self_s], over the spans under `roots`
        (span ids of top-level spans) or over all spans."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for rec in self.spans:
            if roots is not None and self._root_of(rec) not in roots:
                continue
            t = out[rec["name"]]
            t[0] += 1
            t[1] += rec["end"] - rec["start"]
            t[2] += rec["self_s"]
            for name, (calls, total, self_s) in rec["agg"].items():
                t = out[name]
                t[0] += calls
                t[1] += total
                t[2] += self_s
        return out

    def calls_within(self, ancestor, name):
        """Calls of `name` made anywhere below a span named `ancestor`."""
        count = 0
        for rec in self.spans:
            if self._has_ancestor(rec, ancestor):
                count += rec["agg"].get(name, (0,))[0]
                if rec["name"] == name:
                    count += 1
        return count

    def _has_ancestor(self, rec, name):
        while rec is not None:
            if rec["name"] == name:
                return True
            rec = None if rec["parent"] is None else self.spans[rec["parent"]]
        return False

    def _root_of(self, rec):
        while rec["parent"] is not None:
            rec = self.spans[rec["parent"]]
        return rec["id"]
