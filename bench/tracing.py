"""Per-module timing of entpow from outside: wrappers installed by the benchmark.

`Tracer.install()` replaces every module binding of every public entpow
function with a timing wrapper (``from .witnesses import f`` copies `f` into
`power` and `scans`, so each copy is replaced), plus `dual_apply` and
`__init__` on the channel classes and scipy's `minimize_scalar` as called by
`witnesses`. `uninstall()` restores the originals; entpow's files are never
edited.

Each wrapped call is a frame on a per-thread stack. A frame's self time is
its duration minus the union of its children's intervals: children on the
same thread run one after another, so their durations add; calls made by
scan pool worker threads outside any frame are children of the open
`run_scan` and are merged as intervals, since they overlap. Hot leaves such as
`numerical_rank` are aggregated (count and time) without a span record.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

MODULES = ("tensor", "states", "channels", "witnesses", "power", "scans", "serialize", "cli")

# Called up to hundreds of thousands of times per run: aggregate only.
HOT_LEAVES = frozenset({
    "tensor.numerical_rank", "tensor.as_matrix", "tensor.as_vector", "tensor.dagger",
    "tensor.swap_matrix", "witnesses.measurement_scan_min",
})

CHANNEL_CLASSES = ("KrausChannel", "MeasurementChannel", "RandomUnitaryChannel",
                   "MixingChannel", "RankBoostChannel")
DUAL_CLASSES = ("KrausChannel", "MeasurementChannel", "MixingChannel")


class _Frame:
    __slots__ = ("name", "start", "child", "intervals", "span")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.intervals = None  # set on frames that adopt worker-thread calls
        self.span = span  # -1 for hot leaves, which record no span


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spread_max = 0.0  # largest restart spread of any min_over_products call
        self.spans: list[tuple] = []  # (id, name, parent id, thread id, start, end)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopter: _Frame | None = None
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._observers = {
            "witnesses.min_over_products": self._observe_min_over_products,
            "power.classify_kraus": self._observe_classify,
            "power.certify_kraus_channel": self._observe_certify,
            "channels.build": self._observe_build,
            "scans.run_scan": self._observe_scan,
        }

    # -- frames ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        leaf = name in HOT_LEAVES
        adopts = name == "scans.run_scan"  # its pool workers' calls become its children
        observe = self._observers.get(name)
        tracer = self
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(name, clock(), -1 if leaf else next(ids))
            if adopts:
                frame.intervals = []
                outer, tracer._adopter = tracer._adopter, frame
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopts:
                    tracer._adopter = outer
                end = clock()
                stack.pop()
                own = tracer._close(frame, end, stack)
            if observe is not None:
                observe(args, kwargs, result, own, stack)
            return result

        return wrapper

    def _close(self, frame: _Frame, end: float, stack: list) -> float:
        dur = end - frame.start
        covered = frame.child
        if frame.intervals:
            covered += _union_length(frame.intervals, frame.start, end)
        own = dur - covered
        name = frame.name
        if stack:
            parent = stack[-1]
            if parent.intervals is not None:
                parent.intervals.append((frame.start, end))
            else:
                parent.child += dur
            parent_span = next((f.span for f in reversed(stack) if f.span >= 0), -1)
        else:
            adopter = self._adopter
            parent_span = -1
            if adopter is not None:  # a scan pool worker thread
                with self._lock:
                    adopter.intervals.append((frame.start, end))
                parent_span = adopter.span
        with self._lock:
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += own
            if frame.span >= 0:
                self.spans.append((frame.span, name, parent_span, threading.get_ident(),
                                   frame.start, end))
        return own

    # -- observers: counts read from arguments and results ---------------

    def _observe_min_over_products(self, args, kwargs, result, own, stack):
        dims = args[1] if len(args) > 1 else kwargs["dims"]
        label = "x".join(str(d) for d in dims)
        with self._lock:
            self.self_time[f"witnesses.min_over_products.{label}"] += own
            self.counts["witnesses.min_over_products.restarts"] += result.restarts_used
            self.counts["witnesses.min_over_products.converged"] += bool(result.converged)
            self.spread_max = max(self.spread_max, result.spread)

    def _observe_classify(self, args, kwargs, result, own, stack):
        with self._lock:
            self.counts["power.classify_kraus.product_preserving"] += result.is_product_preserving

    def _observe_certify(self, args, kwargs, result, own, stack):
        nested = any(f.name == "power.channel_schmidt_number_bounds" for f in stack)
        verdict = {"stochastically_nonentangling": "sne"}.get(result.verdict, result.verdict)
        with self._lock:
            self.counts["power.certify_kraus_channel.nested_calls"] += nested
            self.counts[f"power.verdicts.{verdict}"] += 1

    def _observe_build(self, args, kwargs, result, own, stack):
        if any(f.name == "channels.build" for f in stack):
            return  # a subclass __init__ calling its base: one build
        with self._lock:
            self.counts["channels.builds"] += 1
            self.counts["channels.kraus_ops"] += len(args[0].kraus)

    def _observe_scan(self, args, kwargs, result, own, stack):
        with self._lock:
            self.counts["scans.points"] += len(result.rows)

    def _count_minimize_scalar(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            with tracer._lock:
                tracer.counts["witnesses.minimize_scalar.calls"] += 1
                tracer.counts["witnesses.minimize_scalar.nfev"] += int(res.nfev)
            return res

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import dataclasses
        import importlib

        import scipy.optimize

        pkg = importlib.import_module("entpow")
        modules = [pkg] + [importlib.import_module(f"entpow.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("entpow."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[id(obj)])

        channels = importlib.import_module("entpow.channels")
        for cls_name in CHANNEL_CLASSES:
            cls = getattr(channels, cls_name)
            self._patch(cls, "__init__", self._wrap("channels.build", cls.__dict__["__init__"]))
        for cls_name in DUAL_CLASSES:
            cls = getattr(channels, cls_name)
            self._patch(cls, "dual_apply",
                        self._wrap("channels.dual_apply", cls.__dict__["dual_apply"]))

        # Scenario records hold direct references taken at import time.
        scans = importlib.import_module("entpow.scans")
        for key, scenario in list(scans.SCENARIOS.items()):
            fields = {f.name: wrappers[id(getattr(scenario, f.name))]
                      for f in dataclasses.fields(scenario)
                      if id(getattr(scenario, f.name)) in wrappers}
            if fields:
                self._patches.append((scans.SCENARIOS, key, scenario))
                scans.SCENARIOS[key] = dataclasses.replace(scenario, **fields)

        self._patch(scipy.optimize, "minimize_scalar",
                    self._count_minimize_scalar(scipy.optimize.minimize_scalar))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items()
                   if name.startswith(prefix) and name.count(".") == 1)
