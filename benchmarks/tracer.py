"""Spans around merocon's public functions, installed from outside the package.

The tracer replaces each wrapped function in every merocon module namespace
that binds it (``poly_roots`` lives in both ``merocon.algebra`` and
``merocon.fields``, for instance), and methods on their classes.  Each call
becomes a span; a span's self time is its duration minus the durations of the
wrapped calls it made on the same thread.  Spans are aggregated as they close,
so memory does not grow with the number of calls.

``restore`` puts every original back, and ``assert_pristine`` proves that no
wrapper is left anywhere in the package, so untraced runs and correctness
checks see the original functions.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

_MARK = "__merocon_bench_wrapped__"

# (module, attribute path, metric prefix, exception types counted as errors)
TARGETS = (
    ("merocon.algebra", "poly_roots", "algebra.poly_roots", ("RootFindingError",)),
    ("merocon.algebra", "RatFn.make", "algebra.RatFn.make", ()),
    ("merocon.algebra", "TruncSeries.mul", "algebra.TruncSeries.mul", ()),
    ("merocon.algebra", "TruncSeries.recip", "algebra.TruncSeries.recip", ()),
    ("merocon.algebra", "TruncSeries.compose", "algebra.TruncSeries.compose", ()),
    ("merocon.algebra", "TruncSeries.reversion", "algebra.TruncSeries.reversion", ()),
    ("merocon.fields", "connection_data", "fields.connection_data", ()),
    ("merocon.fields", "characteristic_directions", "fields.characteristic_directions", ()),
    ("merocon.fields", "monodromy_info", "fields.monodromy_info", ()),
    ("merocon.fields", "leaf_closure_class", "fields.leaf_closure_class", ()),
    ("merocon.germs", "classify", "germs.classify", ()),
    ("merocon.germs", "normalize_formal", "germs.normalize_formal", ()),
    ("merocon.germs", "transform_germ", "germs.transform_germ", ()),
    ("merocon.atlas", "classify_quadratic", "atlas.classify_quadratic", ()),
    ("merocon.atlas", "dynamics_dossier", "atlas.dynamics_dossier", ()),
    ("merocon.cli", "main", "cli.main", ()),
    ("merocon.cli", "build_report", "cli.build_report", ()),
    ("merocon.flow", "integrate", "flow.integrate", ()),
    ("merocon.flow", "detect_self_intersections", "flow.detect_self_intersections", ()),
    ("merocon.flow", "classify_omega_limit", "flow.classify_omega_limit", ()),
    ("merocon.flow", "loop_multiplier", "flow.loop_multiplier", ()),
    ("merocon.flow", "batch_sweep", "flow.batch_sweep", ()),
)

OMEGA_CLASSES = (
    "pole",
    "closed",
    "accumulates_closed",
    "cycle_candidate",
    "infinitely_self_intersecting",
    "undetermined",
)

_INTEGRATE = "flow.integrate"
_SWEEP = "flow.batch_sweep"


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "merocon" or name.startswith("merocon."))
    ]


def _resolve(module: str, path: str):
    """(owner object, attribute name, raw attribute) for a dotted target."""
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = owner.__dict__[attr]
    return owner, attr, raw


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0


class Tracer:
    """Aggregated spans and flow counters for one traced phase."""

    def __init__(self) -> None:
        self.stats = {prefix: _Stat() for _, _, prefix, _ in TARGETS}
        self.counters: Counter = Counter()
        self.sweep_item_s = 0.0
        self.sweep_workers = 0
        self._sweep_threads: set[int] = set()
        self._active_sweeps = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        algebra = sys.modules["merocon.algebra"]
        for module, path, prefix, error_names in TARGETS:
            owner, attr, raw = _resolve(module, path)
            errors = tuple(getattr(algebra, n) for n in error_names)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(prefix, raw.__func__, errors))
            else:
                wrapped = self._wrap(prefix, raw, errors)
            if "." in path:
                self._patch(owner, attr, raw, wrapped)
                continue
            # every module namespace binding the same function object
            for mod in _package_modules():
                if mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- spans -------------------------------------------------------------

    def _wrap(self, prefix: str, fn, errors: tuple):
        stat = self.stats[prefix]
        local = self._local
        lock = self._lock
        clock = time.perf_counter
        observe = {
            _INTEGRATE: self._observe_integrate,
            "flow.detect_self_intersections": self._observe_crossings,
            "flow.classify_omega_limit": self._observe_omega,
        }.get(prefix)
        is_sweep = prefix == _SWEEP

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0, prefix]  # child time, name
            stack.append(frame)
            if is_sweep:
                with lock:
                    self._active_sweeps += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:  # an empty tuple catches nothing
                with lock:
                    stat.errors += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                with lock:
                    stat.calls += 1
                    stat.self_s += dur - frame[0]
                    stat.total_s += dur
                    if is_sweep:
                        self._end_sweep()
                    elif prefix == _INTEGRATE:
                        self._sweep_item(parent, dur)
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, _MARK, prefix)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _end_sweep(self) -> None:
        self._active_sweeps -= 1
        self.sweep_workers = max(self.sweep_workers, len(self._sweep_threads))
        self._sweep_threads = set()

    def _sweep_item(self, parent, dur: float) -> None:
        """A top-level integrate under a batch is one sweep item."""
        if (parent is None and self._active_sweeps) or (
            parent is not None and parent[1] == _SWEEP
        ):
            self.sweep_item_s += dur
            self._sweep_threads.add(threading.get_ident())

    # -- counters observed on results ----------------------------------------

    def _observe_integrate(self, traj) -> None:
        steps = traj.diagnostics.get("steps")
        if steps is None:
            # two-sided: the one-sided inner spans carry the step counts
            return
        accepted = len(traj.samples) - 1
        switches = sum(1 for e in traj.events if e.kind == "chart_switch")
        with self._lock:
            self.counters["steps_attempted"] += steps
            self.counters["steps_accepted"] += accepted
            self.counters["samples"] += len(traj.samples)
            self.counters["chart_switches"] += switches

    def _observe_crossings(self, events) -> None:
        with self._lock:
            self.counters["crossings"] += len(events)

    def _observe_omega(self, result) -> None:
        with self._lock:
            self.counters["omega." + result[0]] += 1

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}

        def both(prefix: str) -> None:
            out[prefix + ".calls"] = (s[prefix].calls, "count")
            out[prefix + ".self_s"] = (s[prefix].self_s, "s")

        def self_only(prefix: str) -> None:
            out[prefix + ".self_s"] = (s[prefix].self_s, "s")

        both("algebra.poly_roots")
        out["algebra.poly_roots.errors"] = (s["algebra.poly_roots"].errors, "count")
        both("algebra.RatFn.make")
        for op in ("mul", "recip", "compose", "reversion"):
            both("algebra.TruncSeries." + op)
        for name in (
            "connection_data",
            "characteristic_directions",
            "monodromy_info",
            "leaf_closure_class",
        ):
            self_only("fields." + name)
        for name in ("classify", "normalize_formal", "transform_germ"):
            both("germs." + name)
        both("atlas.classify_quadratic")
        self_only("atlas.dynamics_dossier")
        self_only("cli.main")
        self_only("cli.build_report")

        c = self.counters
        attempted = c["steps_attempted"]
        both("flow.integrate")
        out["flow.steps_attempted"] = (attempted, "count")
        out["flow.steps_rejected"] = (attempted - c["steps_accepted"], "count")
        out["flow.step_accept_ratio"] = (
            c["steps_accepted"] / attempted if attempted else 0.0,
            "ratio",
        )
        out["flow.samples"] = (c["samples"], "count")
        out["flow.chart_switches"] = (c["chart_switches"], "count")
        both("flow.detect_self_intersections")
        out["flow.crossings"] = (c["crossings"], "count")
        both("flow.classify_omega_limit")
        for omega in OMEGA_CLASSES:
            out["flow.omega." + omega] = (c["omega." + omega], "count")
        self_only("flow.loop_multiplier")
        wall = s[_SWEEP].total_s
        out["flow.batch_sweep.wall_s"] = (wall, "s")
        out["flow.batch_sweep.workers"] = (self.sweep_workers, "count")
        out["flow.batch_sweep.parallelism"] = (
            self.sweep_item_s / wall if wall else 0.0,
            "ratio",
        )
        return out


def assert_pristine() -> None:
    """Raise if any merocon binding or class attribute is still a wrapper."""
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{mod.__name__}.{attr} is still traced")
            if isinstance(value, type) and value.__module__.startswith("merocon"):
                for name, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if hasattr(fn, _MARK):
                        raise RuntimeError(f"{value.__name__}.{name} is still traced")
