"""Run-time span tracing of the gridfluct package, installed from outside.

``Tracer.install`` wraps every public function of every loaded
``gridfluct`` module, plus the public methods and ``__post_init__`` of its
classes, and rebinds each wrapper wherever the original is bound by name:
at its defining module and at every module that imported it (so
``pipeline.asymptotic_variance_numeric`` and
``variance.asymptotic_variance_numeric`` share one wrapper).  A function
stored anywhere else at import time, such as in a dict, is not rebound and
is timed as part of its caller.  ``uninstall`` restores every binding.

Spans ``(name, start_ns, end_ns, parent, op)`` are kept in memory and
written out by the runner when the run ends.  Work inside a function that
is not itself a span, such as private helpers and numpy calls, counts as
that function's self time.  Newton iterations and step halvings happen
inside ``swing.solve_synchronous_state`` and cannot be seen from here;
counting them needs tracing inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

PACKAGE = "gridfluct"

# Per-value helpers called once per CSV field (about a million times for an
# n=300 report).  A span each would multiply the serializer's time, so they
# are left unwrapped and count as self time of the serializer calling them.
UNWRAPPED = {"netfile.format_number"}

# Functions whose self time forms the pseudo-layer ``pipeline.serialize``.
SERIALIZE = {
    "pipeline.report_rows",
    "pipeline.write_rows_csv",
    "pipeline.write_report",
    "pipeline.emit_report",
    "pipeline.write_comparison",
    "pipeline.write_sweep",
}


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Installs span-recording wrappers; a context manager that uninstalls on exit."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.recording = False
        self.op = -1
        self.observers: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = _package_modules()
        wrappers: dict[int, tuple[Callable, Callable]] = {}

        def wrap(func: Callable, module_name: str) -> Callable:
            if id(func) not in wrappers:
                name = f"{_short(module_name)}.{func.__qualname__}"
                wrappers[id(func)] = (func, self._wrapper(func, name))
            return wrappers[id(func)][1]

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    if f"{_short(module.__name__)}.{obj.__qualname__}" not in UNWRAPPED:
                        wrap(obj, module.__name__)
                elif inspect.isclass(obj):
                    for method_name, method in list(vars(obj).items()):
                        if inspect.isfunction(method) and (
                            method_name == "__post_init__" or not method_name.startswith("_")
                        ):
                            self._patch(obj, method_name, wrap(method, module.__name__))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.recording = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, func: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def recording_op(self, op: int):
        """Record spans of operation ``op`` inside the block."""
        self.op, self.recording = op, True
        try:
            yield
        finally:
            self.recording = False


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class SpanSummary:
    """Self time (ns) and call count per span name, and self time per layer."""

    def __init__(self, spans):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.layer_ns: dict[str, int] = defaultdict(int)
        for (name, *_), own in zip(spans, self_times(spans)):
            self.self_ns[name] += own
            self.calls[name] += 1
            self.layer_ns[name.split(".", 1)[0]] += own
            if name in SERIALIZE:
                self.layer_ns["pipeline.serialize"] += own
