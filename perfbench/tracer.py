"""Spans around the functions of a package, recorded from outside it.

`install` wraps every selected function of every loaded module of the
package, and binds the wrapper under every name in every one of those
modules that refers to the same function object.  Modules that import with
`from .x import f` hold their own binding, so patching only the defining
module would miss their calls.  `restore` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "tag")

    def __init__(self, name, parent, start, end=None, tag=None):
        self.name = name
        self.parent = parent      # index into the span list, -1 at top level
        self.start = start
        self.end = end
        self.error = None         # exception class name when the call raised
        self.tag = tag


class Tracer:
    """Keeps spans in memory; `hooks[name](args, kwargs, result)` sees each
    successful call's result, outside the span, to accumulate counters."""

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.tag = None
        self.hooks = hooks or {}
        self._stack: list[int] = []

    def wrap(self, name, func):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0, tag=self.tag)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                span.error = type(exc).__name__
                raise
            span.end = perf_counter()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced


def _package_modules(package):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, package: str, select) -> list:
    """Wrap each function that `select(qualname)` accepts, wherever it is bound.

    The qualname is the defining module without the package prefix, a dot,
    and the function name.  Returns the (module, attribute, original) list
    that `restore` takes.
    """
    modules = _package_modules(package)
    wrappers = {}
    for mod in modules:
        short = mod.__name__[len(package) + 1:] or mod.__name__
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                qualname = f"{short}.{attr}"
                if select(qualname):
                    wrappers[id(obj)] = (obj, tracer.wrap(qualname, obj))
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, obj))
    return patched


def restore(patched: list) -> bool:
    """Put every original back; True when each binding is the original again."""
    for mod, attr, obj in reversed(patched):
        setattr(mod, attr, obj)
    return all(getattr(mod, attr) is obj for mod, attr, obj in patched)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def nesting_ok(spans: list[Span]) -> bool:
    """Every child span lies inside its parent's interval."""
    return all(s.parent < 0 or (spans[s.parent].start <= s.start
                                and s.end <= spans[s.parent].end)
               for s in spans)


def uncovered(spans: list[Span], lo: float, hi: float) -> float:
    """Time in [lo, hi] that no top-level span covers."""
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    return (hi - lo) - _covered(top, lo, hi)


def summarize(spans: list[Span], tag=None) -> dict:
    """Per function name: calls, total_s (inclusive), self_s and failed,
    over all spans or only those carrying `tag`."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
    for s, own in zip(spans, self_times(spans)):
        if tag is not None and s.tag != tag:
            continue
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        row["failed"] += s.error is not None
    return dict(out)
