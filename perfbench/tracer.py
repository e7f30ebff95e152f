"""Outside-in span tracer for the ``sten`` package.

``sten`` modules bind functions with ``from .x import f``, so one function can
be reachable through several module globals (``gru_forward`` is bound in
``ndkernel``, ``networks``, ``training``, ``scoring`` and ``objectives``).
The tracer replaces the function at every such binding with a wrapper that
records a span, and puts every original back on exit.  Nothing inside
``sten`` is edited, and an untraced run never installs a wrapper.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    run: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """A function to trace.

    ``count(args, kwargs, result)`` returns work counts computed from the
    call's arguments and result.  ``before(args, kwargs)`` may replace the
    arguments inside the span and return counts of its own.
    """

    count: Callable[[tuple, dict, object], dict] | None = None
    before: Callable[[tuple, dict], tuple[tuple, dict, dict]] | None = None


def package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records one span per call of each target while installed.

    Use as a context manager; ``run`` labels the spans recorded next, so
    spans of one set-up or one measured pass share an identifier.
    """

    def __init__(self, targets: dict[str, Target], package: str = "sten"):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = package_modules(self.package)
        for qualname, target in self.targets.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            orig = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
            wrapper = self._wrap(qualname, orig, target)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def bindings(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original function) for every binding wrapped."""
        return list(self._patched)

    def _wrap(self, name: str, fn, target: Target):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, len(spans), stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                if target.before is not None:
                    args, kwargs, span.counts = target.before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.count is not None:
                span.counts.update(target.count(args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Calls are nested on one thread, so children of a span never overlap and
    the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.s
    return [sp.s - c for sp, c in zip(spans, child)]


def layer_totals(spans: list[Span], runs: list[str]) -> dict[str, dict[str, float]]:
    """Per target and field: the median over ``runs`` of each run's total.

    Fields are ``calls``, ``s`` (time inside the calls), ``self_s`` and every
    count the target records.  A run that never called a target counts as 0.
    """
    selfs = self_times(spans)
    per_run: dict[str, dict[str, dict[str, float]]] = {}
    for sp, self_s in zip(spans, selfs):
        if sp.run not in runs:
            continue
        tot = per_run.setdefault(sp.name, {}).setdefault(sp.run, {})
        for key, val in (("calls", 1), ("s", sp.s), ("self_s", self_s), *sp.counts.items()):
            tot[key] = tot.get(key, 0) + val
    out: dict[str, dict[str, float]] = {}
    for name, by_run in per_run.items():
        keys = {k for tot in by_run.values() for k in tot}
        out[name] = {k: statistics.median(by_run.get(r, {}).get(k, 0) for r in runs)
                     for k in keys}
    return out
