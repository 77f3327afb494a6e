"""Span tracer for the qlease benchmark.

Spans are recorded from the benchmark's side, by replacing the traced
functions with timing wrappers.  The package modules import each other
with ``from .x import y``, so a function lives under its name in every
calling module as well as in the defining one; :meth:`Tracer.install`
replaces it in every ``qlease`` module that holds it, and
:meth:`Tracer.uninstall` puts the originals back.

Spans nest on one stack (the benchmark is a single thread).  Each span
name accumulates its call count, its inclusive time and its self time:
the span's duration minus the time covered by the spans it caused.
Spans are aggregated by name as they close rather than kept one by one,
so memory stays flat however many trials a pass runs.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    inputs: set = field(default_factory=set)


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``owner`` is a module name (``qlease.qmath``) or a class path
    (``qlease.games:PirateMap``); ``attr`` is the function or method.
    ``key`` maps the call arguments to a hashable input, for layers that
    report how many distinct inputs they were asked for.  ``subclasses``
    also wraps overrides of the method in subclasses of the owner class,
    under the same span name.
    """

    span: str
    owner: str
    attr: str
    key: object = None
    subclasses: bool = False


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        # one entry per open span: time covered by its child spans
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, key=None):
        """Decorator factory: time calls of ``fn`` as span ``name``."""
        stats = self.stats.setdefault(name, SpanStats())
        child_time = self._child_time
        clock = time.perf_counter

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                child_time.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    children = child_time.pop()
                    if child_time:
                        child_time[-1] += dur
                    stats.calls += 1
                    stats.total_s += dur
                    stats.self_s += dur - children
                    if key is not None:
                        stats.inputs.add(key(*args, **kwargs))

            return wrapper

        return decorate

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.self_s = 0.0
            stats.inputs.clear()

    def snapshot(self) -> dict[str, tuple[int, float, float, int]]:
        return {
            name: (s.calls, s.total_s, s.self_s, len(s.inputs))
            for name, s in self.stats.items()
        }

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qlease" or name.startswith("qlease."))
        ]
        for t in self.targets:
            if ":" in t.owner:
                self._install_method(t)
            else:
                self._install_function(t, modules)

    def _install_function(self, t: Target, modules) -> None:
        original = getattr(sys.modules[t.owner], t.attr)
        wrapper = self.span(t.span, t.key)(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def _install_method(self, t: Target) -> None:
        module_name, cls_name = t.owner.split(":")
        module = sys.modules[module_name]
        base = getattr(module, cls_name)
        classes = [base]
        if t.subclasses:
            classes += [
                c for c in vars(module).values()
                if isinstance(c, type) and c is not base and issubclass(c, base)
            ]
        for cls in classes:
            if t.attr in vars(cls):
                self._patch(cls, t.attr, self.span(t.span, t.key)(vars(cls)[t.attr]))

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
