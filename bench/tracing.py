"""In-memory spans and counters, attached to sisa from outside.

The tracer wraps public entry points of the installed ``sisa`` modules by
rebinding them (in every ``sisa`` module that imported the same function
object), so the program itself carries no tracing code. An entry point that
no longer exists is recorded in ``absent`` and its layer is reported as such;
the benchmark keeps running.

Coarse calls (parse, classify, score, render, evaluate) become spans with a
name, start, end, parent and request id. Per-token calls (lexicon lookup)
only bump a counter of calls and cumulative time, because one span per token
would cost more than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

perf = time.perf_counter


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    request: str | None
    start: float
    end: float = 0.0


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(len(self.spans), parent.span_id if parent else None, name, request, perf())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = perf()
            self._stack.pop()

    # -- attaching -------------------------------------------------------

    def _resolve(self, target: str):
        """``"pkg.module:Class.attr"`` or ``"pkg.module:function"`` -> (owner, attr, original)."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return None

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        owners = [owner]
        if isinstance(owner, type(sys)):
            # Functions imported by name live on in the importing modules.
            owners += [
                mod for name, mod in list(sys.modules.items())
                if mod is not owner and (name == "sisa" or name.startswith("sisa."))
                and getattr(mod, attr, None) is original
            ]
        for each in owners:
            self._patches.append((each, attr, original))
            setattr(each, attr, replacement)

    def attach(self, target: str, factory: Callable) -> bool:
        """Replace ``target`` by ``factory(original)`` until :meth:`restore`.

        Returns False, and records the target as absent, when it does not
        exist.
        """
        resolved = self._resolve(target)
        if resolved is None:
            return False
        owner, attr, original = resolved
        replacement = functools.wraps(original)(factory(original))
        self._rebind(owner, attr, original, replacement)
        return True

    def wrap_span(
        self,
        target: str,
        name: str,
        request_of: Callable | None = None,
    ) -> bool:
        """Record a span around every call of ``target``; ``request_of(args,
        kwargs)`` names the request when the call starts one."""

        def factory(original):
            def wrapper(*args, **kwargs):
                request = request_of(args, kwargs) if request_of else None
                with self.span(name, request):
                    return original(*args, **kwargs)

            return wrapper

        return self.attach(target, factory)

    def wrap_counter(self, target: str, name: str) -> bool:
        """Count calls of ``target`` and their cumulative time."""
        counter = self.counters.setdefault(name, Counter())

        def factory(original):
            def wrapper(*args, **kwargs):
                start = perf()
                result = original(*args, **kwargs)
                counter.seconds += perf() - start
                counter.calls += 1
                return result

            return wrapper

        return self.attach(target, factory)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, Counter]]:
        """A point to measure from with :meth:`since`."""
        return len(self.spans), {name: Counter(**c.__dict__) for name, c in self.counters.items()}

    def since(self, mark: tuple[int, dict[str, Counter]]) -> tuple[dict[str, dict[str, float]], dict[str, Counter]]:
        """Spans and counters recorded after ``mark``.

        Per span name: count, total, self time (duration minus the part
        covered by child spans) and the longest single span. Per counter:
        calls and seconds added since the mark.
        """
        first, before = mark
        spans = self.spans[first:]
        child_time = {span.span_id: 0.0 for span in spans}
        for span in spans:
            if span.parent in child_time:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, dict[str, float]] = {}
        for span in spans:
            duration = span.end - span.start
            entry = stats.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span.span_id]
            entry["max_s"] = max(entry["max_s"], duration)
        counters = {}
        for name, counter in self.counters.items():
            base = before.get(name, Counter())
            counters[name] = Counter(counter.calls - base.calls, counter.seconds - base.seconds)
        return stats, counters

    def write(self, path) -> None:
        """Write spans as JSON lines, then one line per counter."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")
            for name, counter in sorted(self.counters.items()):
                out.write(json.dumps({"counter": name, **counter.__dict__}) + "\n")
