"""Span tracing for the benchmark's traced run.

The benchmark never edits the program: :func:`install` replaces public
layer functions *at the names the program calls them by* (a module global
such as ``repro.features.pipeline.mmrfs``, or a method on a class) with
wrappers that record one span per call.  Each span holds its name, start,
end, parent span and the id shared by every span of one experiment or one
serving request.  Spans stay in memory; :meth:`Tracer.write` dumps them
as JSON lines when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover.  :func:`guard` fails the traced run when an expected span
never fired, so a refactor that routes around a wrapper cannot silently
report 0 s for a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """In-memory span recorder; parents follow a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id) -> None:
        """Id given to the spans this thread records from now on."""
        self._local.trace = trace_id

    @contextmanager
    def span(self, name: str):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent,
            "trace": getattr(self._local, "trace", None),
            "start": time.perf_counter(),
        }
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, path: Path) -> None:
        with self._lock:
            lines = [json.dumps(record, sort_keys=True) for record in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on its thread one after another, so the
    covered time is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


@dataclass(frozen=True)
class Patch:
    """One traced call site: ``owner.attribute`` records span ``name``.

    ``when`` sees the call's arguments first and may return False to let
    the call run unrecorded; ``count`` turns the call's result into
    counts stored on the span.
    """

    owner: Any
    attribute: str
    name: str
    when: Callable | None = None
    count: Callable | None = None


def _wrap(tracer: Tracer, fn, patch: Patch):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if patch.when is not None and not patch.when(*args, **kwargs):
            return fn(*args, **kwargs)
        with tracer.span(patch.name) as record:
            result = fn(*args, **kwargs)
            if patch.count is not None:
                record.update(patch.count(result))
            return result

    return traced


def install(tracer: Tracer, patches: list[Patch]) -> list:
    """Wrap every patch's call site; returns the undo list for
    :func:`uninstall`."""
    undo = []
    for patch in patches:
        original = inspect.getattr_static(patch.owner, patch.attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(tracer, original.__func__, patch))
        else:
            replacement = _wrap(tracer, original, patch)
        undo.append(
            (patch.owner, patch.attribute, original, patch.attribute in vars(patch.owner))
        )
        setattr(patch.owner, patch.attribute, replacement)
    return undo


def uninstall(undo: list) -> None:
    for owner, attribute, original, own in reversed(undo):
        if own:
            setattr(owner, attribute, original)
        else:  # the attribute was inherited: drop the shadowing wrapper
            delattr(owner, attribute)


def guard(spans: list[dict], expected, forbidden=(), window=None) -> list[str]:
    """Coverage problems: expected spans that never fired, and forbidden
    spans that overlap ``window`` (a ``(start, end)`` pair)."""
    fired = {s["name"] for s in spans}
    problems = [f"span {name!r} never fired" for name in expected if name not in fired]
    if window is not None:
        lo, hi = window
        for s in spans:
            if s["name"] in forbidden and s["start"] < hi and s["end"] > lo:
                problems.append(f"span {s['name']!r} ran inside the timed window")
    return problems
