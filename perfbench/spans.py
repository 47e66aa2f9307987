"""Spans around the program's entry points, recorded from outside the program.

A Tracer replaces a function at the module attribute its caller looks it up
under (for example ``handover.harness.sample_grasps``) with a wrapper that
records a span: name, start, end, parent span, run id and thread. Each thread
keeps its own span stack, so spans of runs on other threads never become
children of one another and self times cannot go negative. No program file
is edited; ``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int  # id of the span that opened the run (a CLI call or a pipeline run)
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.untraced: list[str] = []  # names whose entry point or counter is missing
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._seen: dict[str, dict] = {}
        self._patched: list = []

    # -- installing wrappers ---------------------------------------------------

    def install(self, name, sites, count=None, starts_run=False) -> bool:
        """Wrap the function found at each (module, attribute) site under one
        span name. A name with no site left is recorded as untraced."""
        found = False
        for module_name, attr in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, self._wrap(name, fn, count, starts_run))
            self._patched.append((module, attr, fn))
            found = True
        if not found:
            self.untraced.append(name)
        return found

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn, count, starts_run):
        local = self._local
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            run = parent.run if parent is not None and not starts_run else sid
            span = Span(sid, name, parent.id if parent else None, run, threading.get_ident(), 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                self._count(name, count, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, count, signature, args, kwargs, result) -> None:
        # counters read arguments by name; a renamed parameter must cost the
        # counter, never the traced call
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(self, name, bound.arguments, result)
        except Exception as exc:  # noqa: BLE001 - reported as untraced below
            with self._lock:
                label = f"{name} counters ({type(exc).__name__}: {exc})"
                if label not in self.untraced:
                    self.untraced.append(label)

    # -- counters --------------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def repeat(self, name: str, key, keep) -> None:
        """Count a call whose inputs were already seen in this CLI call.
        `keep` holds the inputs alive so an id() in `key` stays unique."""
        with self._lock:
            seen = self._seen.setdefault(name, {})
            if key in seen:
                self.counts[name + ".repeats"] += 1
            else:
                seen[key] = keep

    def new_call(self) -> None:
        """Start a new CLI call: repeats are counted within one call only."""
        with self._lock:
            self._seen = {}


# -- reading spans ---------------------------------------------------------------


def _own_times(spans) -> list[tuple[Span, float]]:
    """Each span with its self time: its duration minus the time its child
    spans cover. `spans` must hold every child of every span in it."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [(s, s.duration - covered[s.id]) for s in spans]


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, call count)."""
    out: dict[str, tuple[float, int]] = {}
    for s, own in _own_times(spans):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + own, calls + 1)
    return out


def check(spans, tol: float = 1e-6) -> list[str]:
    """Problems that a broken span tree would show: a negative self time, or
    self times on one thread adding up to more than the wall time that thread
    spent inside spans."""
    problems = []
    per_thread: dict[int, list[float]] = {}
    for s, own in _own_times(spans):
        if own < -tol:
            problems.append(f"span {s.name}#{s.id} has negative self time {own:.6f} s")
        acc = per_thread.setdefault(s.thread, [0.0, s.start, s.end])
        acc[0] += own
        acc[1] = min(acc[1], s.start)
        acc[2] = max(acc[2], s.end)
    for thread, (own_sum, first, last) in per_thread.items():
        if own_sum > (last - first) + tol:
            problems.append(
                f"thread {thread}: self times sum to {own_sum:.6f} s, "
                f"more than its {last - first:.6f} s wall time"
            )
    return problems


def busy_time(spans, name: str) -> tuple[float, float]:
    """(sum of durations, length of the union of intervals) of the spans
    named `name`. Their ratio is how many ran at once on average."""
    intervals = sorted((s.start, s.end) for s in spans if s.name == name)
    total = sum(b - a for a, b in intervals)
    union = 0.0
    cur_a = cur_b = None
    for a, b in intervals:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                union += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        union += cur_b - cur_a
    return total, union
