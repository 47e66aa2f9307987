"""Tests of the benchmark's own tracer and digests.

    python3 -m pytest perfbench/test_spans.py
"""
import sys
import threading
import time
import types

import pytest

from run import payload_digest
from spans import Span, Tracer, busy_time, check, self_times


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_layers")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) * 2

    mod.inner = inner
    mod.outer = outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_threads_keep_their_own_span_stacks(fake_module):
    tracer = Tracer()
    tracer.install("outer", [("fake_layers", "outer")], starts_run=True)
    tracer.install("inner", [("fake_layers", "inner")])
    threads = [
        threading.Thread(target=lambda: [fake_module.outer(i) for i in range(3)])
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tracer.uninstall()

    assert check(tracer.spans) == []
    assert len(tracer.spans) == 18
    for s in tracer.spans:
        if s.name == "inner":
            parent = next(p for p in tracer.spans if p.id == s.parent)
            assert parent.thread == s.thread and parent.run == s.run
    totals = self_times(tracer.spans)
    assert all(own >= 0 for own, _ in totals.values())
    assert totals["outer"][1] == totals["inner"][1] == 9
    assert fake_module.outer(1) == 4  # originals restored


def test_check_catches_spans_nested_across_threads():
    # what one stack shared by all threads records: a run on thread 2 becomes
    # the child of a run on thread 1 and overlaps that run's own child
    spans = [
        Span(1, "run", None, 1, thread=1, start=0.0, end=1.0),
        Span(2, "rank", 1, 1, thread=1, start=0.1, end=0.9),
        Span(3, "run", 1, 1, thread=2, start=0.2, end=1.0),
    ]
    problems = check(spans)
    assert any("negative self time" in p for p in problems)


def test_missing_entry_point_is_reported_untraced(fake_module):
    tracer = Tracer()
    assert not tracer.install("gone", [("fake_layers", "renamed_away"), ("no_such_module", "f")])
    assert tracer.untraced == ["gone"]


def test_broken_counter_never_breaks_the_call(fake_module):
    def count(t, name, args, result):
        t.add(name + ".seen", args["no_such_parameter"])

    tracer = Tracer()
    tracer.install("inner", [("fake_layers", "inner")], count)
    assert fake_module.inner(1) == 2
    tracer.uninstall()
    assert tracer.untraced and tracer.untraced[0].startswith("inner counters (KeyError")


def test_repeats_are_counted_within_one_call():
    tracer = Tracer()
    item = object()
    tracer.repeat("f", id(item), item)
    tracer.repeat("f", id(item), item)
    tracer.new_call()
    tracer.repeat("f", id(item), item)
    assert tracer.counts["f.repeats"] == 1


def test_busy_time_measures_overlap():
    spans = [
        Span(1, "run", None, 1, 1, 0.0, 2.0),
        Span(2, "run", None, 2, 2, 1.0, 3.0),
        Span(3, "run", None, 3, 1, 5.0, 6.0),
    ]
    assert busy_time(spans, "run") == (5.0, 4.0)


def test_payload_digest_ignores_duration_and_its_absence():
    a = b'{"mode": "FULL", "metrics": {"x": 0.5}, "duration_seconds": 1.25}'
    b = b'{"duration_seconds": 9.0, "metrics": {"x": 0.5}, "mode": "FULL"}'
    c = b'{"metrics": {"x": 0.5}, "mode": "FULL"}'
    d = b'{"metrics": {"x": 0.25}, "mode": "FULL"}'
    assert payload_digest(a) == payload_digest(b) == payload_digest(c) != payload_digest(d)
