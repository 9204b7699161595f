"""Span bookkeeping: self time is duration minus the union of the child intervals."""

import pytest

from tracer import NAME, PARENT, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_times_of_a_nested_tree():
    tracer = Tracer()
    tracer.op = 0
    root = tracer.begin("op", start=0.0)
    a = tracer.begin("a", start=1.0)
    b = tracer.begin("b", start=2.0)
    tracer.end(b, end=4.0)
    tracer.end(a, end=5.0)
    c = tracer.begin("c", start=6.0)
    tracer.end(c, end=9.0)
    tracer.end(root, end=10.0)
    own = dict(zip((s[NAME] for s in tracer.spans), self_times(tracer.spans)))
    assert own == pytest.approx({"op": 3.0, "a": 2.0, "b": 2.0, "c": 3.0})
    # self times partition the root's wall time
    assert sum(own.values()) == pytest.approx(10.0)


def test_wrap_records_nested_calls_and_hooks_only_inside_an_operation():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda t, r, a, k: t.add("calls", 1))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []  # no open operation: pass through
    root = tracer.begin_op(0, "label")
    assert outer(1) == 4
    tracer.end_op(root)
    names = [s[NAME] for s in tracer.spans]
    assert names == ["op", "outer", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.counts[0]["calls"] == 1


def test_spans_must_close_in_order():
    tracer = Tracer()
    first = tracer.begin("first")
    tracer.begin("second")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_graft_attaches_child_process_spans_under_the_open_operation():
    child = Tracer()
    child.op = 0
    child.end(child.begin("cli.import", start=1.0), end=2.0)
    main = child.begin("cli.main", start=2.0)
    child.end(child.begin("modelspec.parse", start=2.5), end=3.0)
    child.end(main, end=4.0)

    tracer = Tracer()
    root = tracer.begin_op(7, "check")
    tracer.graft(child.spans, {"modelspec.parse_calls": 1})
    tracer.end_op(root)
    parents = {s[NAME]: s[PARENT] for s in tracer.spans}
    assert parents == {"op": -1, "cli.import": 0, "cli.main": 0, "modelspec.parse": 2}
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.counts[7]["modelspec.parse_calls"] == 1
