"""Self-time arithmetic and cross-thread attribution of the span ledger."""

import threading

from perfbench.spans import (Recorder, Span, by_operation, covered,
                             self_sum_gap, self_times)


def _tree():
    # root [0, 100]: A [10, 40], B [50, 90] with grandchild C [60, 70].
    return [Span(1, "root", 1, None, 0, 100),
            Span(2, "A", 1, 1, 10, 40),
            Span(3, "B", 1, 1, 50, 90),
            Span(4, "C", 1, 3, 60, 70)]


def test_self_time_subtracts_children():
    assert self_times(_tree()) == {1: 30, 2: 30, 3: 30, 4: 10}


def test_self_times_sum_to_wall_time():
    assert sum(self_times(_tree()).values()) == 100
    assert self_sum_gap(_tree()) == 0.0


def test_overlapping_children_are_covered_once():
    assert covered([(20, 50), (40, 60)], 0, 100) == 40
    assert covered([(20, 50), (30, 40)], 0, 100) == 30
    assert covered([(-10, 20), (90, 120)], 0, 100) == 30


def test_layers_are_summed_per_operation():
    spans = _tree() + [Span(5, "root", 5, None, 0, 50),
                       Span(6, "A", 5, 5, 0, 20)]
    ops = by_operation(spans)
    assert ops[1][1] == {"root": 30, "A": 30, "B": 30, "C": 10}
    assert ops[5][1] == {"root": 30, "A": 20}


def test_gap_detects_a_child_outside_its_parent():
    spans = [Span(1, "root", 1, None, 0, 100),
             Span(2, "A", 1, 1, 0, 100),
             Span(3, "B", 1, 2, 50, 150)]
    assert self_sum_gap(spans) > 0


def test_recorder_attributes_calls_across_threads():
    recorder = Recorder()
    with recorder.operation("root") as op_a:
        with recorder.operation("root") as op_b:
            def worker(op):
                # A server thread working for the client's operation.
                with recorder.bound(op):
                    span = recorder.enter("call", recorder.current_op())
                    recorder.exit(span, {"n": op})

            threads = [threading.Thread(target=worker, args=(op,))
                       for op in (op_a, op_b)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
    ops = by_operation(recorder.spans)
    assert set(ops) == {op_a, op_b}
    for op in (op_a, op_b):
        calls = [s for s in recorder.spans if s.op == op and s.name == "call"]
        assert len(calls) == 1 and calls[0].parent == op
        assert calls[0].attrs == {"n": op}
    assert self_sum_gap(recorder.spans) == 0.0


def test_a_call_after_its_operation_ended_is_not_recorded():
    recorder = Recorder()
    with recorder.operation("root") as op:
        pass
    assert recorder.enter("late", op) is None
    assert [s.name for s in recorder.spans] == ["root"]
