"""Trace model unit tests."""

from repro.analysis.trace import Trace
from tests.analysis.harness import TraceBuilder, two_process_stream_trace


def test_events_keep_trace_order():
    trace = two_process_stream_trace()
    assert [e.index for e in trace] == list(range(len(trace)))


def test_process_identity_is_machine_pid():
    trace = two_process_stream_trace()
    assert set(trace.processes()) == {(1, 10), (2, 20)}


def test_events_for_process_in_order_with_proc_seq():
    trace = two_process_stream_trace()
    events = trace.events_for((1, 10))
    assert [e.event for e in events] == ["connect", "send", "receive"]
    assert [e.proc_seq for e in events] == [0, 1, 2]


def test_by_type():
    trace = two_process_stream_trace()
    assert len(trace.by_type("send")) == 2
    assert len(trace.by_type("accept")) == 1


def test_machines():
    trace = two_process_stream_trace()
    assert trace.machines() == [1, 2]


def test_machines_puts_ids_that_are_not_integers_after_the_integers():
    records = [{"machine": m} for m in ("red", 10, None, 2, "blue", 2)]
    assert Trace(records).machines() == [2, 10, "blue", "red", None]


def test_a_log_line_without_machine_runs_every_analysis():
    """A line with no ``machine=`` used to make ``Trace.machines()``
    compare None with an int, and every analysis that asks it raise."""
    from repro.analysis.delays import MessageDelays
    from repro.analysis.parallelism import ParallelismProfile
    from repro.analysis.report import measurement_report
    from repro.streaming.twins import batch_digest

    trace = Trace.from_text(
        "event=send machine=1 pid=10 cpuTime=5 msgLength=4 "
        "destName=inet:x:1\n"
        "event=send cpuTime=15 msgLength=8\n"
    )
    assert trace.machines() == [1, None]
    assert ParallelismProfile(trace).total_cpu_ms() == 0
    assert MessageDelays(trace).count() == 0
    assert "2 processes on 2 machines" in measurement_report(trace)
    assert batch_digest(trace)["totals"]["machines"] == 2


def test_from_text_round_trip():
    from repro.filtering.records import format_record

    trace = two_process_stream_trace()
    text = "\n".join(format_record(e.record) for e in trace)
    reloaded = Trace.from_text(text)
    assert len(reloaded) == len(trace)
    assert [e.event for e in reloaded] == [e.event for e in trace]


def test_event_accessors():
    trace = two_process_stream_trace()
    send = trace.by_type("send")[0]
    assert send.machine == 1
    assert send.pid == 10
    assert send.local_time == 102
    assert send.msg_length == 100
    assert send.name("destName") is None  # empty -> None
    recv = trace.by_type("receive")[0]
    assert recv.name("sourceName") == "inet:red:1024"


def test_same_pid_on_two_machines_are_distinct_processes():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=5, dest="inet:b:1")
    b.send(2, 10, 100, sock=1, nbytes=5, dest="inet:b:1")
    trace = b.build()
    assert len(trace.processes()) == 2
