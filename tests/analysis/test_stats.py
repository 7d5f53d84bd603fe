"""Communication statistics."""

from repro.analysis.stats import CommunicationStatistics
from tests.analysis.harness import TraceBuilder, two_process_stream_trace


def test_per_process_counters():
    stats = CommunicationStatistics(two_process_stream_trace())
    client = stats.per_process[(1, 10)]
    server = stats.per_process[(2, 20)]
    assert client.messages_sent == 1
    assert client.bytes_sent == 100
    assert client.bytes_received == 50
    assert server.messages_sent == 1
    assert server.bytes_received == 100
    assert client.event_counts["connect"] == 1
    assert server.event_counts["accept"] == 1


def test_totals():
    stats = CommunicationStatistics(two_process_stream_trace())
    totals = stats.totals()
    assert totals["processes"] == 2
    assert totals["machines"] == 2
    assert totals["messages_sent"] == 2
    assert totals["bytes_sent"] == 150
    assert totals["matched_pairs"] == 2


def test_pair_traffic_matrix():
    stats = CommunicationStatistics(two_process_stream_trace())
    assert stats.pair_traffic[((1, 10), (2, 20))] == [1, 100]
    assert stats.pair_traffic[((2, 20), (1, 10))] == [1, 50]


def test_busiest_processes_ranked_by_volume():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=1000, dest="inet:x:1")
    b.send(1, 11, 101, sock=2, nbytes=10, dest="inet:x:1")
    stats = CommunicationStatistics(b.build())
    busiest = stats.busiest_processes(1)
    assert busiest[0].process == (1, 10)


def test_cpu_ms_tracks_max_proc_time():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=5, dest="inet:x:1", procTime=10)
    b.send(1, 10, 200, sock=1, nbytes=5, dest="inet:x:1", procTime=40)
    stats = CommunicationStatistics(b.build())
    assert stats.per_process[(1, 10)].cpu_ms == 40


def test_report_is_readable():
    report = CommunicationStatistics(two_process_stream_trace()).report()
    assert "2 processes" in report
    assert "->" in report


def test_one_process_stats_object_per_process():
    """One object per process, and it is the slot the matcher's fold
    counted into -- not a second count."""
    trace = two_process_stream_trace()
    stats = CommunicationStatistics(trace)
    assert list(stats.per_process) == trace.processes()
    assert len({id(slot) for slot in stats.per_process.values()}) == 2
    procs = trace.matcher().fold.procs
    for process, slot in stats.per_process.items():
        assert slot is procs[process]
        assert all(e.proc is slot for e in trace.events_for(process))
