"""The schedule contract: committed bytes and simulated times.

Three small seeded sessions pin the sha256 of the committed log, the
record count, where the simulated clock stopped and how many simulator
events ran.  The contract is the first three: one seed commits the same
bytes at the same simulated times on every run and across refactors
that claim to be order-preserving (PR 15's event queue was held to
these literals unchanged).  It is not "the parent's event sequence for
ever": ``events_run`` is pinned as a count that may only move on
purpose, and a change that alters what the simulated kernel *does* --
not merely how cheaply -- re-anchors the literals, one commit per
reason, saying which column moved and why.

Re-anchored by PR 19 (ROADMAP item 5), in three commits:

1. run-to-block dispatch -- ``events_run`` only (1 859 / 32 729 /
   7 404 before): releasing the CPU dispatches the next process itself
   instead of queueing a zero-delay trampoline event per syscall;
2. one re-armable timer per process -- ``events_run`` and ``now``:
   stale ``select``/``sleep`` timers are no longer queued, so the final
   ``settle()`` stops at the last real event;
3. delayed window update -- everything but the record counts: fewer
   ``STREAM_WINDOW`` packets draw fewer jitter values from ``sim.rng``,
   so every later arrival time, and with it every committed timestamp,
   moves.  (``dgram_burst`` commits 3 534 records where it committed
   3 530: its gap-0 producers overrun the consumers' buffers, and how
   many datagrams that loses depends on the arrival times.)

Re-anchored once more, ``now`` of ``pingpong`` only: the live ``stats``
reply reports its peak as at least its in-flight size, so the
session's last ``stats f1`` prints "68 in flight (peak 68)" where it
printed "(peak 0)".  The longer reply takes longer on the simulated
wire and the clock stops 0.0016 ms later; the committed bytes, the
record count and the events run are unchanged.

Re-anchored once more, ``dgram_burst`` only (16 705 events, clock
stopped at 2936.0977 ms, sha256 ``fb7c0cd8…`` before): the text filter
now writes its buffered lines at the latest once half a meter resend
window of batches has been accepted since its last write, so a batch
cannot roll out of the window before it is on disk.  The immediate
flags make every event a batch, so the filter writes more often; its
writes take CPU on blue beside blue's two producers, which moves their
events' ``cpuTime`` and every later arrival.  62 more events run and
the clock stops 0.39 ms earlier.  The record count is unchanged.

Re-anchored once more, ``dgram_burst``'s sha256 only (``4bb25dd6…``
before): a text write now carries one ``#batch`` line per process,
that of the process's last batch in the write, so the log loses the
earlier lines of each process's run.  When the filter writes, and so
the 16 767 events, the clock at 2935.7074 ms and the 3 534 records,
are unchanged.  ``pingpong``'s log is text too, but none of its writes
holds two batches of one process, so its bytes stay.
"""

import hashlib

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.programs import install_all

#: (consumer machine, producer machine, port, bytes, gap ms): the two
#: gap-0 producers overrun their consumers' receive buffers.
_DGRAM_PAIRS = (
    ("red", "green", 6001, 64, 0),
    ("red", "blue", 6002, 96, 1),
    ("green", "red", 6003, 128, 0),
    ("green", "blue", 6004, 160, 1),
)
_DGRAM_COUNT = 300


def _pingpong(session):
    session.command("newjob pp")
    session.command("addprocess pp red pingpongserver 5100 10")
    session.command("addprocess pp green pingpongclient red 5100 10")
    session.command("setflags pp send receive accept connect termproc")
    session.command("startjob pp")
    session.settle()
    session.command("jobs pp")
    session.command("stats f1")
    session.command("removejob pp")


def _dgram_burst(session):
    session.command("newjob dg")
    for consumer, __, port, __, __ in _DGRAM_PAIRS:
        session.command(
            "addprocess dg %s dgramconsumer %d %d 300" % (consumer, port, _DGRAM_COUNT)
        )
    for consumer, producer, port, size, gap in _DGRAM_PAIRS:
        session.command(
            "addprocess dg %s dgramproducer %s %d %d %d %d"
            % (producer, consumer, port, _DGRAM_COUNT, size, gap)
        )
    session.command(
        "setflags dg send receive receivecall socket destsocket termproc immediate"
    )
    session.command("startjob dg")
    for __ in range(3):
        session.settle(100.0)
        session.command("stats f1")
    session.settle()


def _farm(session):
    session.command("newjob farm")
    session.command("addprocess farm red mwmaster 7000 6 120 1")
    for machine in ("red", "green", "blue", "red", "green", "blue"):
        session.command("addprocess farm %s mwworker red 7000" % machine)
    session.command("setflags farm all")
    session.command("startjob farm")
    for __ in range(3):
        session.settle(50.0)
        session.command("stats f1")
    session.settle()


def _committed_bytes(session):
    if session.log_format == "store":
        reader = session.store_reader("f1")
        return b"".join(bytes(segment.data) for segment in reader.segments)
    __, text = session.find_filter_log("f1")
    return text.encode("ascii")


def _run(drive, seed, log_format):
    cluster = Cluster(seed=seed)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format=log_format
    )
    install_all(session)
    session.command("filter f1 blue")
    drive(session)
    return session


@pytest.mark.parametrize(
    "drive, seed, log_format, events_run, now, records, sha256",
    [
        (
            _pingpong, 7, "text", 932, 2854.6522356174346, 45,
            "6b0767be203a494f457ee725b2cc9ce2413a2f4d93a048311c6f942477260710",
        ),
        (
            _dgram_burst, 11, "text", 16767, 2935.707448104581, 3534,
            "6ee90ce6c7d30d95f267d66c8a3f4d616336da9de3505f77eec302cab4cb7739",
        ),
        (
            _farm, 13, "store", 3522, 2766.4782823843398, 1269,
            "1a215207861299cea213853d996062eb5de11167f0fd7e4d927fd2e16ee9b29e",
        ),
    ],
    ids=["pingpong", "dgram_burst", "farm_store"],
)
def test_schedule_is_byte_identical_to_the_pinned_run(
    drive, seed, log_format, events_run, now, records, sha256
):
    session = _run(drive, seed, log_format)
    sim = session.cluster.sim
    committed = _committed_bytes(session)
    got = (
        sim.events_run,
        repr(sim.now),
        len(list(session.read_trace("f1"))),
        hashlib.sha256(committed).hexdigest(),
    )
    assert got == (events_run, repr(now), records, sha256)


def test_dgram_burst_session_really_loses_datagrams():
    """The pinned datagram session covers the loss path: fewer receives
    are committed than sends."""
    records = list(_run(_dgram_burst, 11, "text").read_trace("f1"))
    sends = sum(1 for record in records if record["event"] == "send")
    receives = sum(1 for record in records if record["event"] == "receive")
    assert 0 < receives < sends
