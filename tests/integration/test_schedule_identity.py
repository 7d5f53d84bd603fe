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
            _pingpong, 7, "text", 932, 2854.6506356174345, 45,
            "6b0767be203a494f457ee725b2cc9ce2413a2f4d93a048311c6f942477260710",
        ),
        (
            _dgram_burst, 11, "text", 16705, 2936.0976885615046, 3534,
            "fb7c0cd8ca58bc26205934514b077d3b2bb4039c0ba46b2e702c8100f5b2ca9e",
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
