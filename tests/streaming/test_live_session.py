"""Live-session behaviour of `stats` and `watch`: the controller ->
daemon -> filter-engine RPC chain, watch lifecycle, firings under
injected faults, and crash-recovery of the watch table."""

import re

from repro.controller import journal
from repro.faults import FaultInjector, FaultPlan

from tests.streaming.conftest import (
    ALL_FLAGS,
    build_session,
    start_mixed_job,
    stats_digest,
)


def test_stats_renders_live_snapshot():
    session = build_session(seed=23)
    start_mixed_job(session, dgram_count=20, rounds=10)
    session.settle()
    out = session.command("stats")
    assert "live statistics" in out
    assert "pairs matched" in out
    assert "state:" in out
    out = session.command("stats f1")
    assert "live statistics" in out
    assert "no filter 'nope'" in session.command("stats nope")


def test_stats_peak_is_never_below_the_size_it_prints():
    """``peak_state`` is sampled every 256 records: a shorter session
    never samples it, yet its reply reports a peak at least as large
    as the in-flight size on the same line."""
    session = build_session(seed=23)
    start_mixed_job(session, dgram_count=5, rounds=3)
    session.settle()
    out = session.command("stats f1")
    records = int(re.search(r"\((\d+) records\)", out).group(1))
    size, peak = map(
        int, re.search(r"(\d+) in flight \(peak (\d+)\)", out).groups()
    )
    assert 0 < records < 256
    assert 0 < size <= peak


def test_stats_digest_is_one_json_line():
    session = build_session(seed=23)
    start_mixed_job(session, dgram_count=20, rounds=10)
    session.settle()
    digest = stats_digest(session)
    assert digest["records"] > 100
    assert digest["pairs_digest"] != 0
    assert digest["clock_digest"] != 0


def test_watch_lifecycle_add_list_poll_rm():
    session = build_session(seed=24)
    session.command("filter f1 blue")
    assert "no watches" in session.command("watch list")
    assert "no watches" in session.command("watch poll")

    out = session.command("watch add quiet window=300")
    assert "watch W1 [quiet] registered on filter 'f1'" in out
    out = session.command("watch add f1 rate threshold=1000")
    assert "watch W2 [rate] registered on filter 'f1'" in out

    out = session.command("watch list")
    assert "W1 on 'f1'" in out and '"kind": "quiet"' in out
    assert "W2 on 'f1'" in out and '"threshold": 1000' in out

    # Nothing is running, so nothing fires.
    assert "no new firings" in session.command("watch poll")

    assert "watch W1 removed" in session.command("watch rm W1")
    assert "no watch W1" in session.command("watch rm 1")
    out = session.command("watch list")
    assert "W1" not in out and "W2 on 'f1'" in out

    # Bad inputs are rejected with usage text, not silence.
    assert "usage: watch add" in session.command("watch add bogus")
    assert "bad watch parameter" in session.command("watch add quiet oops")
    assert "usage: watch" in session.command("watch frob")


def test_undelivered_watch_fires_under_datagram_loss():
    session = build_session(seed=25)
    cluster = session.cluster
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red dgramconsumer 6001 60 3000")
    session.command("addprocess j green dgramproducer red 6001 60 64 5")
    session.command("setflags j " + ALL_FLAGS)
    session.command("watch add undelivered window=250")
    now = cluster.sim.now
    # Kill every datagram on the wire for a stretch of the run: those
    # sends can never match a receive, so the watch must call them out.
    plan = FaultPlan().loss_burst(now + 60.0, 120.0, 1.0)
    FaultInjector(cluster, plan, session=session).arm()
    session.command("startjob j")
    session.settle()
    out = session.command("watch poll")
    assert "WATCH W1 [undelivered]" in out
    assert '"dest": "inet:red:6001"' in out
    # The poll cursor advances: a second poll reports nothing new.
    assert "no new firings" in session.command("watch poll")


def test_journal_replays_watch_table():
    text = "".join(
        [
            journal.encode_entry("cmd", line="watch add quiet window=300"),
            journal.encode_entry(
                "watch", wid=1, filtername="f1",
                spec={"kind": "quiet", "window": 300},
            ),
            journal.encode_entry(
                "watch", wid=2, filtername="f1",
                spec={"kind": "rate", "threshold": 5},
            ),
            journal.encode_entry("watch-rm", wid=1),
        ]
    )
    state = journal.replay(journal.parse_journal(text))
    assert sorted(state.watches) == [2]
    assert state.watches[2]["spec"]["kind"] == "rate"
    assert state.next_watch_id == 3

    # A clean shutdown resets the table like everything else.
    state = journal.replay(
        journal.parse_journal(text + journal.encode_entry("die"))
    )
    assert state.watches == {} and state.next_watch_id == 1
