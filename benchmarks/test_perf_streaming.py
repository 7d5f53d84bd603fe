"""Streaming online analysis at scale: the twin oracle on a 20k-event
faulted session, the bounded-memory claim, and a clock-drift sweep
measuring the precision/recall of `undelivered` watch firings (run by
the CI ``streaming`` job).
"""

import json

from repro.analysis.trace import Trace
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.programs import install_all
from repro.streaming import twins
from repro.streaming.twins import diff_digests, replay_engine

FLAGS = "send receive receivecall socket destsocket termproc"

#: messages per producer pair for the big (>=20k records) session and
#: the small session the memory bound is measured against.
N_BIG = 2600
N_SMALL = 650


def _store_session(seed=41, clock_skew=None):
    cluster = Cluster(seed=seed, clock_skew=clock_skew)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format="store"
    )
    install_all(session)
    return session


def _start_fanout_job(session, n):
    """Four concurrent datagram pairs with distinct ports and sizes."""
    timeout = 9000
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red dgramconsumer 6001 {0} {1}".format(n, timeout))
    session.command("addprocess j red dgramconsumer 6002 {0} {1}".format(n, timeout))
    session.command("addprocess j green dgramconsumer 6003 {0} {1}".format(n, timeout))
    session.command("addprocess j green dgramconsumer 6004 {0} {1}".format(n, timeout))
    session.command("addprocess j green dgramproducer red 6001 {0} 64 1".format(n))
    session.command("addprocess j blue dgramproducer red 6002 {0} 96 1".format(n))
    session.command("addprocess j red dgramproducer green 6003 {0} 128 1".format(n))
    session.command("addprocess j blue dgramproducer green 6004 {0} 160 1".format(n))
    session.command("setflags j " + FLAGS)
    session.command("startjob j")


def _live_digest(session):
    out = session.command("stats f1 digest")
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError("no digest line in output:\n" + out)


_runs = {}


def _faulted_run(n, kill_at_ms):
    """A store-mode fan-out session with the filter killed mid-run
    (supervised relaunch + replay + re-metering on the tap's path)."""
    if n in _runs:
        return _runs[n]
    session = _store_session()
    cluster = session.cluster
    plan = FaultPlan().kill_filter(cluster.sim.now + kill_at_ms, "blue")
    FaultInjector(cluster, plan, session=session).arm()
    _start_fanout_job(session, n)
    session.settle()
    run = {
        "session": session,
        "records": list(session.read_trace("f1")),
        "live": _live_digest(session),
    }
    _runs[n] = run
    return run


def test_oracle_holds_at_scale_under_faults():
    run = _faulted_run(N_BIG, kill_at_ms=400.0)
    records = run["records"]
    assert len(records) >= 20000
    assert "was relaunched" in run["session"].transcript()

    live = run["live"]
    online = replay_engine(records).finalize().digest()
    batch = twins.batch_digest(Trace(list(records)))
    problems = diff_digests(online, batch)
    assert problems == [], problems
    mismatched = [
        key
        for key in ("records", "clock_digest", "pairs_digest", "totals",
                    "per_process")
        if live[key] != json.loads(json.dumps(online[key]))
    ]
    assert mismatched == [], mismatched


def test_memory_bounded_by_window_not_trace_length():
    big = _faulted_run(N_BIG, kill_at_ms=400.0)
    small = _faulted_run(N_SMALL, kill_at_ms=150.0)
    peak_big = big["live"]["peak_state"]
    peak_small = small["live"]["peak_state"]
    n_big, n_small = len(big["records"]), len(small["records"])
    assert n_big >= 3.5 * n_small
    # The workload's steady state (and so the window contents) is the
    # same in both runs; only the duration differs.  4x the records must
    # not mean 4x the in-flight state -- it barely moves.
    ratio = peak_big / max(1, peak_small)
    assert ratio < 1.6, (peak_big, peak_small)
    assert peak_big < n_big / 2


# ----------------------------------------------------------------------
# Drift sweep: precision/recall of `undelivered` firings
# ----------------------------------------------------------------------

SKEWS_MS = [0, 250, 500, 2000, 4000]
DRIFT_N = 120
DRIFT_LOST = 20
DRIFT_WINDOW_MS = 500


def _firing_identities(poll_out):
    """(machine, pid, proc_seq) identity per undelivered firing line."""
    fired = set()
    for line in poll_out.splitlines():
        if "[undelivered]" not in line:
            continue
        detail = json.loads(line.partition("ms: ")[2])
        machine, __, pid = detail["process"].partition(":")
        fired.add((int(machine), int(pid), int(detail["proc_seq"])))
    return fired


def _drift_run(offset_ms):
    """One run with the *receiver's* clock offset by ``offset_ms``.

    Ground truth comes from a second producer aimed at a dead port (a
    distinct message size, so the length-indexed matcher attributes the
    loss to the right sends): those datagrams are undelivered by
    construction, with no fault injection to disturb the meter
    transport.  The live pair's traffic keeps flowing well past the
    dead sends, so every one of them outlives the window."""
    skew = {"red": (float(offset_ms), 0.0)} if offset_ms else None
    cluster = Cluster(seed=43, clock_skew=skew)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command(
        "addprocess j red dgramconsumer 6001 {0} 4000".format(DRIFT_N)
    )
    session.command(
        "addprocess j green dgramproducer red 6001 {0} 64 5".format(DRIFT_N)
    )
    session.command(
        "addprocess j green dgramproducer red 6999 {0} 48 5".format(DRIFT_LOST)
    )
    session.command("setflags j " + FLAGS)
    session.command(
        "watch add undelivered window={0}".format(DRIFT_WINDOW_MS)
    )
    session.command("startjob j")
    session.settle()
    fired = _firing_identities(session.command("watch poll"))
    records = list(session.read_trace("f1"))
    truth_all = twins.batch_unmatched_dgram_sends(Trace(list(records)))
    # An online monitor can only flag what the stream outlived: restrict
    # ground truth to sends at least one window older than the final
    # watermark (e.g. the consumer's end-of-run stdout report is an
    # unmatched send the stream ends on -- no monitor can call it).
    seq, sent_at, watermark = {}, {}, 0.0
    for record in records:
        key = (record.get("machine"), record.get("pid"))
        s = seq.get(key, 0)
        seq[key] = s + 1
        watermark = max(watermark, record.get("cpuTime", 0))
        if record.get("event") == "send":
            sent_at[(key[0], key[1], s)] = record.get("cpuTime", 0)
    truth = {
        identity
        for identity in truth_all
        if sent_at.get(identity, watermark) <= watermark - DRIFT_WINDOW_MS
    }
    hits = len(fired & truth)
    precision = hits / len(fired) if fired else 1.0
    recall = hits / len(truth) if truth else 1.0
    return {
        "offset_ms": offset_ms,
        "fired": len(fired),
        "truly_undelivered": len(truth),
        "precision": round(precision, 4),
        "recall": round(recall, 4),
    }


def test_drift_sweep_precision_recall():
    sweep = [_drift_run(offset) for offset in SKEWS_MS]
    by_offset = {row["offset_ms"]: row for row in sweep}

    # The dead-port producer really created undelivered traffic.
    assert all(
        row["truly_undelivered"] >= DRIFT_LOST - 1 for row in sweep
    )
    # With honest clocks the watch is exact.
    assert by_offset[0]["precision"] == 1.0
    assert by_offset[0]["recall"] == 1.0
    # Skew below the window is absorbed; past it the optimistic
    # watermark turns eager, flooding false alarms.
    assert by_offset[250]["precision"] == 1.0
    assert by_offset[4000]["precision"] < 0.5
    precisions = [row["precision"] for row in sweep]
    assert precisions == sorted(precisions, reverse=True)
    # The watermark never lies about what was genuinely lost: skew
    # costs precision (eager false alarms), not coverage.
    assert all(row["recall"] == 1.0 for row in sweep)
