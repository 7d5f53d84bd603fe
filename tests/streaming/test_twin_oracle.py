"""The correctness oracle: the online fold, its post-mortem twins and
the naive reference must agree record for record, and the digests must
be insensitive to the legitimate emission-order differences between
them.  Fold vs reference is the independent comparison; live vs replay
vs the batch view checks the plumbing around the one fold."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.reference import ReferenceAnalysis, reference_digest
from repro.analysis.trace import Trace
from repro.filtering.records import parse_trace
from repro.streaming import twins
from repro.streaming.twins import diff_digests, replay_engine

from tests.streaming.conftest import build_session, start_mixed_job, stats_digest


@pytest.fixture(scope="module")
def mixed_log():
    session = build_session(seed=21)
    start_mixed_job(session)
    session.settle()
    __, text = session.find_filter_log("f1")
    return text


@pytest.fixture(scope="module")
def records(mixed_log):
    return parse_trace(mixed_log)


def test_replay_matches_batch_analyses(records):
    assert len(records) > 200  # the workload really ran
    online = replay_engine(records).finalize().digest()
    trace = Trace(list(records))
    for twin in (reference_digest(trace), twins.batch_digest(trace)):
        assert diff_digests(online, twin) == []
        for key in twin:
            assert online[key] == twin[key], key


def test_view_reports_the_reference_unmatched_sets(records):
    trace = Trace(list(records))
    matcher, reference = trace.matcher(), ReferenceAnalysis(trace)
    for name in ("unmatched_sends", "unmatched_recvs"):
        assert sorted(e.index for e in getattr(matcher, name)) == sorted(
            e.index for e in getattr(reference, name)
        ), name
    assert len(matcher.pairs) == len(reference.pairs) > 0


def test_digest_survives_commit_order_permutation(records):
    """Interleaving across processes is arbitrary in the committed log;
    the digests must not depend on it.  Replaying the per-process
    streams concatenated (a radically different but causally valid
    commit order) must yield the same digests."""
    by_process = {}
    for record in records:
        by_process.setdefault(
            (record.get("machine"), record.get("pid")), []
        ).append(record)
    permuted = [r for stream in by_process.values() for r in stream]
    assert permuted != records  # genuinely reordered
    a = replay_engine(records).finalize().digest()
    b = replay_engine(permuted).finalize().digest()
    for key in ("records", "clock_digest", "pairs_digest", "totals",
                "per_process", "clocks_resolved"):
        assert a[key] == b[key], key


def test_engine_without_finalize_tracks_all_records(records):
    engine = replay_engine(records)
    assert engine.records == len(records)
    snap = engine.snapshot()
    assert snap["records"] == len(records)
    assert snap["totals"]["matched_pairs"] > 0


def test_cli_stats_and_watch_on_log_file(tmp_path, capsys, mixed_log):
    logfile = tmp_path / "f1.log"
    logfile.write_text(mixed_log, encoding="ascii")

    assert main(["stats", str(logfile)]) == 0
    out = capsys.readouterr().out
    assert "live statistics" in out and "pairs matched" in out

    assert main(["stats", str(logfile), "--digest", "yes"]) == 0
    cli_digest = json.loads(capsys.readouterr().out)
    want = replay_engine(parse_trace(mixed_log)).finalize().digest()
    assert cli_digest == json.loads(json.dumps(want))

    assert main(["watch", str(logfile), "rate",
                 "--threshold", "5", "--window", "1000"]) == 0
    out = capsys.readouterr().out
    assert "firing(s)" in out
    assert "WATCH W1 [rate]" in out  # this workload easily exceeds 5/s

    assert main(["watch", str(logfile), "bogus"]) == 1
    assert "usage" in capsys.readouterr().out

    assert main(["stats", str(tmp_path / "missing.log")]) == 1
    assert "stats:" in capsys.readouterr().out


def test_cli_top_level_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in ("trace pack", "trace fsck", "stats", "watch", "--list"):
        assert verb in out


def test_live_digest_equals_both_twins(records):
    session = build_session(seed=21)
    start_mixed_job(session)
    session.settle()
    live = stats_digest(session)
    __, text = session.find_filter_log("f1")
    replayed = parse_trace(text)
    online = replay_engine(replayed).finalize().digest()
    trace = Trace(list(replayed))
    batch = twins.batch_digest(trace)
    reference = reference_digest(trace)
    # live fold == offline replay == batch view == naive reference, bit
    # for bit (the live engine never finalizes, so compare the
    # pure-fold keys).
    for key in ("records", "clock_digest", "pairs_digest", "totals",
                "per_process"):
        assert live[key] == json.loads(json.dumps(online[key])), key
        assert live[key] == json.loads(json.dumps(batch[key])), key
        assert live[key] == json.loads(json.dumps(reference[key])), key
