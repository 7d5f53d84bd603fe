"""What two fixed logs pack to and digest to, pinned.

The ledger's seed-7 ``postmortem`` log is a pure function of the seed,
and the seed-13 farm session's committed bytes are pinned by
``test_schedule_identity``; so the sealed store (frames and footers)
and the engine's order-independent digests are pure functions of the
code that writes and digests them.  The literals were read off the
commit before ``StoreWriter.append`` went to one precompiled struct and
``clock_digest_add`` to one per clock width: byte-identical means these
do not move.  (The digests are comparable within one definition of
``clock_digest_add``/``pair_digest_add`` only; a change that redefines
them, or re-anchors the farm session, re-pins here and says so.)"""

import hashlib
import os

import pytest

from ledger import gen
from repro.analysis.trace import Trace
from repro.filtering.records import parse_trace
from repro.streaming import twins
from repro.tracestore import pack_text

from tests.integration.test_schedule_identity import _farm, _run
from tests.streaming.conftest import stats_digest

RECORDS = 40960
STORE_SHA256 = "737f6142efbe571d6c2f6df9ca784dc4931871ff4a4b2caaa0f131e526d2daa4"
CLOCK_DIGEST = 17407014263343370282
PAIRS_DIGEST = 18263788959597536270


@pytest.fixture(scope="module")
def log_text():
    text, count, __ = gen.generate_log(7, 40000)
    assert count == RECORDS
    return text


def test_sealed_store_is_byte_identical_to_the_pinned_one(log_text):
    store, writer = pack_text(log_text, "/p/s1")
    assert writer.records_appended == RECORDS
    sha = hashlib.sha256()
    for path in sorted(store):
        sha.update(os.path.basename(path).encode("ascii"))
        sha.update(store[path])
    assert (len(store), sha.hexdigest()) == (38, STORE_SHA256)


def test_replay_and_batch_digests_are_the_pinned_ones(log_text):
    records = parse_trace(log_text)
    replay = twins.replay_engine(records).finalize().digest()
    batch = twins.batch_digest(Trace(records))
    assert twins.diff_digests(replay, batch) == []
    for digest in (replay, batch):
        assert (digest["clock_digest"], digest["pairs_digest"]) == (
            CLOCK_DIGEST, PAIRS_DIGEST
        )


def test_live_farm_session_digests_are_the_pinned_ones():
    session = _run(_farm, 13, "store")
    live = stats_digest(session)
    records = list(session.read_trace("f1"))
    replay = twins.replay_engine(records).finalize().digest()
    batch = twins.batch_digest(Trace(records))
    for digest in (live, replay, batch):
        assert (
            digest["records"], digest["clock_digest"], digest["pairs_digest"]
        ) == (1269, 17010855835050976490, 6415103338473233163)
