"""What one fixed log packs to and digests to, pinned.

The seed-13 farm session's committed bytes are pinned by
``test_schedule_identity``; so the store its records seal to (frames
and footers) and the engine's order-independent digests are pure
functions of the code that writes and digests them.  The literals were
read off the commit before ``StoreWriter.append`` went to one
precompiled struct and ``clock_digest_add`` to one per clock width:
byte-identical means these do not move.  (The digests are comparable
within one definition of ``clock_digest_add``/``pair_digest_add`` only;
a change that redefines them, or re-anchors the farm session, re-pins
here and says so.)"""

import hashlib
import os

import pytest

from repro.analysis.trace import Trace
from repro.streaming import twins
from repro.tracestore import pack_records

from tests.integration.test_schedule_identity import _farm, _run
from tests.streaming.conftest import stats_digest

RECORDS = 1269
STORE_SHA256 = "db459f277ced2d26cfc004cf05add25ec7367c2bb68a8b2a53e6ad6e04f8f6ef"
CLOCK_DIGEST = 17010855835050976490
PAIRS_DIGEST = 6415103338473233163


@pytest.fixture(scope="module")
def session():
    return _run(_farm, 13, "store")


def test_sealed_store_is_byte_identical_to_the_pinned_one(session):
    records = list(session.read_trace("f1"))
    store, writer = pack_records(records, "/p/s1", segment_bytes=8192)
    assert writer.records_appended == RECORDS
    sha = hashlib.sha256()
    for path in sorted(store):
        sha.update(os.path.basename(path).encode("ascii"))
        sha.update(store[path])
    assert (len(store), sha.hexdigest()) == (10, STORE_SHA256)


def test_live_replay_and_batch_digests_are_the_pinned_ones(session):
    live = stats_digest(session)
    records = list(session.read_trace("f1"))
    replay = twins.replay_engine(records).finalize().digest()
    batch = twins.batch_digest(Trace(records))
    for digest in (live, replay, batch):
        assert (
            digest["records"], digest["clock_digest"], digest["pairs_digest"]
        ) == (RECORDS, CLOCK_DIGEST, PAIRS_DIGEST)
