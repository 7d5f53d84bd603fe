"""Batch fast-lane guard -- decode/select throughput at 200k events.

Blocking CI gate (the ``decode`` job) for PR 9's vectorized scan
pipeline:

1. build a 200k-event store of bursty per-process runs (8-32 events a
   run, 4 machines, all ten Appendix-A formats) and time the
   dense-rule :func:`~repro.tracestore.select` fast lane, best of 3.
   The dense rule file accepts roughly 30% of the store -- every
   record is screened, a minority is materialized -- which is the
   workload the column pre-screen was built for.  Floor: 1M events/s
   with ``REPRO_BENCH_STRICT=1`` (PR 9's headline number); a generous
   250k fallback otherwise so slow shared CI runners gate real
   regressions without flaking;
2. prove the fast lane record-identical to the interpreted oracle scan
   on every store flavour: plain, compressed, and a damaged copy
   read in salvage mode;
3. prove the *merged* multi-store output byte-stable: the sha256 of
   the formatted record stream from :func:`merge_scan_fast` equals the
   oracle :func:`merge_scan`'s.

Numbers are printed, not stored: ``python3 -m ledger`` is where
results are recorded.
"""

import hashlib
import os
import random
import time

import pytest

from benchmarks.conftest import HOSTS
from repro.filtering.records import format_record
from repro.filtering.rules import parse_rules
from repro.metering.messages import MessageCodec, record_fields
from repro.net.addresses import InternetName
from repro.tracestore import (
    StoreReader,
    StoreWriter,
    merge_scan,
    merge_scan_fast,
    scan_fast,
    select,
)
from repro.tracestore.writer import flush_to_files

N_EVENTS = 200_000

#: REPRO_BENCH_STRICT=1 enforces PR 9's headline floor; plain CI uses
#: the fallback so a slow shared runner cannot flake the gate while a
#: real regression (the fast lane degrading to interpreted speed,
#: ~205k ev/s on a stock runner) still fails it.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
MIN_SELECT_EPS = 1_000_000.0 if STRICT else 250_000.0

#: Dense, type-pinned selections with reductions and cross-field
#: comparisons (the Figure 3.4 shapes); tuned to accept ~30% of the
#: synthetic store so the bench pays both screen and materialize cost.
DENSE_RULES = """
type=send, msgLength>512, pc=#*
type=receive, msgLength<128
type=accept, sockName=peerName
type=connect, peerName=inet:green:7777
type=socket, domain=2
type=dup, newSock>48
type=fork, newPid>0, pc=#*
type=termproc, status>0
type=receivecall, sock>96
machine=9
cpuTime>999999999
"""


def _bursty_wire(n=N_EVENTS, seed=9):
    """n encoded meter messages in bursty per-process runs of 8-32,
    cycling machines and all ten Appendix-A formats.

    Each run keeps one (machine, pid, event type) -- the locality a
    real metered computation produces (a send loop meters a run of
    sends, a fork storm a run of forks) and exactly what the batch
    walker's layout/type speculation exploits.  Runs themselves are
    randomly ordered, so every segment still mixes all ten formats."""
    rng = random.Random(seed)
    codec = MessageCodec(HOSTS)
    names = [
        InternetName(HOSTS[(i % 4) + 1], 5000 + i, (i % 4) + 1)
        for i in range(8)
    ]
    wire = []
    i = 0
    while len(wire) < n:
        machine = rng.randrange(1, 5)
        pid = 2000 + rng.randrange(16)
        kind = rng.randrange(10)
        for __ in range(rng.randrange(8, 33)):
            if len(wire) >= n:
                break
            common = dict(
                machine=machine, cpu_time=i, proc_time=(i // 50) * 10
            )
            name = names[i % 8]
            peer = names[(i + 3) % 8]
            if kind == 0:
                msg = codec.encode(
                    "send", pid=pid, pc=i, sock=3,
                    msgLength=16 * (1 + i % 64), destName=name,
                    **codec.name_lengths(destName=name), **common
                )
            elif kind == 1:
                msg = codec.encode(
                    "receive", pid=pid, pc=i, sock=3,
                    msgLength=16 * (1 + i % 64), sourceName=name,
                    **codec.name_lengths(sourceName=name), **common
                )
            elif kind == 2:
                msg = codec.encode(
                    "receivecall", pid=pid, pc=i, sock=i % 128, **common
                )
            elif kind == 3:
                msg = codec.encode(
                    "socket", pid=pid, pc=i, sock=3, domain=2 - i % 2,
                    type=1, protocol=0, **common
                )
            elif kind == 4:
                msg = codec.encode(
                    "dup", pid=pid, pc=i, sock=3, newSock=16 + i % 48,
                    **common
                )
            elif kind == 5:
                msg = codec.encode(
                    "destsocket", pid=pid, pc=i, sock=3, **common
                )
            elif kind == 6:
                msg = codec.encode(
                    "fork", pid=pid, pc=i, newPid=pid + 1 + i % 3, **common
                )
            elif kind == 7:
                msg = codec.encode(
                    "accept", pid=pid, pc=i, sock=3, newSock=4,
                    sockName=name, peerName=name if i % 5 == 0 else peer,
                    **codec.name_lengths(sockName=name, peerName=peer),
                    **common
                )
            elif kind == 8:
                msg = codec.encode(
                    "connect", pid=pid, pc=i, sock=3, sockName=name,
                    peerName=peer,
                    **codec.name_lengths(sockName=name, peerName=peer),
                    **common
                )
            else:
                msg = codec.encode(
                    "termproc", pid=pid, pc=i, status=i % 7 - 3, **common
                )
            wire.append(msg)
            i += 1
    return wire


def _write_store(wire, base, **writer_kwargs):
    writer = StoreWriter(str(base), host_names=HOSTS, **writer_kwargs)
    for payload in wire:
        writer.append(payload)
    writer.close()
    flush_to_files(writer)
    return str(base)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One 200k wire, written as every store flavour the gate covers."""
    root = tmp_path_factory.mktemp("batchscan")
    wire = _bursty_wire()
    bases = {
        "v2": _write_store(wire, root / "v2"),
        "zlib": _write_store(wire, root / "zlib", compress=True),
    }
    # A damaged copy for the salvage lane: flip bytes inside a frame of
    # a middle segment (payload corruption the CRC catches), leaving
    # the rest of the store verifiable.
    damaged = root / "damaged"
    _write_store(wire, damaged)
    segments = sorted(damaged.parent.glob("damaged.seg*"))
    victim = segments[len(segments) // 2]
    blob = bytearray(victim.read_bytes())
    blob[100:104] = bytes(b ^ 0xFF for b in blob[100:104])
    victim.write_bytes(bytes(blob))
    bases["damaged"] = str(damaged)
    return bases


def test_batchscan_dense_select_throughput(stores, benchmark):
    reader = StoreReader.from_files(stores["v2"])
    rules = parse_rules(DENSE_RULES)

    # Oracle pass: interpreted scan + interpreted rule application.
    t0 = time.perf_counter()
    oracle = [r for r in reader.scan() if rules.apply(r) is not None]
    oracle_s = time.perf_counter() - t0
    oracle_out = [rules.apply(r) for r in reader.scan()]
    oracle_out = [r for r in oracle_out if r is not None]

    fast = benchmark.pedantic(
        select, args=(reader, rules), rounds=3, iterations=1
    )
    fast_s = benchmark.stats.stats.min

    assert fast == oracle_out
    accepted = len(fast) / N_EVENTS
    # The dense rule file must keep the bench honest: a minority -- but
    # a substantial one -- of records survives selection.
    assert 0.20 <= accepted <= 0.40, accepted

    eps = N_EVENTS / fast_s
    oracle_eps = N_EVENTS / oracle_s
    print(
        "\n[batchscan] dense select: {0:.0f} -> {1:.0f} ev/s "
        "({2:.2f}x), {3}/{4} accepted".format(
            oracle_eps, eps, eps / oracle_eps, len(fast), N_EVENTS
        )
    )
    assert eps >= MIN_SELECT_EPS


def test_batchscan_full_scan_throughput(stores):
    reader = StoreReader.from_files(stores["v2"])
    times = []
    count = 0
    for __ in range(3):
        t0 = time.perf_counter()
        count = sum(1 for __r in scan_fast(reader))
        times.append(time.perf_counter() - t0)
    assert count == N_EVENTS
    eps = N_EVENTS / min(times)
    print("\n[batchscan] full fast scan: {0:.0f} ev/s".format(eps))


@pytest.mark.parametrize("flavour", ["v2", "zlib"])
def test_fast_lane_record_identical(stores, flavour):
    reader = StoreReader.from_files(stores[flavour])
    fast = list(scan_fast(reader))
    fast_stats = repr(reader.last_stats)
    slow = list(reader.scan())
    assert fast == slow
    assert len(fast) == N_EVENTS
    assert fast_stats == repr(reader.last_stats)


def test_fast_lane_salvage_identical(stores):
    reader = StoreReader.from_files(stores["damaged"])
    fast = list(scan_fast(reader, salvage=True))
    fast_stats = repr(reader.last_stats)
    slow = list(reader.scan(salvage=True))
    assert fast == slow
    assert reader.last_stats.frames_corrupt > 0  # the damage is real
    assert fast_stats == repr(reader.last_stats)


def test_merged_output_byte_stable(stores):
    readers = [
        StoreReader.from_files(stores["v2"]),
        StoreReader.from_files(stores["zlib"]),
    ]

    def digest(records):
        h = hashlib.sha256()
        for record in records:
            order = ["event"] + record_fields(record["event"])
            h.update(format_record(record, order).encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()

    fast = digest(merge_scan_fast(readers))
    oracle = digest(merge_scan(readers))
    assert fast == oracle
