"""Hot path guard -- the live kernel->filter pipeline at 50k events.

Blocking CI gate for the filter's fast lane:

1. run 50k mixed meter messages through the filter's per-event work
   (decode -> rule selection -> record formatting) twice: once on the
   reference lane (the description file walked field by field, the
   rule file interpreted) and once on the filter's compiled lane
   (``message_select``: one unpack, one columnar evaluation).  Outputs
   must be identical and the compiled lane at least 2x faster, above
   an absolute events/sec floor;
2. frame the same 50k-message stream with the old shrinking-``bytes``
   reslicer and the new indexed cursor; identical messages, cursor
   not slower;
3. measure monitored-vs-unmonitored perturbation on a chatty metered
   workload (wall clock and simulated time);
4. run the Appendix B session on the compiled lane and on the
   reference lane: the filter's text log and trace store must be
   byte-identical;
5. push 100k no-op events through the simulator's event queue and
   through an object heap ordered by a Python ``__lt__`` (the queue's
   representation before PR 15): same events run, and the tuple-keyed
   queue at least 1.5x faster.  A ratio only -- no ev/s floor;
6. count simulator events, no timing: a syscall loop runs in at most
   1.05 events per call, and the pinned ``dgram_burst`` session of
   ``tests/integration/test_schedule_identity.py`` in at most 18 000
   (32 729 before PR 19) -- so a later change cannot quietly bring
   back the per-syscall dispatch trampoline, the stale timers or the
   per-read window update.

Numbers are printed, not stored: ``python3 -m ledger`` is where
results are recorded.
"""

import heapq
import time

from benchmarks.conftest import HOSTS
from repro.core.cluster import Cluster
from repro.filtering.descriptions import DescriptionSet, default_description_set
from repro.filtering.filterlib import MAX_METER_MESSAGE, MeterInbox
from repro.filtering.records import format_record
from repro.filtering.rules import parse_rules
from repro.kernel import defs
from repro.metering import flags as mf
from repro.metering.messages import HEADER_BYTES, MessageCodec, peek_size
from repro.sim.simulator import Simulator
from repro.tracestore.batchscan import message_select
from tests.integration import test_schedule_identity as pinned
from tests.metering.harness import metered_spawn, start_collector

N_EVENTS = 50_000
#: Absolute floor for the dense-rule compiled pipeline.  PR 4's path
#: sustained ~205k ev/s on a stock runner, so 100k is
#: a real regression gate -- a change that halves the hot path fails
#: CI -- while still leaving 2x headroom for slow shared runners.
MIN_COMPILED_EPS = 100_000.0
MIN_SPEEDUP = 2.0

#: Count ceilings (exact per seed, so they gate on any runner).
N_SYSCALLS = 5000
MAX_EVENTS_PER_SYSCALL = 1.05
MAX_DGRAM_BURST_EVENTS = 18_000

#: Dense rule file: type-pinned selections with reductions plus range
#: conditions, the shape Figure 3.4 shows -- every record walks rules.
DENSE_RULES = """
type=8, sockName=peerName
type=1, msgLength>4096
type=1, msgLength>256, pc=#*
type=2, msgLength<32
type=9, peerName=inet:green:7777
type=4, domain=2
type=5, newSock>32
type=7, newPid>0, pc=#*
type=10, status!=0
machine=9
cpuTime>999999
"""

WILDCARD_RULES = "machine=*\n"


def _best_of(fn, *args, rounds=3):
    """(best wall seconds, result) over ``rounds`` runs -- the min is
    the standard noise-robust statistic for a throughput gate."""
    times = []
    result = None
    for __ in range(rounds):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), result


def _mixed_wire(n=N_EVENTS):
    """n encoded meter messages cycling through all ten Appendix-A
    formats with plausible field values."""
    from repro.net.addresses import InternetName

    codec = MessageCodec(HOSTS)
    names = [
        InternetName(HOSTS[(i % 4) + 1], 5000 + i, (i % 4) + 1) for i in range(8)
    ]
    wire = []
    for i in range(n):
        machine = (i % 4) + 1
        common = dict(machine=machine, cpu_time=i, proc_time=(i // 50) * 10)
        pid = 2000 + i % 16
        kind = i % 10
        name = names[i % 8]
        peer = names[(i + 3) % 8]
        if kind == 0:
            msg = codec.encode(
                "send", pid=pid, pc=i, sock=3, msgLength=16 * (1 + i % 64),
                destName=name, **codec.name_lengths(destName=name), **common
            )
        elif kind == 1:
            msg = codec.encode(
                "receive", pid=pid, pc=i, sock=3, msgLength=16 * (1 + i % 64),
                sourceName=name, **codec.name_lengths(sourceName=name), **common
            )
        elif kind == 2:
            msg = codec.encode("receivecall", pid=pid, pc=i, sock=3, **common)
        elif kind == 3:
            msg = codec.encode(
                "socket", pid=pid, pc=i, sock=3, domain=2 - i % 2, type=1,
                protocol=0, **common
            )
        elif kind == 4:
            msg = codec.encode(
                "dup", pid=pid, pc=i, sock=3, newSock=16 + i % 48, **common
            )
        elif kind == 5:
            msg = codec.encode("destsocket", pid=pid, pc=i, sock=3, **common)
        elif kind == 6:
            msg = codec.encode(
                "fork", pid=pid, pc=i, newPid=pid + 1 + i % 3, **common
            )
        elif kind == 7:
            msg = codec.encode(
                "accept", pid=pid, pc=i, sock=3, newSock=4, sockName=name,
                peerName=name if i % 5 == 0 else peer,
                **codec.name_lengths(sockName=name, peerName=peer), **common
            )
        elif kind == 8:
            msg = codec.encode(
                "connect", pid=pid, pc=i, sock=3, sockName=name, peerName=peer,
                **codec.name_lengths(sockName=name, peerName=peer), **common
            )
        else:
            msg = codec.encode(
                "termproc", pid=pid, pc=i, status=i % 7 - 3, **common
            )
        wire.append(msg)
    return wire


def _run_reference_lane(descriptions, rules, wire):
    """The filter's per-event work, the slow way: per-field decode,
    interpreted select/reduce, format."""
    lines = []
    field_order = descriptions.field_order
    decode = descriptions.decode_per_field
    apply_rules = rules.apply_interpreted
    for raw in wire:
        record = decode(raw, HOSTS)
        saved = apply_rules(record)
        if saved is None:
            continue
        lines.append(format_record(saved, field_order(record["event"])))
    return lines


def _run_fast_lane(descriptions, rules, wire):
    """The same work as the standard filter does it on Appendix-A
    descriptions: one ``select(raw)`` per message, then format."""
    lines = []
    field_order = descriptions.field_order
    select = message_select(rules, HOSTS)
    for raw in wire:
        selected = select(raw)
        if selected is None:
            continue
        lines.append(format_record(selected[0], field_order(selected[3])))
    return lines


def test_hotpath_50k_pipeline_speedup(benchmark):
    wire = _mixed_wire()
    descriptions = default_description_set()
    assert descriptions.appendix_a
    results = {}
    for label, rules_text in (("dense", DENSE_RULES), ("wildcard", WILDCARD_RULES)):
        rules = parse_rules(rules_text)

        slow_s, slow_lines = _best_of(
            _run_reference_lane, descriptions, rules, wire
        )

        if label == "dense":
            fast_lines = benchmark.pedantic(
                _run_fast_lane, args=(descriptions, rules, wire),
                rounds=3, iterations=1,
            )
            fast_s = benchmark.stats.stats.min
        else:
            fast_s, fast_lines = _best_of(
                _run_fast_lane, descriptions, rules, wire
            )

        # Identical selection, reduction, and formatting.
        assert fast_lines == slow_lines
        speedup = slow_s / fast_s
        results[label] = {
            "accepted": len(fast_lines),
            "interpreted_eps": round(N_EVENTS / slow_s),
            "compiled_eps": round(N_EVENTS / fast_s),
            "speedup": round(speedup, 2),
        }
        print(
            "\n[hotpath] {0}: {1} -> {2} ev/s ({3:.2f}x), "
            "{4}/{5} accepted".format(
                label,
                results[label]["interpreted_eps"],
                results[label]["compiled_eps"],
                speedup,
                len(fast_lines),
                N_EVENTS,
            )
        )

    # The acceptance gate: >= 2x on the dense-rules run, above a floor.
    assert results["dense"]["speedup"] >= MIN_SPEEDUP
    assert results["dense"]["compiled_eps"] >= MIN_COMPILED_EPS


def _frame_presliced(stream, chunk_size):
    """The pre-PR framing loop: per-message shrinking-bytes reslice."""
    messages = []
    buf = b""
    for start in range(0, len(stream), chunk_size):
        buf = buf + stream[start : start + chunk_size]
        while True:
            size = peek_size(buf)
            if size is None or (HEADER_BYTES <= size and len(buf) < size):
                break
            if size < HEADER_BYTES or size > MAX_METER_MESSAGE:
                raise AssertionError("corrupt bench stream")
            messages.append(buf[:size])
            buf = buf[size:]
    return messages


def _frame_cursor(stream, chunk_size):
    """The new framing: MeterInbox._feed over large reads."""
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    messages = []
    for start in range(0, len(stream), chunk_size):
        corrupt = inbox._feed(4, stream[start : start + chunk_size], messages)
        assert not corrupt
    return messages


def test_hotpath_framing_cursor(benchmark):
    wire = _mixed_wire()
    stream = b"".join(wire)

    old_s, old = _best_of(_frame_presliced, stream, 4096)

    new = benchmark.pedantic(
        _frame_cursor, args=(stream, 65536), rounds=3, iterations=1
    )
    new_s = benchmark.stats.stats.min

    assert new == old == wire
    print(
        "\n[hotpath] framing: {0} -> {1} ev/s ({2:.2f}x)".format(
            round(N_EVENTS / old_s), round(N_EVENTS / new_s), old_s / new_s
        )
    )
    assert new_s <= old_s


N_PERTURB_SENDS = 600


def _chatty(sys, argv):
    fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
    for __ in range(N_PERTURB_SENDS):
        yield sys.sendto(fd, b"x" * 64, ("green", 6000))
    yield sys.exit(0)


def _run_workload(metered):
    from repro.core.cluster import Cluster

    cluster = Cluster(seed=4)
    records = []
    if metered:
        records, __ = start_collector(cluster)
        proc = metered_spawn(
            cluster, "red", _chatty, flags=mf.METERSEND | mf.M_IMMEDIATE
        )
    else:
        proc = cluster.spawn("red", _chatty)
    t0 = time.perf_counter()
    cluster.run_until_exit([proc])
    wall_s = time.perf_counter() - t0
    cluster.run(until_ms=cluster.sim.now + 50)
    return wall_s, proc.proc_time(), len(records)


def test_hotpath_perturbation(benchmark):
    base_wall, base_proc_ms, __ = _run_workload(metered=False)
    metered_wall, metered_proc_ms, received = benchmark.pedantic(
        _run_workload, args=(True,), rounds=1, iterations=1
    )
    assert received == N_PERTURB_SENDS  # lossless under immediate mode
    print(
        "\n[hotpath] perturbation: {0} sends, wall {1:.3f}s -> {2:.3f}s, "
        "procTime {3} -> {4} ms".format(
            N_PERTURB_SENDS, base_wall, metered_wall,
            base_proc_ms, metered_proc_ms,
        )
    )


def _appendix_b_outputs(log_format):
    """Run the Appendix B pingpong session; return the filter output
    bytes (text log, or store segments keyed by path)."""
    from repro.core.cluster import Cluster
    from repro.core.session import MeasurementSession
    from repro.programs import install_all

    cluster = Cluster(seed=11)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format=log_format
    )
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob pp")
    session.command("addprocess pp red pingpongserver 5100 12")
    session.command("addprocess pp green pingpongclient red 5100 12")
    session.command("setflags pp send receive accept connect socket termproc")
    session.command("startjob pp")
    session.settle()
    if log_format == "store":
        machine = cluster.machines["blue"]
        return {
            path: bytes(machine.fs.node(path).data)
            for path in machine.fs.paths()
            if "f1.store" in path
        }
    __, text = session.find_filter_log("f1")
    return text.encode("ascii")


def test_hotpath_appendix_b_output_identical(monkeypatch):
    import repro.filtering.standard as standard

    for log_format in ("text", "store"):
        compiled = _appendix_b_outputs(log_format)
        with monkeypatch.context() as patch:
            # Interpreted rules have nothing to compile, so the filter
            # keeps the dict lane; decode it field by field too.
            patch.setattr(
                standard, "parse_rules",
                lambda text: parse_rules(text, compiled=False),
            )
            patch.setattr(
                DescriptionSet, "decode_message", DescriptionSet.decode_per_field
            )
            reference = _appendix_b_outputs(log_format)
        assert compiled == reference
        assert compiled  # the session really produced a trace
    print("\n[hotpath] appendix B output byte-identical (text + store)")


# ----------------------------------------------------------------------
# Event queue: tuple-keyed heap vs object heap
# ----------------------------------------------------------------------

N_QUEUE_EVENTS = 100_000
MIN_QUEUE_SPEEDUP = 1.5


class _ObjectEvent:
    """A heap entry ordered by a Python ``__lt__``."""

    __slots__ = ("time", "seq", "callback", "cancelled", "in_queue")

    def __init__(self, time, seq, callback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_queue = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _ObjectHeapQueue:
    """The event queue as it was before PR 15, cut down to what this
    gate drives: ``schedule`` and a ``run`` that peeks, then steps."""

    def __init__(self):
        self.now = 0.0
        self.events_run = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay_ms, callback):
        assert delay_ms >= 0
        event = _ObjectEvent(self.now + delay_ms, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def _peek(self):
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue).in_queue = False
        return self._queue[0] if self._queue else None

    def step(self):
        while self._queue:
            event = heapq.heappop(self._queue)
            event.in_queue = False
            if event.cancelled:
                continue
            assert event.time >= self.now
            self.now = event.time
            self.events_run += 1
            event.callback()
            return True
        return False

    def run(self):
        while self._peek() is not None:
            self.step()


def _noop():
    pass


def _dispatch(queue, n):
    """The ledger's ``sim.dispatch_per_s`` shape: ``n`` no-op events
    over 1000 distinct times, all queued before the first one runs."""
    for i in range(n):
        queue.schedule((i * 7919) % 1000 / 10.0, _noop)
    queue.run()
    return queue.events_run, queue.now


def test_hotpath_event_queue_ratio(benchmark):
    old_s, old = _best_of(lambda: _dispatch(_ObjectHeapQueue(), N_QUEUE_EVENTS))
    new = benchmark.pedantic(
        lambda: _dispatch(Simulator(seed=0), N_QUEUE_EVENTS),
        rounds=3, iterations=1,
    )
    new_s = benchmark.stats.stats.min
    assert new == old and new[0] == N_QUEUE_EVENTS
    print(
        "\n[hotpath] event queue: {0} -> {1} ev/s ({2:.2f}x)".format(
            round(N_QUEUE_EVENTS / old_s), round(N_QUEUE_EVENTS / new_s),
            old_s / new_s,
        )
    )
    assert old_s / new_s >= MIN_QUEUE_SPEEDUP


def test_hotpath_event_counts():
    cluster = Cluster(seed=7)

    def guest(sys, argv):
        for __ in range(N_SYSCALLS):
            yield sys.getpid()
        yield sys.exit(0)

    cluster.run_until_exit([cluster.spawn("red", guest)])
    per_syscall = cluster.sim.events_run / N_SYSCALLS
    burst = pinned._run(pinned._dgram_burst, 11, "text").cluster.sim.events_run
    print(
        "\n[hotpath] events: {0:.4f} per syscall, dgram_burst session {1}".format(
            per_syscall, burst
        )
    )
    assert per_syscall <= MAX_EVENTS_PER_SYSCALL
    assert burst <= MAX_DGRAM_BURST_EVENTS
