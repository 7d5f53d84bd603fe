"""The standard filter (Section 3.4).

"After receiving a message from standard input, the default filter
performs selection and reduction operations on the event records
received.  It uses event record descriptions and selection rules to
specify the criteria for data selection and reduction."

Guest program arguments::

    argv = [filtername, log_path, descriptions_path, templates_path]

Accepted records go to the filter's log file ("A filter sends its
output to a log file located in the /usr/tmp directory.  Each filter
has its own log file.").  Two output modes, chosen by the log path's
suffix:

- ``<name>.log`` -- the paper's text mode: one line per record,
  opened in *append* mode so a filter relaunched after a daemon
  restart extends the log instead of erasing it;
- ``<name>.store`` -- the binary trace store: accepted records are
  appended in their Appendix-A wire encoding to segmented, indexed
  files (see :mod:`repro.tracestore`), which is what the streaming
  analyses and large computations want.

The log directory defaults to the paper's ``/usr/tmp`` but is a per-
session setting (carried here through the log path argument), so
concurrent sessions on one machine keep separate logs.
"""

from operator import itemgetter

from repro import guestlib
from repro.filtering.descriptions import parse_descriptions
from repro.filtering.filterlib import MeterInbox
from repro.filtering.records import format_record, parse_trace
from repro.filtering.rules import RuleSet, parse_rules
from repro.kernel.errno import SyscallError
from repro.metering.messages import (
    WINDOW_BATCHES,
    is_batch_marker,
    parse_batch_marker,
    record_fields,
)
from repro.streaming import protocol as streamproto
from repro.streaming.engine import StreamEngine, serve_query
from repro.tracestore import (
    StoreWriter,
    discard_mask,
    flush_to_guest,
    next_segment_index,
    zero_masked_bytes,
)
from repro.tracestore.batchscan import message_select
from repro.tracestore.format import masked_fields
from repro.tracestore.reader import Segment
from repro.tracestore.writer import segment_path

PROGRAM_NAME = "filter"
DEFAULT_LOG_DIRECTORY = "/usr/tmp"

TEXT_SUFFIX = ".log"
STORE_SUFFIX = ".store"

LOG_FORMAT_TEXT = "text"
LOG_FORMAT_STORE = "store"

#: Text-mode log buffering: accepted lines accumulate across wait
#: batches and hit the file in one write when the buffer reaches this
#: many bytes, the meter stream goes idle for the flush interval, or
#: half a meter resend window of batches has been accepted since the
#: last write -- so a buffered batch is on disk before its sender's
#: window can roll it out (a relaunched filter gets only the window).
LOG_FLUSH_BYTES = 32 * 1024
LOG_IDLE_FLUSH_MS = 5.0
LOG_FLUSH_BATCHES = WINDOW_BATCHES // 2

#: A store-mode batch item is (payload, mask, saved record): the
#: writer takes the first two.
_PAYLOAD_MASK = itemgetter(0, 1)


def log_path_for(filtername, directory=None, log_format=LOG_FORMAT_TEXT):
    suffix = STORE_SUFFIX if log_format == LOG_FORMAT_STORE else TEXT_SUFFIX
    return "{0}/{1}{2}".format(
        directory or DEFAULT_LOG_DIRECTORY, filtername, suffix
    )


# ----------------------------------------------------------------------
# Batch commit protocol
# ----------------------------------------------------------------------
#
# The kernel meter trails every flushed batch with a sequence marker
# (machine, pid, seq) and retransmits its resend window when a filter
# reconnects.  The filter holds a batch's accepted records in memory
# until the marker arrives, then commits records *and* a durable copy
# of the marker to the log in one atomic step: one frame run ending in
# a marker frame, or one text write, which carries one ``#batch`` line
# per process (:class:`TextLogBuffer`; a torn or lost write so strips
# the line from the process's whole run of batches in it, and a resend
# duplicates the run).  A batch whose every record the templates
# reject commits nothing, not even its marker: the log grows with what
# the filter keeps.  A relaunched filter recovers the committed
# sequence numbers from its own log and rejects retransmissions of
# batches it already has -- at-least-once delivery on the wire,
# exactly-once records in the log.  (A retransmitted empty batch is
# selected again and again commits nothing.)


def format_batch_line(machine, pid, seq):
    """The durable text form of a batch-commit marker."""
    return "#batch {0} {1} {2}".format(machine, pid, seq)


def parse_batch_line(line):
    """(machine, pid, seq) of a ``#batch`` line, or None."""
    parts = line.split()
    if len(parts) != 4 or parts[0] != "#batch":
        return None
    try:
        return int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        return None


class TextLogBuffer:
    """A text filter's committed lines awaiting their one atomic write.

    A batch whose process already has a ``#batch`` line here blanks
    that line: the write is atomic and recovery reads only the highest
    seq per process, so it keeps the line of each process's last batch,
    right after that batch's records.  :attr:`nbytes` is what the write
    will carry."""

    def __init__(self):
        self.lines = []  # None where a later #batch line took over
        self.nbytes = 0
        self._marker_at = {}  # (machine, pid) -> index of its #batch line

    def commit(self, records, key, seq):
        """Buffer one batch: its record lines, then the ``#batch`` line
        of ``key`` = (machine, pid) at ``seq``."""
        lines = self.lines
        at = self._marker_at.get(key)
        if at is not None:
            self.nbytes -= len(lines[at]) + 1
            lines[at] = None
        marker = format_batch_line(key[0], key[1], seq)
        lines.extend(records)
        lines.append(marker)
        self._marker_at[key] = len(lines) - 1
        self.nbytes += sum(map(len, records)) + len(records) + len(marker) + 1

    def take(self):
        """The bytes of the next write; the buffer is empty after."""
        data = ("\n".join(filter(None, self.lines)) + "\n").encode("ascii")
        self.lines = []
        self.nbytes = 0
        self._marker_at.clear()
        return data


def recover_text_seqs(text):
    """(machine, pid) -> last committed batch seq, from a text log."""
    recovered = {}
    for line in text.splitlines():
        if not line.startswith("#batch"):
            continue
        parsed = parse_batch_line(line)
        if parsed is None:
            continue
        machine, pid, seq = parsed
        key = (machine, pid)
        if seq > recovered.get(key, -1):
            recovered[key] = seq
    return recovered


def recover_store_seqs(sys, base, on_record=None):
    """(machine, pid) -> last committed batch seq, from marker frames
    in a store's existing segments -- including an unsealed tail, which
    is recovered by frame scan (a marker on disk means its whole batch
    precedes it on disk).

    ``on_record(mask, payload)``, if given, sees every committed
    non-marker frame in commit order along the way -- how a relaunched
    filter replays its log into a fresh streaming engine in the same
    single pass."""
    recovered = {}
    index = 0
    while True:
        data = yield from guestlib.read_whole_bytes(
            sys, segment_path(base, index)
        )
        if data is None:
            return recovered
        index += 1
        segment = Segment("", data)
        if not segment.valid:
            continue  # damaged header: nothing recoverable here
        for item in segment.committed_frames():
            if item[0] == "gap":
                continue  # quarantined bytes: no frame to replay
            __, __, mask, payload = item
            marker = parse_batch_marker(payload)
            if marker is None:
                if on_record is not None:
                    on_record(mask, payload)
                continue
            machine, pid, seq = marker
            key = (machine, pid)
            if seq > recovered.get(key, -1):
                recovered[key] = seq


def standard_filter(sys, argv):
    """Guest main for the standard filter."""
    filtername = argv[0] if len(argv) > 0 else "filter"
    log_path = argv[1] if len(argv) > 1 else log_path_for(filtername)
    descriptions_path = argv[2] if len(argv) > 2 else "descriptions"
    templates_path = argv[3] if len(argv) > 3 else "templates"

    descriptions_text = yield from guestlib.read_whole_file(sys, descriptions_path)
    descriptions = parse_descriptions(descriptions_text)
    templates_text = yield from guestlib.read_optional_file(sys, templates_path)
    rules = parse_rules(templates_text) if templates_text is not None else RuleSet([])
    host_names = yield sys.hosttable()
    store_mode = log_path.endswith(STORE_SUFFIX)

    def select_on_dict(raw):
        record = descriptions.decode_message(raw, host_names)
        saved = rules.apply(record)
        if saved is None:
            return None
        event = record["event"]
        mask = 0
        if store_mode:
            mask = discard_mask(
                event,
                {name for name in record_fields(event) if name not in saved},
            )
        return saved, mask, (record["machine"], record.get("pid", 0)), event

    # select(raw) -> None, or (saved record, discard mask, (machine,
    # pid) batch key, event name); ValueError/KeyError if malformed.
    # With the shipped (Appendix-A) descriptions the rule set compiles
    # to the store scan's columnar program: one unpack and one
    # evaluation per message, and only accepted records become dicts.
    # Edited descriptions are a different protocol, and an empty rule
    # set has nothing to compile: those decode by the description file
    # and select on the dict.
    select = select_on_dict
    if descriptions.appendix_a:
        select = message_select(rules, host_names) or select_on_dict

    # The live analysis engine folds exactly the records this filter
    # commits, in commit order.  A relaunched incarnation replays the
    # previous incarnation's committed log into a fresh engine before
    # accepting new traffic, and the inbox's batch dedup rejects
    # retransmissions of replayed batches -- so online answers always
    # equal a post-mortem fold over the finished log (the twin oracle).
    engine = StreamEngine()
    if store_mode:
        # A relaunched filter continues after the segments an earlier
        # incarnation flushed; it never rewrites them.  Sequence
        # recovery scans those segments (the unsealed tail included)
        # for committed batch markers, and auto_seal is off so a
        # segment never seals inside a half-committed batch.
        start = yield from next_segment_index(sys, log_path)

        def replay_frame(mask, payload):
            try:
                record = descriptions.decode_message(payload, host_names)
            except (ValueError, KeyError):
                return  # mirror the live path: malformed frames drop
            if mask:
                for name in masked_fields(record["event"], mask):
                    record.pop(name, None)
            engine.update(record)

        recovered = yield from recover_store_seqs(
            sys, log_path, on_record=replay_frame
        )
        writer = StoreWriter(
            log_path, start_index=start, host_names=host_names, auto_seal=False
        )
        log_fd = None
    else:
        writer = None
        existing = yield from guestlib.read_optional_file(sys, log_path)
        recovered = recover_text_seqs(existing) if existing else {}
        if existing:
            for record in parse_trace(existing):
                engine.update(record)
        log_fd = yield sys.open(log_path, "a")

    inbox = MeterInbox(recovered_seqs=recovered)
    #: conn fd -> {(machine, pid) -> the in-flight batch's accepted
    #: items} (forked children share their parent's connection); the
    #: last element of every item is the saved record dict, fed to the
    #: streaming engine at commit.  Committed or discarded when the
    #: batch's trailing marker arrives, and only then: records with no
    #: marker never reach the log, nor do those of a closed connection
    #: (its meter resends the whole batch on the next).
    open_batches = {}
    field_orders = {}  # event -> its log line order, looked up once
    pending = TextLogBuffer()  # committed lines buffered across wait batches
    pending_batches = 0  # batches accepted while lines await a write

    def commit(batch, key, seq, raw):
        """One batch's items to the log, then to the engine.  A store
        takes ``raw``, the marker message, as the durable marker; text
        goes through :class:`TextLogBuffer`.  A batch with no accepted
        item leaves no trace, marker included."""
        if not batch:
            return
        if store_mode:
            writer.append_many(map(_PAYLOAD_MASK, batch))
            writer.append_marker(raw)
            writer.maybe_seal()
        else:
            pending.commit([item[0] for item in batch], key, seq)
        for item in batch:
            engine.update(item[-1])

    while True:
        # While lines are buffered, wake after a short idle gap so the
        # log never lags the stream by more than the flush interval.
        timeout_ms = LOG_IDLE_FLUSH_MS if pending.lines else None
        reads = yield from inbox.wait_reads(sys, timeout_ms=timeout_ms)
        received = False
        for fd, raw_messages in reads:
            if raw_messages is None:
                open_batches.pop(fd, None)  # the connection closed
                continue
            received = True
            batches = open_batches.get(fd)
            if batches is None:
                batches = open_batches[fd] = {}
            for raw in raw_messages:
                if is_batch_marker(raw):
                    marker = parse_batch_marker(raw)
                    if marker is None:
                        continue
                    machine_id, pid, seq = marker
                    key = (machine_id, pid)
                    batch = batches.pop(key, [])
                    if not inbox.accept_batch(machine_id, pid, seq):
                        continue  # retransmitted batch already in the log
                    pending_batches += 1
                    commit(batch, key, seq, raw)
                    continue
                try:
                    selected = select(raw)
                except (ValueError, KeyError):
                    # Anything may connect to the meter port; a malformed
                    # message must not take the filter down -- drop it.
                    continue
                if selected is None:
                    continue
                saved, mask, key, event = selected
                if store_mode:
                    item = (zero_masked_bytes(raw, event, mask), mask, saved)
                else:
                    order = field_orders.get(event)
                    if order is None:
                        order = field_orders[event] = descriptions.field_order(event)
                    item = (format_record(saved, order), saved)
                batches.setdefault(key, []).append(item)
        for query_fd, raw_query in inbox.take_queries():
            # A live-analysis query on the meter port: answer from the
            # engine on the same connection, one JSON frame.
            reply = serve_query(engine, streamproto.parse_query(raw_query))
            try:
                yield from guestlib.send_frame(
                    sys, query_fd, streamproto.encode_reply(reply)
                )
            except SyscallError:
                pass  # asker gone; engine state is unaffected
        if store_mode:
            # Bounded buffering: whatever this batch left in the
            # writer's buffer goes to disk before we block again.
            writer.sync()
            yield from flush_to_guest(sys, writer)
            continue
        # One write per committed batch train: flush when the stream
        # pauses (idle timeout, connection close), the buffer fills, or
        # the train is half a resend window long.  The whole of
        # ``pending`` goes in one atomic write, so a batch's records and
        # the ``#batch`` line of its process's last batch in the write
        # always land together.
        if not pending.lines:
            pending_batches = 0  # nothing buffered, nothing to lose
        elif (
            not received
            or pending.nbytes >= LOG_FLUSH_BYTES
            or pending_batches >= LOG_FLUSH_BATCHES
        ):
            pending_batches = 0
            yield sys.write(log_fd, pending.take())
        # The filter runs until the controller removes it (die).
