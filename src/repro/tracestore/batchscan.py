"""Batch fast lane: fused decode + columnar rule pre-screen.

:meth:`StoreReader.scan` is the *oracle*: one codec decode per frame,
one dict per record, predicates and rules interpreted over dicts.  At
~200k events/s that is the whole cost of an interactive query loop, so
this module compiles the same semantics down to batch-shaped work:

- **Fused frame decode.**  Frames of one payload length share one
  precompiled ``struct.Struct`` covering frame header + message header
  + the body's long prefix (every Appendix-A body is longs first, then
  16-byte NAME blobs), so splitting a frame and decoding its integer
  columns is a single ``unpack_from``.  Stores are bursty -- runs of
  frames share a length and a traceType -- so the walk speculatively
  reuses the previous frame's layout and re-resolves only on change.
- **Columnar rule pre-screen.**  For each traceType the candidate rule
  list (:meth:`RuleSet.candidates`, the exact dispatch ``apply`` uses)
  is compiled to one generated function over the unpacked tuple.  It
  returns an accept token (carrying the matching rule's
  discard-specialized record materializer and discard mask) or
  ``None`` (no rule can match: the record dict is never built).  NAME
  conditions compare display strings read straight out of the buffer
  through the scan's host table.  A discard mask hides a field from
  the rules, so every condition is guarded by a required-field
  bitmask test against the frame's mask.
- **Lazy record materialization.**  Accepted records are built by a
  generated dict-literal function in exactly the codec's key order;
  NAME blobs decode through a per-scan cache keyed on their raw bytes.
  (The layouts, materializers and NAME cache live beside the codec in
  :mod:`repro.metering.messages`, the wire format's one owner.)
- **Checksum hoisting.**  A sealed segment is verified with one CRC32
  sweep over the whole frame region (the footer's ``data_crc32``)
  instead of one per frame; a mismatch, or a footer without the field,
  falls back to the per-frame oracle walk so an error surfaces at the
  exact offset.

Anything the fused path cannot prove equivalent -- unsealed tails
(commit truncation), salvage mode, frames whose length or size field
does not match a known message layout, damaged regions -- drops to the
oracle (per frame or per segment), so the fast lane is record-identical
to ``scan`` + ``RuleSet.apply`` on plain, compressed and mixed stores.
One documented difference: the fast lane buffers a sealed segment's
records before yielding them, so in strict mode a corruption error in
segment N surfaces *before* N's earlier records instead of after them
(the record stream up to the raise differs only in that suffix).

:func:`message_select` runs the same compiled program over the live
filter's raw wire messages (no frame header, no masks): one unpack and
one evaluation per message, straight to the reduced record.
"""

import heapq
import struct
import zlib

from repro.metering.messages import (
    BATCH_MARKER_TYPE,
    EVENT_TYPES,
    event_layout,
    frame_layout,
    is_batch_marker,
    name_column,
    name_lookup,
    wire_layout,
)
from repro.tracestore import format as sformat
from repro.tracestore.errors import CorruptFrameError, CorruptSegmentError
from repro.tracestore.reader import ScanStats

_U32 = struct.Struct(">I")

#: Struct codes of the frame header: a stored frame prefixes the
#: message with (length, mask, crc32).  The live filter's bare wire
#: messages have no prefix.
_PREFIX = "III"

_OP_TEXT = {"=": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


class _Accept:
    """Screen accept token: the rule that matched, as its
    discard-specialized materializer and its discard mask."""

    __slots__ = ("mat", "mask")

    def __init__(self, info, discards):
        self.mat = info.materializer(discards)
        self.mask = sformat.discard_mask(info.event, discards)


def _selected(records, ruleset):
    """``records`` through ``ruleset.apply`` on the dict lane (None:
    everything, unreduced)."""
    if ruleset is None:
        return records
    return (
        saved for saved in map(ruleset.apply, records) if saved is not None
    )


# ----------------------------------------------------------------------
# Condition compilation (column expressions over the unpacked tuple)
# ----------------------------------------------------------------------


def _cmp_expr(cond, op, actual, expected):
    """Python expression (or const "True"/"False") comparing two
    operands, each ("const", value), ("long", tuple index) or
    ("name", NAME slot), with :meth:`Condition._compare`'s type rules:
    int/int numeric, anything else as strings."""
    actual_kind, actual_val = actual
    expected_kind, expected_val = expected
    if actual_kind == "const" and expected_kind == "const":
        return "True" if cond._compare(actual_val, expected_val) else "False"
    if actual_kind == "long" and expected_kind == "long":
        return "(t[%d] %s t[%d])" % (actual_val, op, expected_val)
    if actual_kind == "name" or expected_kind == "name":
        # A NAME column is a display string, so this is _compare's
        # string branch: coerce the other operand to str.
        if actual_kind == "name":
            left = name_column(actual_val)
        elif actual_kind == "long":
            left = "str(t[%d])" % actual_val
        else:
            left = repr(str(actual_val))
        if expected_kind == "name":
            right = name_column(expected_val)
        elif expected_kind == "long":
            right = "str(t[%d])" % expected_val
        else:
            right = repr(str(expected_val))
        return "(%s %s %s)" % (left, op, right)
    if actual_kind == "long":
        if isinstance(expected_val, int):
            return "(t[%d] %s %d)" % (actual_val, op, expected_val)
        return "(str(t[%d]) %s %r)" % (actual_val, op, str(expected_val))
    if isinstance(actual_val, int):
        return "(%d %s t[%d])" % (actual_val, op, expected_val)
    return "(%r %s str(t[%d]))" % (str(actual_val), op, expected_val)


def _finish(cond, op, actual, expected, refbit=0, masked_expected=None):
    """One condition over known operands: True, False (no record of
    this type can satisfy it) or the expression's source text."""
    present = _cmp_expr(cond, op, actual, expected)
    if refbit and masked_expected is not None:
        # A masked cross-field reference falls back to the literal
        # string (Condition.matches: absent ref -> literal).
        masked = _cmp_expr(cond, op, actual, masked_expected)
        if masked != present:
            present = "((%s) if not (m & %d) else (%s))" % (
                present, refbit, masked
            )
    return {"True": True, "False": False}.get(present, present)


def _condition_expr(cond, info, masks):
    """Lower one condition against an event layout.

    Returns (expr, required_bits): expr a Python expression over
    ``t``/``m``/``buf``/``noff``/``look``, True when the presence guard
    alone decides, or False when no record of this type can satisfy
    it.  ``required_bits`` are the mask bits that must be *clear* (a
    masked field is absent, and an absent field fails every
    condition); ``masks`` says whether the records carry a discard
    mask at all.
    """
    field = cond.field
    field_bit = info.field_bits.get(field)
    bits = (1 << field_bit) if field_bit is not None else 0
    if field == "event":
        actual = ("const", info.event)
    elif field == "traceType":
        # Within one screen the traceType is a known constant.
        actual = ("const", info.type_code)
    elif field in info.long_index:
        actual = ("long", info.long_index[field])
    elif field in info.name_index:
        actual = ("name", info.name_index[field])
    else:
        return False, 0  # field never present on this event
    if cond.is_wildcard:
        return True, bits
    op = _OP_TEXT[cond.op]
    ref = cond.ref
    literal = ("const", cond.value)
    if ref is None:
        return _finish(cond, op, actual, literal), bits
    if ref == "event":
        expected = ("const", info.event)
    elif ref == "traceType":
        expected = ("const", info.type_code)
    elif ref in info.long_index:
        expected = ("long", info.long_index[ref])
    elif ref in info.name_index:
        expected = ("name", info.name_index[ref])
    else:
        expected = literal  # a field this event never carries
    ref_bit = info.field_bits.get(ref)
    return _finish(
        cond, op, actual, expected,
        (1 << ref_bit) if ref_bit is not None else 0,
        literal if masks else None,
    ), bits


def _compile_screen(candidates, info, masks):
    """Generate ``screen(t, buf, noff, look)`` for one traceType: the
    first-match walk over ``candidates`` (the exact list
    ``RuleSet.apply`` consults), evaluated on columns -- NAME columns
    read straight out of ``buf`` at ``noff`` and displayed via
    ``look``.  Returns the matching rule's :class:`_Accept`, or None
    (no rule can match -- the record is never materialized)."""
    body = []
    namespace = {}
    for index, rule in enumerate(candidates):
        token = "A%d" % index
        lowered = [
            _condition_expr(cond, info, masks) for cond in rule.conditions
        ]
        if any(expr is False for expr, __ in lowered):
            continue  # this rule can never match this traceType
        parts = [expr for expr, __ in lowered if expr is not True]
        required = 0
        for __, bits in lowered:
            required |= bits
        if required and masks:
            parts.insert(0, "not (m & %d)" % required)
        namespace[token] = _Accept(info, rule.discards)
        if parts:
            body.append("    if %s:" % " and ".join(parts))
            body.append("        return %s" % token)
        else:
            body.append("    return %s" % token)
            break
    body.append("    return None")
    lines = ["def screen(t, buf, noff, look):"]
    if any("(m & " in line for line in body):
        lines.append("    m = t[1]")
    lines.extend(body)
    exec("\n".join(lines) + "\n", namespace)
    return namespace["screen"]


class _Program:
    """Per-rule-set compilation state: layouts plus per-traceType
    screens, resolved lazily by payload length."""

    __slots__ = ("ruleset", "by_length")

    def __init__(self, ruleset):
        self.ruleset = ruleset
        self.by_length = {}

    def entry(self, length):
        """(fused unpack_from, {traceType: (layout, screen or None)})
        for frames with a ``length``-byte payload."""
        unpack, infos = frame_layout(_PREFIX, length)
        if unpack is None:
            entry = (None, None)
        else:
            typedisp = {}
            for type_code, info in infos.items():
                screen = None
                if self.ruleset is not None:
                    screen = _compile_screen(
                        self.ruleset.candidates(type_code), info, masks=True
                    )
                typedisp[type_code] = (info, screen)
            entry = (unpack, typedisp)
        self.by_length[length] = entry
        return entry


# ----------------------------------------------------------------------
# The segment walk
# ----------------------------------------------------------------------


def _walk_segment(path, buf, start, end, out_append, program, ruleset,
                  codec, look, stats, machine_set, pid_set, event_set,
                  t_min, t_max):
    """Walk one sealed segment's frame region, appending final records
    (predicates, masks and rules applied) to ``out_append``.  Exactly
    :meth:`StoreReader._segment_records` + ``RuleSet.apply``, lowered.
    The caller has verified the region's CRC, so frames are not
    checksummed again one by one.
    """
    overhead = sformat.FRAME_OVERHEAD_BYTES
    base = len(_PREFIX)
    size_ix, machine_ix, cpu_ix, tt_ix = base, base + 1, base + 2, base + 4
    filtered = not (
        machine_set is None and pid_set is None and event_set is None
        and t_min is None and t_max is None
    )
    u32 = _U32.unpack_from
    struct_error = struct.error
    by_length = program.by_length
    resolve = program.entry
    marker_type = BATCH_MARKER_TYPE
    decoded = yielded = prescreened = 0

    def fallback(off, nxt):
        """Per-frame oracle: the codec decodes (or faults on) frames
        the fused path cannot prove it understands."""
        nonlocal decoded, yielded
        payload = buf[off + overhead : nxt]
        if is_batch_marker(payload):
            return
        mask = u32(buf, off + 4)[0]
        try:
            record = codec.decode(payload)
        except ValueError as err:
            # The region is CRC-verified, so this is real damage: the
            # strict scan raises, exactly like the oracle.
            raise CorruptSegmentError(
                "undecodable frame payload: %s" % err, path=path
            )
        decoded += 1
        if event_set is not None and record["event"] not in event_set:
            return
        if machine_set is not None and record["machine"] not in machine_set:
            return
        if pid_set is not None:
            if (record["machine"], record.get("pid")) not in pid_set:
                return
        time = record["cpuTime"]
        if t_min is not None and time < t_min:
            return
        if t_max is not None and time > t_max:
            return
        if mask:
            for name in sformat.masked_fields(record["event"], mask):
                record.pop(name, None)
        yielded += 1
        for record in _selected((record,), ruleset):
            out_append(record)

    off = start
    cur_len = -1
    unpack = typedisp = None
    last_tt = last_pair = None
    while off + overhead <= end:
        t = None
        if unpack is not None:
            # Speculate: reuse the previous frame's layout (t[0] is the
            # real length word, so a stale layout can never stick).
            try:
                t = unpack(buf, off)
            except struct_error:
                t = None
            else:
                if t[0] != cur_len:
                    t = None
        if t is None:
            length = u32(buf, off)[0]
            if length != cur_len:
                entry = by_length.get(length)
                if entry is None:
                    entry = resolve(length)
                unpack, typedisp = entry
                cur_len = length
                last_tt = last_pair = None
            nxt = off + overhead + cur_len
            if nxt > end:
                raise CorruptFrameError(
                    "frame at offset %d overruns the sealed data region"
                    % off,
                    path=path, offset=off,
                )
            if unpack is None:
                fallback(off, nxt)  # shorter than a message header
                off = nxt
                continue
            t = unpack(buf, off)
        else:
            nxt = off + overhead + cur_len
            if nxt > end:
                raise CorruptFrameError(
                    "frame at offset %d overruns the sealed data region"
                    % off,
                    path=path, offset=off,
                )
        tt = t[tt_ix]
        if tt != last_tt:
            last_tt = tt
            last_pair = typedisp.get(tt)
        pair = last_pair
        if pair is None or t[size_ix] > cur_len:
            if tt == marker_type:
                off = nxt  # delivery-protocol control frame
                continue
            fallback(off, nxt)
            off = nxt
            continue
        info, screen = pair
        decoded += 1
        if filtered:
            if event_set is not None and info.event not in event_set:
                off = nxt
                continue
            if machine_set is not None and t[machine_ix] not in machine_set:
                off = nxt
                continue
            if pid_set is not None:
                pid_ix = info.pid_index
                pid = t[pid_ix] if pid_ix is not None else None
                if (t[machine_ix], pid) not in pid_set:
                    off = nxt
                    continue
            time = t[cpu_ix]
            if t_min is not None and time < t_min:
                off = nxt
                continue
            if t_max is not None and time > t_max:
                off = nxt
                continue
        yielded += 1
        mat = info.mat
        if screen is not None:
            accept = screen(t, buf, off + info.names_offset, look)
            if accept is None:
                prescreened += 1
                off = nxt
                continue
            mat = accept.mat
        record = mat(t, buf, off + info.names_offset, look)
        mask = t[1]
        if mask:
            for name in info.masked(mask):
                record.pop(name, None)
        out_append(record)
        off = nxt
    stats.records_decoded += decoded
    stats.records_yielded += yielded
    stats.records_prescreened += prescreened


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def _iter_fast(reader, ruleset, machines, pids, events, t_min, t_max):
    stats = reader.last_stats = ScanStats()
    stats.segments_total = len(reader.segments)
    machine_set = set(machines) if machines is not None else None
    pid_set = set(pids) if pids is not None else None
    event_set = set(events) if events is not None else None
    #: Rule-event pushdown: a sealed segment holding only events no
    #: rule can ever accept is skipped on its footer alone.  Guarded to
    #: segments whose footer names only decodable event types, so a
    #: strict scan's corruption errors are not skipped along with it.
    rule_events = ruleset.pinned_events() if ruleset is not None else None
    codec = reader.codec
    look = name_lookup(codec.host_names)
    program = _Program(ruleset)

    def oracle_walk(segment):
        return _selected(
            reader._segment_records(
                segment, stats, machine_set, pid_set, event_set,
                t_min, t_max, False,
            ),
            ruleset,
        )

    for segment in reader.segments:
        if not segment.valid:
            stats.segments_bad_header += 1
            stats.segment_errors.append(
                (segment.path, str(segment.header_error))
            )
            continue
        if segment.sealed:
            footer = segment.footer
            if not sformat.footer_matches(
                footer, machines=machine_set, pids=pid_set,
                events=event_set, t_min=t_min, t_max=t_max,
            ):
                stats.segments_skipped += 1
                continue
            if rule_events is not None:
                keys = footer["events"]
                if all(key in EVENT_TYPES for key in keys) and not any(
                    key in rule_events for key in keys
                ):
                    stats.segments_skipped += 1
                    continue
        else:
            stats.segments_recovered += 1
        stats.segments_scanned += 1
        stats.bytes_scanned += segment.data_bytes()
        if not segment.sealed:
            # Unsealed tails need marker-based commit truncation: the
            # oracle walk is authoritative (and tails are small).
            yield from oracle_walk(segment)
            continue
        buf, start, end = segment.frame_region()
        region_crc = segment.footer.get("data_crc32")
        if region_crc is None or (
            zlib.crc32(memoryview(buf)[start:end]) & 0xFFFFFFFF != region_crc
        ):
            # No region checksum, or the one sweep failed: the oracle
            # verifies per frame, so an error carries the exact offset.
            yield from oracle_walk(segment)
            continue
        out = []
        _walk_segment(
            segment.path, buf, start, end, out.append, program, ruleset,
            codec, look, stats, machine_set, pid_set, event_set,
            t_min, t_max,
        )
        yield from out


def scan_fast(reader, machines=None, pids=None, events=None, t_min=None,
              t_max=None, salvage=False):
    """Drop-in fast :meth:`StoreReader.scan`: same records, same order,
    same strict-mode errors (modulo the buffering note above), same
    ``reader.last_stats`` accounting.  Salvage mode needs the oracle's
    resynchronization machinery and delegates to it wholesale."""
    if salvage:
        yield from reader.scan(
            machines=machines, pids=pids, events=events,
            t_min=t_min, t_max=t_max, salvage=True,
        )
        return
    yield from _iter_fast(reader, None, machines, pids, events, t_min, t_max)


def select(reader, ruleset=None, machines=None, pids=None, events=None,
           t_min=None, t_max=None, salvage=False):
    """Scan + rule selection in one fused pass; returns the list of
    accepted (reduced) records -- exactly
    ``[ruleset.apply(r) for r in reader.scan(...)]`` minus the Nones.
    Interpreted (``compiled=False``) rule sets and salvage scans run
    the oracle directly."""
    if ruleset is not None and not ruleset.rules:
        ruleset = None  # empty rule set accepts everything unreduced
    if salvage or (ruleset is not None and not ruleset.compiled):
        return list(_selected(
            reader.scan(
                machines=machines, pids=pids, events=events,
                t_min=t_min, t_max=t_max, salvage=salvage,
            ),
            ruleset,
        ))
    return list(
        _iter_fast(reader, ruleset, machines, pids, events, t_min, t_max)
    )


def merge_scan_fast(readers, **predicates):
    """K-way merge of fast scans by (cpuTime, machine): the fast-lane
    :func:`repro.tracestore.reader.merge_scan`."""
    streams = [scan_fast(reader, **predicates) for reader in readers]
    return heapq.merge(
        *streams,
        key=lambda record: (record.get("cpuTime", 0), record.get("machine", 0))
    )


def message_select(ruleset, host_names):
    """The live filter's record lane: ``select(raw)`` takes one bare
    wire message through one unpack and one evaluation of the compiled
    program and returns None (no rule accepts it) or ``(saved, mask,
    (machine, pid), event)`` -- exactly ``ruleset.apply`` of the
    decoded record, the discard mask of the fields the matching rule
    dropped, and the sender's batch key and the event name taken from
    the message itself (a rule may discard them from ``saved``).
    Raises ValueError for anything that is not a whole Appendix-A
    message.

    ``host_names`` must be the table accepted records are displayed
    with: NAME conditions compare display strings.  Returns None when
    there is nothing to compile (uncompiled or empty rule set -- an
    empty set accepts everything unreduced); the caller must only
    install it when its record descriptions are the Appendix-A layouts
    this is compiled against (``DescriptionSet.appendix_a``)."""
    if ruleset is None or not ruleset.compiled or not ruleset.rules:
        return None
    screens = {
        event: _compile_screen(
            ruleset.candidates(type_code), event_layout("", event),
            masks=False,
        )
        for event, type_code in EVENT_TYPES.items()
    }
    look = name_lookup(host_names)

    def select(raw):
        info = wire_layout(raw)
        t = info.unpack(raw)
        accept = screens[info.event](t, raw, info.names_offset, look)
        if accept is None:
            return None
        return (
            accept.mat(t, raw, info.names_offset, look),
            accept.mask,
            (t[1], t[info.pid_index]),
            info.event,
        )

    return select
