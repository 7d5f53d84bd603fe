"""Per-layer replays: one workload's meter stream, timed through one
layer's public functions at a time.

The input is the wire stream a filter would be handed -- captured by
the sink guest on live workloads, re-encoded from the committed
records with ``MessageCodec.encode_record`` post-mortem.  Each stage
consumes the previous stage's output, so the counts along the way
(seen, accepted) are the workload's own.
"""


from repro.filtering.descriptions import default_description_set
from repro.filtering.records import format_record
from repro.filtering.rules import DEFAULT_TEMPLATES_TEXT, parse_rules
from repro.metering.messages import MessageCodec
from repro.sim.simulator import Simulator
from repro.streaming import twins
from repro.tracestore import StoreReader, StoreWriter, flush_to_files, scan_fast, select
from repro.tracestore.convert import wire_pairs

from ledger.workloads import DENSE_RULES

#: The standard filter flushes its store writer once per committed
#: batch; the append replay flushes at the same grain.
APPEND_FLUSH_EVERY = 64


def _noop():
    pass


def _dispatch(events):
    """Schedule and run ``events`` no-op callbacks: the event queue's
    own cost, with nothing attached to the events."""
    sim = Simulator(seed=0)
    for i in range(events):
        sim.schedule((i * 7919) % 1000 / 10.0, _noop)
    sim.run()
    return sim.events_run


def _append_all(pairs, base, host_names):
    writer = StoreWriter(base, host_names=host_names)
    for i, (payload, mask) in enumerate(pairs):
        writer.append(payload, mask)
        if i % APPEND_FLUSH_EVERY == 0:
            flush_to_files(writer)
    writer.close()
    flush_to_files(writer)
    return writer


def replay_layers(wire, host_names, templates, sim_events, store_base, probe):
    """Returns metric name -> reference-speed rate, plus the exact
    ``filtering.accept_ratio`` and ``metering.wire_bytes_per_record``.

    ``probe.timed(name, layer, records, func)`` runs one stage between
    two spin slices and returns (result, reference seconds)."""
    rates = {}

    def stage(metric, layer, records, func):
        result, seconds = probe.timed(metric, layer, records, func)
        rates[metric] = records / seconds if records else 0.0
        return result

    descriptions = default_description_set()
    decoded = stage(
        "filtering.decode_per_s", "filtering", len(wire),
        lambda: [descriptions.decode_message(raw, host_names) for raw in wire],
    )
    rules = parse_rules(templates or DEFAULT_TEMPLATES_TEXT)
    accepted = stage(
        "filtering.select_per_s", "filtering", len(decoded),
        lambda: [kept for kept in map(rules.apply, decoded) if kept is not None],
    )
    stage(
        "filtering.format_per_s", "filtering", len(accepted),
        lambda: [
            format_record(record, descriptions.field_order(record["event"]))
            for record in accepted
        ],
    )
    pairs = wire_pairs(accepted, MessageCodec(host_names))
    stage(
        "tracestore.append_per_s", "tracestore", len(pairs),
        lambda: _append_all(pairs, store_base, host_names),
    )
    reader = StoreReader.from_files(store_base)
    stage(
        "tracestore.scan_per_s", "tracestore", len(pairs),
        lambda: sum(1 for __ in scan_fast(reader)),
    )
    dense = parse_rules(DENSE_RULES)
    stage(
        "tracestore.select_per_s", "tracestore", len(pairs),
        lambda: select(reader, dense),
    )
    stage(
        "tracestore.scan_oracle_per_s", "tracestore", len(pairs),
        lambda: sum(1 for __ in reader.scan()),
    )
    stage(
        "streaming.fold_per_s", "streaming", len(accepted),
        lambda: twins.replay_engine(accepted).finalize(),
    )
    stage(
        "sim.dispatch_per_s", "sim", sim_events, lambda: _dispatch(sim_events)
    )
    rates["filtering.accept_ratio"] = (
        len(accepted) / len(decoded) if decoded else 0.0
    )
    rates["metering.wire_bytes_per_record"] = (
        sum(map(len, wire)) / len(wire) if wire else 0.0
    )
    return rates
