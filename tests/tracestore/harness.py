"""The reference the live filter's compiled lane is judged against."""

from repro.filtering.descriptions import default_description_set
from repro.metering.messages import record_fields
from repro.tracestore import discard_mask

_DESCRIPTIONS = default_description_set()


def reference_select(raw, rules, host_names):
    """What ``message_select(rules, host_names)(raw)`` must return, by
    the slow lanes only: the description file walked field by field,
    the rule file interpreted, the mask rebuilt from what is missing."""
    record = _DESCRIPTIONS.decode_per_field(raw, host_names)
    saved = rules.apply_interpreted(record)
    if saved is None:
        return None
    event = record["event"]
    mask = discard_mask(
        event, {name for name in record_fields(event) if name not in saved}
    )
    return saved, mask, (record["machine"], record["pid"]), event
