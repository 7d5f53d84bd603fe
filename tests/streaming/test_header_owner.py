"""The 24-byte meter header has one owner.

``repro.metering.messages`` spells the header once, as a table of its
words; the struct format, the field offsets and the hexdump spans are
derived from it, and every other module imports them.  This guard
fails when a source module outside ``messages.py`` spells the header
again: a header struct format (the ``h2x`` of the padded ``machine``
short) or a table or slice of header field offsets."""

import os
import re

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
_OWNER = os.path.join("repro", "metering", "messages.py")

_SPELLINGS = {
    "a header struct format": re.compile(r"h2x"),
    "a header offset table": re.compile(
        r"""["'](?:size|machine|cpuTime|procTime|traceType)["']"""
        r"""\s*[:,]\s*\(?\s*\d+\s*,\s*\d+"""
    ),
    "a header word slice": re.compile(
        r"\w\[\s*(?:0\s*:\s*4|4\s*:\s*6|8\s*:\s*12|16\s*:\s*20|20\s*:\s*24)\s*\]"
    ),
}


def _sources():
    for root, __, files in os.walk(_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, _SRC), path


def test_the_patterns_catch_the_spellings_they_name():
    samples = {
        "a header struct format": 'struct.Struct(">ih2xiiii")',
        "a header offset table": '_LAYOUT = {"machine": (4, 2)}',
        "a header word slice": "trace_type = _int_of(raw[20:24])",
    }
    for kind, sample in samples.items():
        assert _SPELLINGS[kind].search(sample), kind


def test_only_messages_spells_the_meter_header():
    found = []
    for rel, path in _sources():
        if rel == _OWNER:
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                for kind, pattern in _SPELLINGS.items():
                    if pattern.search(line):
                        found.append("%s:%d: %s" % (rel, number, kind))
    assert not found, found
    assert any(rel == _OWNER for rel, __ in _sources())
