"""Property tests: the one-pass WAL codec writes the v1 bytes exactly.

The WAL encodes each record's canonical json body once and builds the
log line — and a snapshot, from many bodies — around it by string
assembly.  These properties pin that assembly to the reference
two-pass encodings (the whole nested document through ``json.dumps``),
over generated records, and check that the readers still take any v1
text whose checksum holds, canonical or not, and still refuse a
tampered checksum.
"""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalError
from repro.service.wal import (
    RECORD_TYPES,
    SNAPSHOT_SCHEMA,
    MemoryWalStore,
    WriteAheadLog,
    decode_line,
    durable_records,
    encode_record,
    read_log,
    read_snapshot,
    write_snapshot,
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def reference_line(record) -> str:
    """The two-pass v1 log line: canonical body for the checksum, then
    the whole ``{"c", "r"}`` document encoded again."""
    crc = zlib.crc32(canonical(record).encode("utf-8"))
    return canonical({"c": crc, "r": record}) + "\n"


def reference_snapshot(records, digest, taken_at_step) -> str:
    """The two-pass v1 snapshot text."""
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        "taken_at_step": taken_at_step,
        "digest": digest,
        "records": records,
    }
    crc = zlib.crc32(canonical(doc).encode("utf-8"))
    return canonical({"c": crc, "d": doc})


# Any json value: non-ASCII text, escapes, floats, nesting.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
records = st.builds(
    lambda kind, fields: {**fields, "type": kind},
    st.sampled_from(RECORD_TYPES),
    st.dictionaries(st.text(max_size=8), json_values, max_size=4),
)
record_lists = st.lists(records, max_size=6)


@settings(max_examples=200, deadline=None)
@given(record=records)
def test_line_equals_two_pass_encoding(record):
    line = encode_record(record)
    assert line == reference_line(record)
    assert decode_line(line) == record


@settings(max_examples=200, deadline=None)
@given(record=records)
def test_append_returns_the_canonical_body(record):
    store = MemoryWalStore()
    body = WriteAheadLog(store, fsync=False).append(record)
    assert body == canonical(record)
    assert store.read_lines() == [reference_line(record)]


@settings(max_examples=100, deadline=None)
@given(
    history=record_lists,
    as_bodies=st.lists(st.booleans(), min_size=6, max_size=6),
    digest=st.text(max_size=70),
    taken_at_step=st.integers(0, 10**9),
)
def test_snapshot_from_bodies_equals_two_pass_envelope(
    history, as_bodies, digest, taken_at_step
):
    # Callers may hand over cached bodies, dicts, or a mix.
    given_records = [
        canonical(record) if body else record
        for record, body in zip(history, as_bodies)
    ]
    store = MemoryWalStore()
    write_snapshot(
        store, given_records, digest=digest, taken_at_step=taken_at_step
    )
    assert store.read_snapshot() == reference_snapshot(
        history, digest, taken_at_step
    )
    bodies: list[str] = []
    doc = read_snapshot(store, bodies)
    assert doc["records"] == history
    assert bodies == [canonical(record) for record in history]


@settings(max_examples=100, deadline=None)
@given(history=record_lists)
def test_readers_accept_non_canonical_text(history):
    """Padded separators and unsorted keys still verify: the checksum
    covers the canonical form, not the stored text."""
    store = MemoryWalStore()
    for record in history:
        crc = zlib.crc32(canonical(record).encode("utf-8"))
        store.append_line(
            json.dumps({"r": record, "c": crc}, separators=(", ", ": "))
        )
    result = read_log(store)
    assert result.records == history
    assert result.bodies == [canonical(record) for record in history]
    assert not result.torn_tail


#: A handwritten v1 log line: padded, keys out of order.
HANDWRITTEN_LINE = (
    '{ "r" : { "vote" : 1, "type" : "vote", "txn" : 3 } , "c" : 3648864067 }'
)

#: A handwritten v1 snapshot: indented, keys out of order.
HANDWRITTEN_SNAPSHOT = """{
  "d": {
    "taken_at_step": 1,
    "schema": "repro.wal-snapshot v1",
    "records": [
      {"type": "init", "config": {"pid": 1, "n": 3, "t": 1, "K": 2,
        "vote": 1, "tape_seed": 9, "variant": "commit"}},
      {"type": "step", "batch": []}
    ],
    "digest": "ab"
  },
  "c": 1163334947
}
"""


def test_handwritten_v1_line_is_accepted():
    record = decode_line(HANDWRITTEN_LINE)
    assert record == {"type": "vote", "vote": 1, "txn": 3}


def test_handwritten_v1_snapshot_is_accepted():
    store = MemoryWalStore()
    store.write_snapshot(HANDWRITTEN_SNAPSHOT)
    store.append_line(encode_record({"type": "compact", "at": 1}))
    store.append_line(HANDWRITTEN_LINE)
    combined = durable_records(store)
    assert [r["type"] for r in combined.records] == ["init", "step", "vote"]
    assert combined.bodies == [canonical(r) for r in combined.records]


def test_tampered_line_crc_is_rejected():
    tampered = HANDWRITTEN_LINE.replace("3648864067", "3648864068")
    assert decode_line(tampered) is None
    store = MemoryWalStore()
    store.append_line(encode_record({"type": "step", "batch": []}))
    store.append_line(tampered)
    result = read_log(store)
    assert result.torn_tail
    assert result.valid_lines == 1


def test_tampered_snapshot_crc_is_rejected():
    store = MemoryWalStore()
    store.write_snapshot(
        HANDWRITTEN_SNAPSHOT.replace("1163334947", "1163334948")
    )
    with pytest.raises(WalError, match="checksum"):
        read_snapshot(store)


@settings(max_examples=50, deadline=None)
@given(history=record_lists, flip=st.integers(0, 31))
def test_any_crc_change_is_rejected(history, flip):
    store = MemoryWalStore()
    write_snapshot(store, history, digest="d", taken_at_step=len(history))
    envelope = json.loads(store.read_snapshot())
    envelope["c"] ^= 1 << flip
    store.write_snapshot(json.dumps(envelope))
    with pytest.raises(WalError):
        read_snapshot(store)
    for record in history:
        doc = json.loads(encode_record(record))
        doc["c"] ^= 1 << flip
        assert decode_line(json.dumps(doc)) is None
