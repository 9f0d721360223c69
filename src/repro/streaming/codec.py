"""Columnar batch codec for record buckets crossing the process boundary.

Pickling a bucket of N :class:`~repro.streaming.records.StreamRecord`
objects costs one class-reduction per record plus a dict per instance —
the driver pays it encoding, the worker pays it again decoding, every
micro-batch, both directions.  This codec encodes a whole bucket as
**field arrays** in one ``bytes`` frame instead: all keys as one string
column, all timestamps as one integer column, all values as one typed
column.  The frame rides the pipe as ``bytes`` inside the backend's
batch message (and its reply).  Decoding reads each column off
``memoryview`` slices of the frame, then builds the bucket's records
in one pass into a plain list; nothing decoded refers back to the
frame.

Column layouts (all integers native-endian, written on the same host
that reads them):

* **string column** — ``u32`` count, ``u32[n]`` UTF-8 lengths, then the
  concatenated UTF-8 blob;
* **optional columns** — a one-byte tag picks ``ALL_NONE`` /
  ``ALL_SAME`` (one stored value) / ``DENSE`` (no ``None``) / ``SPARSE``
  (presence bitmap + dense column of the present values);
* **value column** — a one-byte kind tag: homogeneous ``str`` / ``int``
  (64-bit) / ``float`` buckets and :class:`~repro.parsing.parser.
  ParsedLog` buckets (the engine's own record type, encoded as raw /
  pattern_id / fields / timestamp / source field arrays) get columnar
  layouts; anything else — mixed buckets, user types, big integers —
  falls back to **one pickle of the value list**, so arbitrary records
  keep working at exactly the old cost.

Two frame shapes share the machinery: a *records* frame (one bucket,
driver -> worker) and an *emits* frame (``(node_id, record)`` sink
captures, worker -> driver).
"""

from __future__ import annotations

import pickle
import struct
from array import array
from itertools import accumulate
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..parsing.parser import ParsedLog
from .records import StreamRecord, build_record

__all__ = [
    "encode_records",
    "decode_records",
    "encode_emits",
    "decode_emits",
]

_FRAME = struct.Struct("<4sBI")  # magic, frame kind, record count
_MAGIC = b"LLB1"
_KIND_RECORDS = 1
_KIND_EMITS = 2

_U32 = struct.Struct("<I")

# Optional-column tags.
_ALL_NONE = 0
_ALL_SAME = 1
_DENSE = 2
_SPARSE = 3

# Value-column kinds.
_V_NONE = 0
_V_STR = 1
_V_INT = 2
_V_FLOAT = 3
_V_PARSED = 4
_V_PICKLE = 5

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


# ----------------------------------------------------------------------
# Writers: each appends chunks to an output list (joined once at the end)
# ----------------------------------------------------------------------
def _put_str_column(out: List[bytes], strings: Sequence[str]) -> None:
    out.append(_U32.pack(len(strings)))
    # One UTF-8 encode of the joined column beats one ``encode`` call
    # per string; when the blob is pure ASCII the character lengths are
    # the byte lengths, so nothing else need touch the strings.
    blob = "".join(strings).encode("utf-8")
    if len(blob) == sum(map(len, strings)):
        out.append(array("I", map(len, strings)).tobytes())
        out.append(blob)
        return
    encoded = [s.encode("utf-8") for s in strings]
    out.append(array("I", map(len, encoded)).tobytes())
    out.extend(encoded)


def _put_opt_str_column(
    out: List[bytes], values: Sequence[Optional[str]]
) -> None:
    first = values[0] if values else None
    if all(v is None for v in values):
        out.append(bytes((_ALL_NONE,)))
        return
    if first is not None and all(v == first for v in values):
        blob = first.encode("utf-8")
        out.append(bytes((_ALL_SAME,)))
        out.append(_U32.pack(len(blob)))
        out.append(blob)
        return
    present = [v is not None for v in values]
    if all(present):
        out.append(bytes((_DENSE,)))
        _put_str_column(out, values)
        return
    out.append(bytes((_SPARSE,)))
    out.append(bytes(present))
    _put_str_column(out, [v for v in values if v is not None])


def _put_opt_i64_column(
    out: List[bytes], values: Sequence[Optional[int]]
) -> None:
    if all(v is None for v in values):
        out.append(bytes((_ALL_NONE,)))
        return
    present = [v is not None for v in values]
    if all(present):
        out.append(bytes((_DENSE,)))
        out.append(array("q", values).tobytes())
        return
    out.append(bytes((_SPARSE,)))
    out.append(bytes(present))
    out.append(array("q", [v for v in values if v is not None]).tobytes())


def _put_bool_column(out: List[bytes], values: Sequence[bool]) -> None:
    if not any(values):
        out.append(bytes((_ALL_NONE,)))  # tag reuse: "all False"
        return
    out.append(bytes((_DENSE,)))
    out.append(bytes(values))


def _put_pickled(out: List[bytes], obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(_U32.pack(len(blob)))
    out.append(blob)


def _put_parsed_column(out: List[bytes], logs: Sequence[ParsedLog]) -> None:
    _put_str_column(out, [p.raw for p in logs])
    out.append(array("q", [p.pattern_id for p in logs]).tobytes())
    _put_opt_i64_column(out, [p.timestamp_millis for p in logs])
    _put_opt_str_column(out, [p.source for p in logs])
    # Field *keys* are dictionary-encoded: a bucket's logs share a
    # handful of patterns, so the distinct key tuples are few and each
    # log stores just a keyset id — the keys themselves are written
    # (and later sliced back out) once per keyset, not once per log.
    keyset_ids: dict = {}
    ids = array("I")
    field_values: List[str] = []
    for p in logs:
        fields = p.fields
        keys = tuple(fields)
        keyset_id = keyset_ids.get(keys)
        if keyset_id is None:
            keyset_id = keyset_ids[keys] = len(keyset_ids)
        ids.append(keyset_id)
        field_values.extend(fields.values())
    out.append(_U32.pack(len(keyset_ids)))
    for keys in keyset_ids:
        _put_str_column(out, keys)
    out.append(ids.tobytes())
    _put_str_column(out, field_values)


def _classify_values(values: Sequence[Any]) -> int:
    """Pick the value-column kind for one bucket's values."""
    kind = _V_NONE
    for v in values:
        if v is None:
            continue
        t = type(v)
        if t is str:
            v_kind = _V_STR
        elif t is int:
            if not _I64_MIN <= v <= _I64_MAX:
                return _V_PICKLE
            v_kind = _V_INT
        elif t is float:
            v_kind = _V_FLOAT
        elif t is ParsedLog:
            v_kind = _V_PARSED
        else:
            return _V_PICKLE
        if kind == _V_NONE:
            kind = v_kind
        elif kind != v_kind:
            return _V_PICKLE
    return kind


def _put_value_column(out: List[bytes], values: Sequence[Any]) -> None:
    kind = _classify_values(values)
    out.append(bytes((kind,)))
    if kind == _V_NONE:
        return
    if kind == _V_PICKLE:
        _put_pickled(out, list(values))
        return
    if kind == _V_STR:
        _put_opt_str_column(out, values)
        return
    if kind == _V_INT:
        _put_opt_i64_column(out, values)
        return
    if kind == _V_FLOAT:
        present = [v is not None for v in values]
        if all(present):
            out.append(bytes((_DENSE,)))
            out.append(array("d", values).tobytes())
        else:
            out.append(bytes((_SPARSE,)))
            out.append(bytes(present))
            out.append(
                array("d", [v for v in values if v is not None]).tobytes()
            )
        return
    # _V_PARSED
    present = [v is not None for v in values]
    if all(present):
        out.append(bytes((_DENSE,)))
        _put_parsed_column(out, values)
    else:
        out.append(bytes((_SPARSE,)))
        out.append(bytes(present))
        _put_parsed_column(out, [v for v in values if v is not None])


def _put_record_columns(
    out: List[bytes], records: Sequence[StreamRecord]
) -> None:
    _put_opt_str_column(out, [r.key for r in records])
    _put_opt_str_column(out, [r.source for r in records])
    _put_opt_i64_column(out, [r.timestamp_millis for r in records])
    _put_bool_column(out, [r.is_heartbeat for r in records])
    _put_value_column(out, [r.value for r in records])


def encode_records(records: Sequence[StreamRecord]) -> bytes:
    """Encode one bucket as a single columnar frame."""
    out: List[bytes] = [_FRAME.pack(_MAGIC, _KIND_RECORDS, len(records))]
    _put_record_columns(out, records)
    return b"".join(out)


def encode_emits(
    emits: Sequence[Tuple[int, StreamRecord]]
) -> bytes:
    """Encode captured ``(node_id, record)`` sink emissions."""
    out: List[bytes] = [_FRAME.pack(_MAGIC, _KIND_EMITS, len(emits))]
    out.append(array("q", [node_id for node_id, _ in emits]).tobytes())
    _put_record_columns(out, [record for _, record in emits])
    return b"".join(out)


# ----------------------------------------------------------------------
# Readers: cursor over a memoryview of the frame
# ----------------------------------------------------------------------
class _Cursor:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def u8(self) -> int:
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def u32(self) -> int:
        (value,) = _U32.unpack_from(self.buf, self.pos)
        self.pos += 4
        return value

    def take(self, length: int) -> memoryview:
        view = self.buf[self.pos:self.pos + length]
        self.pos += length
        return view

    def i64_array(self, count: int) -> array:
        values = array("q")
        values.frombytes(self.take(count * 8))
        return values

    def f64_array(self, count: int) -> array:
        values = array("d")
        values.frombytes(self.take(count * 8))
        return values

    def u32_array(self, count: int) -> array:
        values = array("I")
        values.frombytes(self.take(count * 4))
        return values


def _get_str_column(cur: _Cursor) -> List[str]:
    count = cur.u32()
    if not count:
        return []
    lengths = cur.u32_array(count)
    total = sum(lengths)
    blob = cur.take(total)
    # Decode the whole blob once; when it is pure ASCII (one char per
    # byte, the overwhelmingly common case for log data) the stored byte
    # lengths double as character offsets and each string is a single
    # C-level slice instead of a per-string ``str(..., "utf-8")`` call.
    text = str(blob, "utf-8")
    if len(text) == total:
        ends = accumulate(lengths)
        return [text[end - n:end] for n, end in zip(lengths, ends)]
    data = bytes(blob)
    out: List[str] = []
    pos = 0
    for length in lengths:
        out.append(str(data[pos:pos + length], "utf-8"))
        pos += length
    return out


def _scatter(
    count: int, present: Sequence[int], dense: Sequence[Any]
) -> List[Any]:
    out: List[Any] = [None] * count
    it = iter(dense)
    for i in range(count):
        if present[i]:
            out[i] = next(it)
    return out


def _get_opt_str_column(cur: _Cursor, count: int) -> List[Optional[str]]:
    tag = cur.u8()
    if tag == _ALL_NONE:
        return [None] * count
    if tag == _ALL_SAME:
        value = str(cur.take(cur.u32()), "utf-8")
        return [value] * count
    if tag == _DENSE:
        return _get_str_column(cur)
    present = cur.take(count)
    return _scatter(count, present, _get_str_column(cur))


def _get_opt_i64_column(cur: _Cursor, count: int) -> List[Optional[int]]:
    tag = cur.u8()
    if tag == _ALL_NONE:
        return [None] * count
    if tag == _DENSE:
        return cur.i64_array(count).tolist()
    present = cur.take(count)
    dense = cur.i64_array(sum(1 for p in present if p))
    return _scatter(count, present, dense.tolist())


def _get_bool_column(cur: _Cursor, count: int) -> List[bool]:
    tag = cur.u8()
    if tag == _ALL_NONE:
        return [False] * count
    return [bool(b) for b in cur.take(count)]


def _get_pickled(cur: _Cursor) -> Any:
    return pickle.loads(cur.take(cur.u32()))


def _get_parsed_column(cur: _Cursor, count: int) -> List[ParsedLog]:
    raws = _get_str_column(cur)
    pattern_ids = cur.i64_array(count)
    timestamps = _get_opt_i64_column(cur, count)
    sources = _get_opt_str_column(cur, count)
    keysets = [tuple(_get_str_column(cur)) for _ in range(cur.u32())]
    ids = cur.u32_array(count)
    # ``zip`` stops pulling from ``values`` once a keyset is exhausted,
    # so one shared iterator doles out each log's values without a list
    # slice per log.
    values = iter(_get_str_column(cur))
    out: List[ParsedLog] = []
    append = out.append
    new = ParsedLog.__new__
    # Same ``__init__`` bypass as :func:`build_record`: writing
    # ``__dict__`` wholesale builds an identical instance without one
    # setattr per field, and this loop runs once per emitted record.
    for raw, pattern_id, keyset_id, ts, source in zip(
        raws, pattern_ids, ids, timestamps, sources
    ):
        log = new(ParsedLog)
        log.__dict__ = {
            "raw": raw,
            "pattern_id": pattern_id,
            "fields": dict(zip(keysets[keyset_id], values)),
            "timestamp_millis": ts,
            "source": source,
        }
        append(log)
    return out


def _get_value_column(cur: _Cursor, count: int) -> List[Any]:
    kind = cur.u8()
    if kind == _V_NONE:
        return [None] * count
    if kind == _V_PICKLE:
        values = _get_pickled(cur)
        if len(values) != count:
            raise ExecutionError(
                "corrupt value column: %d pickled values for %d records"
                % (len(values), count)
            )
        return values
    if kind == _V_STR:
        return _get_opt_str_column(cur, count)
    if kind == _V_INT:
        return _get_opt_i64_column(cur, count)
    if kind == _V_FLOAT:
        tag = cur.u8()
        if tag == _DENSE:
            return cur.f64_array(count).tolist()
        present = cur.take(count)
        dense = cur.f64_array(sum(1 for p in present if p))
        return _scatter(count, present, dense.tolist())
    if kind == _V_PARSED:
        tag = cur.u8()
        if tag == _DENSE:
            return _get_parsed_column(cur, count)
        present = cur.take(count)
        dense = _get_parsed_column(cur, sum(1 for p in present if p))
        return _scatter(count, present, dense)
    raise ExecutionError("unknown value-column kind %d" % kind)


def _open_frame(buf: Any, expected_kind: int) -> Tuple[_Cursor, int]:
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if len(view) < _FRAME.size:
        raise ExecutionError("truncated codec frame (%d bytes)" % len(view))
    magic, kind, count = _FRAME.unpack_from(view, 0)
    if magic != _MAGIC:
        raise ExecutionError("bad codec frame magic %r" % (magic,))
    if kind != expected_kind:
        raise ExecutionError(
            "codec frame kind %d where %d expected" % (kind, expected_kind)
        )
    return _Cursor(view, _FRAME.size), count


def _get_record_columns(cur: _Cursor, count: int) -> List[StreamRecord]:
    keys = _get_opt_str_column(cur, count)
    sources = _get_opt_str_column(cur, count)
    timestamps = _get_opt_i64_column(cur, count)
    heartbeats = _get_bool_column(cur, count)
    values = _get_value_column(cur, count)
    return list(map(build_record, values, keys, sources, timestamps,
                    heartbeats))


def decode_records(buf: Any) -> List[StreamRecord]:
    """Decode a records frame into its bucket."""
    cur, count = _open_frame(buf, _KIND_RECORDS)
    return _get_record_columns(cur, count)


def decode_emits(buf: Any) -> List[Tuple[int, StreamRecord]]:
    """Decode an emissions frame into its ``(node_id, record)`` pairs."""
    cur, count = _open_frame(buf, _KIND_EMITS)
    node_ids = cur.i64_array(count)
    return list(zip(node_ids, _get_record_columns(cur, count)))
