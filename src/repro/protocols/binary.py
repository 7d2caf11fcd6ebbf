"""A compact length-prefixed binary RPC codec (the fast wire path).

XML-RPC dominates the per-call budget once dispatch is cheap: every request
walks an XML parser and every response re-escapes markup.  This codec keeps
the exact same value model (:mod:`repro.protocols.types`) but serialises it
with ``struct``-packed frames — no quoting, no parsing, a single pass over
the data in each direction.

Wire format (all integers big-endian)::

    frame   := MAGIC kind payload
    MAGIC   := "CRB1"                      (4 bytes)
    kind    := "Q" | "R" | "F"             (request / result / fault)

    Q-frame := value(call_id) u32 method-utf8 u32 nparams value*
    R-frame := value(call_id) value(result)
    F-frame := value(call_id) i32 code u32 message-utf8

    value   := "N"                          None
             | "T" | "F"                    True / False
             | "i" int64                    int within +-2**63
             | "I" u32 ascii-decimal        arbitrary-precision int
             | "d" float64                  float
             | "s" u32 utf8                 str
             | "b" u32 raw                  bytes
             | "t" u32 utf8                 datetime (ISO 8601)
             | "l" u32 value*               array (count-prefixed)
             | "m" u32 (u32 utf8 value)*    struct (count-prefixed pairs)

The format is frozen by golden-byte tests in ``tests/test_binary_protocol.py``
so it can never silently drift between client and server builds.

Per-item cost sets the rate on large payloads, so the inner loops avoid it:
the encoder dispatches on the exact built-in type before its ``isinstance``
chain and writes scalars inside arrays and structs inline; the decoder walks
offsets over the frame, reading fixed-width fields in place and decoding
common scalars inline; and an array of more than eight int64 items is
encoded or decoded as one run by C-level strided copies.
"""

from __future__ import annotations

import datetime
import struct
import sys
from array import array
from functools import partial
from typing import Any

from repro.protocols.errors import Fault, ProtocolError
from repro.protocols.types import (MAX_DEPTH, RPCRequest, RPCResponse,
                                   key_type_error, nesting_error, type_error)

__all__ = ["BinaryCodec", "MAGIC"]

MAGIC = b"CRB1"

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

# Encoder: a tag and its fixed-width field packed by one call.
_pack_tagged_u32 = struct.Struct(">cI").pack          # s/b/t/I/l/m headers
_pack_tagged_f64 = struct.Struct(">cd").pack
_pack_int_item = partial(struct.Struct(">cq").pack, b"i")

# Decoder: fixed-width fields read in place, never sliced out first.
_u32_from = _U32.unpack_from
_i32_from = _I32.unpack_from
_i64_from = _I64.unpack_from
_f64_from = _F64.unpack_from

#: Arrays longer than this whose items are all int64 are encoded and decoded
#: as one run (:func:`_pack_int_run`, :func:`_unpack_int_run`); shorter ones
#: go item by item, where the type scan costs more than it saves.
_INT_RUN_MIN = 8
#: ``array("q")`` holds native-order words; the wire is big-endian.
_SWAP_WORDS = sys.byteorder == "little"

# Tag bytes as the integers ``data[pos]`` yields.
_N, _T, _F, _i, _I, _d, _s, _b, _t, _l, _m = b"NTFiIdsbtlm"


# -- encoding ------------------------------------------------------------------------

def _encode_value(value: Any, out: list[bytes], depth: int = 0) -> None:
    """Append the binary encoding of ``value`` to ``out``.

    Raises :class:`ProtocolError` exactly when ``validate_value`` would, with
    the same message, so a pipeline that skips the separate validation walk
    can never emit a frame its own decoder rejects.  Exact built-in types are
    dispatched first; everything else (``bool``, subclasses such as
    ``IntEnum`` or ``OrderedDict``, and the rarer scalars) takes
    :func:`_encode_other`, which decides by ``isinstance``.
    """

    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        out.append(_pack_tagged_u32(b"s", len(data)))
        out.append(data)
    elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
        out.append(_pack_int_item(value))
    elif kind is list or kind is tuple:
        _encode_array(value, out, depth)
    elif kind is dict:
        _encode_struct(value, out, depth)
    else:
        _encode_other(value, out, depth)


def _encode_array(value, out: list[bytes], depth: int) -> None:
    count = len(value)
    out.append(_pack_tagged_u32(b"l", count))
    if not count:
        return
    if depth >= MAX_DEPTH:
        raise nesting_error()
    if count > _INT_RUN_MIN and type(value[0]) is int and set(map(type, value)) == {int}:
        run = _pack_int_run(value)
        if run is not None:
            out.append(run)
            return
    depth += 1
    append = out.append
    for item in value:
        kind = type(item)
        if kind is str:
            data = item.encode("utf-8")
            append(_pack_tagged_u32(b"s", len(data)))
            append(data)
        elif kind is int and _INT64_MIN <= item <= _INT64_MAX:
            append(_pack_int_item(item))
        elif kind is dict:
            _encode_struct(item, out, depth)
        else:
            _encode_value(item, out, depth)


def _pack_int_run(values) -> bytearray | None:
    """The ``i`` items of an array of exact ints, built by C-level passes:
    the big-endian words are packed as one block and spread into 9-byte
    slots behind their tags.  None when an item is outside int64 (it needs
    the ``I`` escape, so the array goes item by item)."""

    try:
        words = array("q", values)
    except OverflowError:
        return None
    if _SWAP_WORDS:
        words.byteswap()
    raw = words.tobytes()
    run = bytearray(b"i") * (9 * len(words))
    for byte in range(8):
        run[byte + 1::9] = raw[byte::8]
    return run


def _encode_struct(value, out: list[bytes], depth: int) -> None:
    append = out.append
    append(_pack_tagged_u32(b"m", len(value)))
    child = depth + 1
    for key, item in value.items():
        if not isinstance(key, str):
            raise key_type_error(key)
        if depth >= MAX_DEPTH:
            raise nesting_error()
        data = key.encode("utf-8")
        append(_U32.pack(len(data)))
        append(data)
        kind = type(item)
        if kind is str:
            data = item.encode("utf-8")
            append(_pack_tagged_u32(b"s", len(data)))
            append(data)
        elif kind is int and _INT64_MIN <= item <= _INT64_MAX:
            append(_pack_int_item(item))
        elif kind is bool:
            append(b"T" if item else b"F")
        elif kind is float:
            append(_pack_tagged_f64(b"d", item))
        elif kind is list:
            _encode_array(item, out, child)
        elif kind is dict:
            _encode_struct(item, out, child)
        elif item is None:
            append(b"N")
        else:
            _encode_value(item, out, child)


def _encode_other(value: Any, out: list[bytes], depth: int) -> None:
    """The ``isinstance`` chain behind :func:`_encode_value`'s exact-type
    dispatch: subclasses encode as their base type, exactly as before."""

    if isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_pack_tagged_u32(b"s", len(data)))
        out.append(data)
    elif value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int) and not isinstance(value, bool):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_pack_int_item(value))
        else:
            digits = str(value).encode("ascii")
            out.append(_pack_tagged_u32(b"I", len(digits)))
            out.append(digits)
    elif isinstance(value, float):
        out.append(_pack_tagged_f64(b"d", value))
    elif isinstance(value, bytes):
        out.append(_pack_tagged_u32(b"b", len(value)))
        out.append(value)
    elif isinstance(value, datetime.datetime):
        data = value.isoformat().encode("utf-8")
        out.append(_pack_tagged_u32(b"t", len(data)))
        out.append(data)
    elif isinstance(value, (list, tuple)):
        _encode_array(value, out, depth)
    elif isinstance(value, dict):
        _encode_struct(value, out, depth)
    else:
        raise type_error(value)


# -- decoding ------------------------------------------------------------------------
# Offset-walking functions over one immutable frame: each takes the frame and
# a position and returns ``(value, next position)``.  Every read is
# bounds-checked first, so a short frame raises "truncated", never
# ``struct.error`` or ``IndexError``.

def _truncated() -> ProtocolError:
    return ProtocolError("truncated binary frame")


def _bad_utf8(exc: UnicodeDecodeError) -> ProtocolError:
    return ProtocolError(f"invalid UTF-8 in binary frame: {exc}")


def _u32_at(data: bytes, pos: int) -> tuple[int, int]:
    if pos + 4 > len(data):
        raise _truncated()
    return _u32_from(data, pos)[0], pos + 4


def _raw_at(data: bytes, pos: int) -> tuple[bytes, int]:
    """A ``u32``-length-prefixed run of bytes."""

    if pos + 4 > len(data):
        raise _truncated()
    start = pos + 4
    end = start + _u32_from(data, pos)[0]
    if end > len(data):
        raise _truncated()
    return data[start:end], end


def _text_at(data: bytes, pos: int) -> tuple[str, int]:
    raw, pos = _raw_at(data, pos)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc


def _value_at(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    """Any one value.  The array and struct loops decode their common
    scalars inline and come here for the rest."""

    if depth > MAX_DEPTH:
        raise nesting_error()
    if pos >= len(data):
        raise _truncated()
    tag = data[pos]
    pos += 1
    if tag == _i:
        if pos + 8 > len(data):
            raise _truncated()
        return _i64_from(data, pos)[0], pos + 8
    if tag == _s:
        return _text_at(data, pos)
    if tag == _l:
        return _array_at(data, pos, depth)
    if tag == _m:
        return _struct_at(data, pos, depth)
    if tag == _N:
        return None, pos
    if tag == _T:
        return True, pos
    if tag == _F:
        return False, pos
    if tag == _d:
        if pos + 8 > len(data):
            raise _truncated()
        return _f64_from(data, pos)[0], pos + 8
    if tag == _b:
        return _raw_at(data, pos)
    if tag == _t:
        raw, pos = _text_at(data, pos)
        try:
            return datetime.datetime.fromisoformat(raw), pos
        except ValueError as exc:
            raise ProtocolError(f"invalid datetime in binary frame: {exc}") from exc
    if tag == _I:
        raw, pos = _raw_at(data, pos)
        try:
            return int(raw.decode("ascii")), pos
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"invalid bigint in binary frame: {exc}") from exc
    raise ProtocolError(f"unknown binary value tag {data[pos - 1:pos]!r}")


def _array_at(data: bytes, pos: int, depth: int) -> tuple[list, int]:
    """The items of an ``l`` whose count starts at ``pos``; the array
    itself sits at ``depth``."""

    size = len(data)
    if pos + 4 > size:
        raise _truncated()
    count = _u32_from(data, pos)[0]
    pos += 4
    if not count:
        return [], pos
    depth += 1
    if depth > MAX_DEPTH:
        raise nesting_error()
    end = pos + 9 * count
    if count > _INT_RUN_MIN and end <= size and data[pos:end:9] == b"i" * count:
        return _unpack_int_run(data, pos, end, count), end
    items: list[Any] = []
    append = items.append
    # ``count`` comes off the wire, so nothing is pre-sized by it: a hostile
    # count over a short body runs out of bytes within ``len(data)`` items.
    try:
        for _ in range(count):
            if pos >= size:
                raise _truncated()
            tag = data[pos]
            if tag == _i:
                if pos + 9 > size:
                    raise _truncated()
                append(_i64_from(data, pos + 1)[0])
                pos += 9
            elif tag == _s:
                if pos + 5 > size:
                    raise _truncated()
                start = pos + 5
                pos = start + _u32_from(data, pos + 1)[0]
                if pos > size:
                    raise _truncated()
                append(data[start:pos].decode("utf-8"))
            elif tag == _m:
                item, pos = _struct_at(data, pos + 1, depth)
                append(item)
            else:
                item, pos = _value_at(data, pos, depth)
                append(item)
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    return items, pos


def _unpack_int_run(data: bytes, pos: int, end: int, count: int) -> list[int]:
    """Decode ``count`` consecutive ``i`` items in ``data[pos:end]``: the
    inverse of :func:`_pack_int_run`, gathering the words out of their
    9-byte slots with strided slices."""

    raw = bytearray(8 * count)
    for byte in range(8):
        raw[byte::8] = data[pos + 1 + byte:end:9]
    words = array("q", raw)
    if _SWAP_WORDS:
        words.byteswap()
    return words.tolist()


def _struct_at(data: bytes, pos: int, depth: int) -> tuple[dict, int]:
    """The pairs of an ``m`` whose count starts at ``pos``; the struct
    itself sits at ``depth``."""

    size = len(data)
    if pos + 4 > size:
        raise _truncated()
    count = _u32_from(data, pos)[0]
    pos += 4
    depth += 1
    record: dict[str, Any] = {}
    try:
        for _ in range(count):
            if pos + 4 > size:
                raise _truncated()
            start = pos + 4
            pos = start + _u32_from(data, pos)[0]
            if pos > size:
                raise _truncated()
            key = data[start:pos].decode("utf-8")
            # Checked per pair, after its key, as the item-by-item decoder
            # did: an empty struct is legal at any depth.
            if depth > MAX_DEPTH:
                raise nesting_error()
            if pos >= size:
                raise _truncated()
            tag = data[pos]
            if tag == _i:
                if pos + 9 > size:
                    raise _truncated()
                record[key] = _i64_from(data, pos + 1)[0]
                pos += 9
            elif tag == _s:
                if pos + 5 > size:
                    raise _truncated()
                start = pos + 5
                pos = start + _u32_from(data, pos + 1)[0]
                if pos > size:
                    raise _truncated()
                record[key] = data[start:pos].decode("utf-8")
            elif tag == _T:
                record[key] = True
                pos += 1
            elif tag == _F:
                record[key] = False
                pos += 1
            elif tag == _d:
                if pos + 9 > size:
                    raise _truncated()
                record[key] = _f64_from(data, pos + 1)[0]
                pos += 9
            elif tag == _l:
                record[key], pos = _array_at(data, pos + 1, depth)
            elif tag == _m:
                record[key], pos = _struct_at(data, pos + 1, depth)
            else:
                record[key], pos = _value_at(data, pos, depth)
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    return record, pos


def _expect_end(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after binary frame")


#: Offset of the first value in a frame, after ``MAGIC`` and the kind byte.
_BODY = len(MAGIC) + 1


def _frame_body(data: bytes | str, expected_kinds: bytes) -> tuple[bytes, bytes]:
    """Check the magic and kind; returns ``(kind, frame bytes)``."""

    if isinstance(data, str):
        # Binary frames are never legitimately text; a str here means a
        # proxy or transport re-decoded the body.  Round-trip through
        # latin-1 recovers the original bytes when possible.
        try:
            data = data.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ProtocolError("binary frame was corrupted in transit") from exc
    if not data.startswith(MAGIC):
        raise ProtocolError("not a binary RPC frame (bad magic)")
    kind = data[len(MAGIC):_BODY]
    if not kind:
        raise _truncated()
    if kind not in (b"Q", b"R", b"F") or kind not in expected_kinds:
        raise ProtocolError(f"unexpected binary frame kind {kind!r}")
    return kind, data


class BinaryCodec:
    """Length-prefixed binary framing of the shared RPC value model."""

    name = "binary"
    content_type = "application/x-clarens-binary"
    #: Binary values are length-prefixed and self-delimiting, so a response
    #: frame can be assembled from a pre-encoded ``value(result)`` fragment
    #: (:meth:`encode_result_fragment` / :meth:`encode_response_from_fragment`).
    #: The pipeline keys its result-fragment memo off this
    #: capability; the text codecs interleave markup and escaping, so they
    #: never set it.
    spliceable = True
    #: The encoder enforces the type model itself (see :func:`_encode_value`),
    #: so the pipeline skips the separate validation walk over results.
    validates_on_encode = True

    # -- requests ----------------------------------------------------------------
    def encode_request(self, request: RPCRequest) -> bytes:
        out: list[bytes] = [MAGIC, b"Q"]
        _encode_value(request.call_id, out)
        method = request.method.encode("utf-8")
        out.append(_U32.pack(len(method)))
        out.append(method)
        out.append(_U32.pack(len(request.params)))
        for param in request.params:
            _encode_value(param, out)
        return b"".join(out)

    def decode_request(self, data: bytes | str) -> RPCRequest:
        _, data = _frame_body(data, b"Q")
        call_id, pos = _value_at(data, _BODY, 0)
        method, pos = _text_at(data, pos)
        if not method:
            raise ProtocolError("binary request is missing a method name")
        count, pos = _u32_at(data, pos)
        params = []
        for _ in range(count):
            param, pos = _value_at(data, pos, 0)
            params.append(param)
        _expect_end(data, pos)
        # The decoder is constructive — it can only build model types within
        # the nesting cap — so the separate validation walk is skipped.
        return RPCRequest.from_wire(method, tuple(params), call_id)

    # -- responses ---------------------------------------------------------------
    def encode_response(self, response: RPCResponse) -> bytes:
        if response.is_fault:
            message = response.fault.message.encode("utf-8")
            out = [MAGIC, b"F"]
            _encode_value(response.call_id, out)
            out.append(_I32.pack(response.fault.code))
            out.append(_U32.pack(len(message)))
            out.append(message)
            return b"".join(out)
        out = [MAGIC, b"R"]
        _encode_value(response.call_id, out)
        _encode_value(response.result, out)
        return b"".join(out)

    def decode_response(self, data: bytes | str) -> RPCResponse:
        kind, data = _frame_body(data, b"RF")
        call_id, pos = _value_at(data, _BODY, 0)
        if kind == b"F":
            if pos + 4 > len(data):
                raise _truncated()
            code = _i32_from(data, pos)[0]
            message, pos = _text_at(data, pos + 4)
            _expect_end(data, pos)
            return RPCResponse.from_fault(Fault(code, message), call_id=call_id)
        result, pos = _value_at(data, pos, 0)
        _expect_end(data, pos)
        return RPCResponse.from_result(result, call_id=call_id, validate=False)

    # -- hot-path shortcuts --------------------------------------------------------
    def encode_result_fragment(self, result: Any) -> bytes:
        """The ``value(result)`` bytes of an R-frame, ready for splicing.

        Raises :class:`ProtocolError` for values outside the type model, so
        encoding doubles as validation on paths that skip the separate
        ``validate_value`` walk.
        """

        out: list[bytes] = []
        _encode_value(result, out)
        return b"".join(out)

    def encode_response_from_fragment(self, call_id: Any, fragment: bytes) -> bytes:
        """Assemble an R-frame around a pre-encoded result fragment.

        Byte-identical to ``encode_response(RPCResponse.from_result(result,
        call_id))`` when ``fragment == encode_result_fragment(result)``.
        """

        out: list[bytes] = [MAGIC, b"R"]
        _encode_value(call_id, out)
        out.append(fragment)
        return b"".join(out)


    def encode_multicall(self, calls, call_id: Any = None) -> bytes:
        """Serialise a ``system.multicall`` batch straight into one frame.

        Byte-identical to encoding the equivalent
        ``RPCRequest("system.multicall", ([{...}, ...],))`` but without
        materialising (and re-validating) the intermediate entry dicts.
        """

        out: list[bytes] = [MAGIC, b"Q"]
        _encode_value(call_id, out)
        out.append(_U32.pack(len(b"system.multicall")))
        out.append(b"system.multicall")
        out.append(_U32.pack(1))                      # one param: the batch
        calls = list(calls)
        out.append(b"l")
        out.append(_U32.pack(len(calls)))
        for method, params in calls:
            out.append(b"m")
            out.append(_U32.pack(2))
            out.append(_U32.pack(len(b"methodName")))
            out.append(b"methodName")
            _encode_value(method, out)
            out.append(_U32.pack(len(b"params")))
            out.append(b"params")
            out.append(b"l")
            out.append(_U32.pack(len(params)))
            for param in params:
                _encode_value(param, out)
        return b"".join(out)
