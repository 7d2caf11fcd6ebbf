"""Golden-byte tests freezing the binary wire format (``CRB1``).

The binary codec is negotiated between independently-deployed clients and
servers, so its byte layout can never silently drift.  Every expected value
here is a hand-written literal — if an implementation change flips a byte,
these tests fail and the change needs a new protocol version, not a patch to
the expectations.
"""

from __future__ import annotations

import datetime as dt
import enum
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols import (BinaryCodec, Fault, ProtocolError, RPCRequest,
                             RPCResponse, XMLRPCCodec)
from repro.protocols.binary import MAGIC
from repro.protocols.errors import FaultCode
from repro.protocols.types import validate_value

CODEC = BinaryCodec()

#: ``system.ping`` with no params and no call id — the smallest request.
PING_REQUEST = b"CRB1QN\x00\x00\x00\x0bsystem.ping\x00\x00\x00\x00"

#: ``system.echo("hi", 7)`` with call id 3.
ECHO_REQUEST = (b"CRB1Q"
                b"i\x00\x00\x00\x00\x00\x00\x00\x03"       # call_id = 3
                b"\x00\x00\x00\x0bsystem.echo"             # method
                b"\x00\x00\x00\x02"                        # two params
                b"s\x00\x00\x00\x02hi"                     # "hi"
                b"i\x00\x00\x00\x00\x00\x00\x00\x07")      # 7

#: A ``True`` result with no call id.
TRUE_RESULT = b"CRB1RNT"

#: A parse-error fault (code -32700, message "boom") with no call id.
PARSE_FAULT = b"CRB1FN\xff\xff\x80\x44\x00\x00\x00\x04boom"


class TestGoldenFrames:
    def test_request_without_params(self):
        body = CODEC.encode_request(RPCRequest("system.ping"))
        assert body == PING_REQUEST
        decoded = CODEC.decode_request(PING_REQUEST)
        assert decoded.method == "system.ping"
        assert decoded.params == ()
        assert decoded.call_id is None

    def test_request_with_params_and_call_id(self):
        body = CODEC.encode_request(
            RPCRequest("system.echo", ("hi", 7), call_id=3))
        assert body == ECHO_REQUEST
        decoded = CODEC.decode_request(ECHO_REQUEST)
        assert decoded.method == "system.echo"
        assert tuple(decoded.params) == ("hi", 7)
        assert decoded.call_id == 3

    def test_result_frame(self):
        assert CODEC.encode_response(RPCResponse.from_result(True)) == TRUE_RESULT
        decoded = CODEC.decode_response(TRUE_RESULT)
        assert decoded.result is True
        assert not decoded.is_fault

    def test_fault_frame(self):
        response = RPCResponse.from_fault(Fault(FaultCode.PARSE_ERROR, "boom"))
        assert CODEC.encode_response(response) == PARSE_FAULT
        decoded = CODEC.decode_response(PARSE_FAULT)
        assert decoded.is_fault
        assert decoded.fault.code == FaultCode.PARSE_ERROR
        assert decoded.fault.message == "boom"

    @pytest.mark.parametrize("value,expected", [
        (None, b"N"),
        (True, b"T"),
        (False, b"F"),
        (7, b"i\x00\x00\x00\x00\x00\x00\x00\x07"),
        (-1, b"i\xff\xff\xff\xff\xff\xff\xff\xff"),
        (2 ** 70, b"I\x00\x00\x00\x161180591620717411303424"),
        (2.5, b"d\x40\x04\x00\x00\x00\x00\x00\x00"),
        ("hé", b"s\x00\x00\x00\x03h\xc3\xa9"),
        (b"\x00\xff", b"b\x00\x00\x00\x02\x00\xff"),
        (dt.datetime(2005, 6, 14, 12, 30, 45),
         b"t\x00\x00\x00\x132005-06-14T12:30:45"),
        ([1, "a"], b"l\x00\x00\x00\x02"
                   b"i\x00\x00\x00\x00\x00\x00\x00\x01"
                   b"s\x00\x00\x00\x01a"),
        ({"a": None}, b"m\x00\x00\x00\x01\x00\x00\x00\x01aN"),
    ], ids=repr)
    def test_value_encodings(self, value, expected):
        body = CODEC.encode_response(RPCResponse.from_result(value))
        # "CRB1" + "R" + "N" (null call id) precede the value bytes.
        assert body == b"CRB1RN" + expected
        assert CODEC.decode_response(body).result == value

    def test_int64_boundaries_stay_fixed_width(self):
        for boundary in (2 ** 63 - 1, -(2 ** 63)):
            body = CODEC.encode_response(RPCResponse.from_result(boundary))
            assert body[6:7] == b"i"
            assert CODEC.decode_response(body).result == boundary
        # One past the boundary switches to the decimal bigint encoding.
        body = CODEC.encode_response(RPCResponse.from_result(2 ** 63))
        assert body[6:7] == b"I"
        assert CODEC.decode_response(body).result == 2 ** 63


class TestMalformedFrames:
    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="bad magic"):
            CODEC.decode_request(b"XXXX" + PING_REQUEST[4:])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="frame kind"):
            CODEC.decode_request(TRUE_RESULT)
        with pytest.raises(ProtocolError, match="frame kind"):
            CODEC.decode_response(PING_REQUEST)

    @pytest.mark.parametrize("frame", [PING_REQUEST, ECHO_REQUEST], ids=("ping", "echo"))
    def test_every_truncation_rejected(self, frame):
        for cut in range(len(MAGIC), len(frame)):
            with pytest.raises(ProtocolError):
                CODEC.decode_request(frame[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            CODEC.decode_response(TRUE_RESULT + b"x")

    def test_unknown_value_tag_rejected(self):
        with pytest.raises(ProtocolError, match="tag"):
            CODEC.decode_response(b"CRB1RNz")

    def test_empty_method_name_rejected(self):
        frame = b"CRB1QN\x00\x00\x00\x00\x00\x00\x00\x00"
        with pytest.raises(ProtocolError, match="method name"):
            CODEC.decode_request(frame)

    def test_invalid_utf8_method_rejected(self):
        frame = b"CRB1QN\x00\x00\x00\x01\xff\x00\x00\x00\x00"
        with pytest.raises(ProtocolError, match="UTF-8"):
            CODEC.decode_request(frame)

    def test_invalid_bigint_rejected(self):
        with pytest.raises(ProtocolError, match="bigint"):
            CODEC.decode_response(b"CRB1RNI\x00\x00\x00\x03abc")

    def test_nesting_limit_enforced_on_decode(self):
        # A hand-built hostile frame: 70 nested single-element arrays.  The
        # type model refuses to *encode* this deep, so the decoder's own
        # limit is what protects the server from wire input.
        frame = b"CRB1RN" + b"l\x00\x00\x00\x01" * 70 + b"N"
        with pytest.raises(ProtocolError, match="nesting"):
            CODEC.decode_response(frame)

    def test_non_string_struct_key_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            CODEC.encode_response(RPCResponse.from_result({1: "x"}))

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            CODEC.encode_response(RPCResponse.from_result(object()))


class TestTransitRecovery:
    def test_str_body_recovered_via_latin1(self):
        """A transport that re-decoded the body as text must still parse."""

        body = CODEC.encode_response(RPCResponse.from_result([1, b"\x00\xff"]))
        assert CODEC.decode_response(body.decode("latin-1")).result == [1, b"\x00\xff"]

    def test_uncorrupted_str_body_with_non_latin1_rejected(self):
        with pytest.raises(ProtocolError, match="corrupted"):
            CODEC.decode_response("CRB1R☃")


class TestMulticallFastPath:
    """The batch encoder must stay byte-identical to the generic path."""

    CALLS = [("system.echo", ["a", 1]),
             ("system.ping", []),
             ("file.read", ["/data/events.dat", 0, 65536])]

    @pytest.mark.parametrize("codec", [BinaryCodec(), XMLRPCCodec()],
                             ids=("binary", "xml-rpc"))
    def test_byte_identical_to_generic_encode(self, codec):
        entries = [{"methodName": method, "params": list(params)}
                   for method, params in self.CALLS]
        generic = codec.encode_request(
            RPCRequest("system.multicall", (entries,), call_id=9))
        assert codec.encode_multicall(self.CALLS, call_id=9) == generic

    def test_decodes_like_a_normal_multicall(self):
        body = CODEC.encode_multicall(self.CALLS)
        decoded = CODEC.decode_request(body)
        assert decoded.method == "system.multicall"
        assert decoded.params[0][0] == {"methodName": "system.echo",
                                        "params": ["a", 1]}


class TestFragmentSplice:
    """The spliceable fragment API backing the pipeline's response memo."""

    @pytest.mark.parametrize("result", [
        None, "pong", ["a", "b", "c"], {"k": ["x", b"\x00"]},
        [f"system.method_{i}" for i in range(40)],
    ], ids=("none", "str", "list", "dict", "method-list"))
    @pytest.mark.parametrize("call_id", [None, 7], ids=("no-id", "id"))
    def test_spliced_frame_is_byte_identical(self, result, call_id):
        fragment = CODEC.encode_result_fragment(result)
        spliced = CODEC.encode_response_from_fragment(call_id, fragment)
        assert spliced == CODEC.encode_response(
            RPCResponse.from_result(result, call_id=call_id))
        assert CODEC.decode_response(spliced).result == result

    def test_fragment_encode_rejects_unencodable_values(self):
        with pytest.raises(ProtocolError):
            CODEC.encode_result_fragment(object())

    def test_encoder_enforces_the_nesting_limit(self):
        """The encoder honours the same 64-level cap as the decoder and
        ``validate_value``, so a pipeline that skips the validation walk can
        never emit a frame its own decoder would reject."""

        hostile: list = []
        tip = hostile
        for _ in range(70):
            tip.append([])
            tip = tip[0]
        with pytest.raises(ProtocolError, match="nesting exceeds"):
            CODEC.encode_result_fragment(hostile)

    def test_deepest_legal_value_round_trips(self):
        value: list = ["leaf"]
        for _ in range(63):                    # 64 nested containers total
            value = [value]
        body = CODEC.encode_response(
            RPCResponse.from_result(value, call_id=None))
        assert CODEC.decode_response(body).result == value


# -- arrays of ints and lists of records ---------------------------------------------
# The payload shapes of the socket RPC mix: long int arrays (decoded and
# encoded in one pass when every item is a fixed-width int) and lists of
# small records (scalars decoded inline).  The literals below are the same
# hand-checked bytes the item-by-item codec produced.

#: ``[0, 1, -1, 2**31, -2**63, 2**63-1, 255, 256, 7]``: nine ``i`` items.
NINE_INTS = [0, 1, -1, 2 ** 31, -(2 ** 63), 2 ** 63 - 1, 255, 256, 7]
NINE_INTS_VALUE = (b"l\x00\x00\x00\x09"
                   b"i\x00\x00\x00\x00\x00\x00\x00\x00"
                   b"i\x00\x00\x00\x00\x00\x00\x00\x01"
                   b"i\xff\xff\xff\xff\xff\xff\xff\xff"
                   b"i\x00\x00\x00\x00\x80\x00\x00\x00"
                   b"i\x80\x00\x00\x00\x00\x00\x00\x00"
                   b"i\x7f\xff\xff\xff\xff\xff\xff\xff"
                   b"i\x00\x00\x00\x00\x00\x00\x00\xff"
                   b"i\x00\x00\x00\x00\x00\x00\x01\x00"
                   b"i\x00\x00\x00\x00\x00\x00\x00\x07")
#: The first eight of them: the largest array kept off the one-pass path.
EIGHT_INTS_VALUE = b"l\x00\x00\x00\x08" + NINE_INTS_VALUE[5:-9]

#: Two ``{id, name, vals, meta}`` records, like the mix's echo payloads.
RECORDS = [{"id": 7, "name": "a1", "vals": [1, -2], "meta": {"ok": True, "w": 0.5}},
           {"id": 8, "name": "", "vals": [3], "meta": {"ok": False, "w": -1.25}}]
RECORDS_VALUE = (b"l\x00\x00\x00\x02"
                 b"m\x00\x00\x00\x04"
                 b"\x00\x00\x00\x02id" b"i\x00\x00\x00\x00\x00\x00\x00\x07"
                 b"\x00\x00\x00\x04name" b"s\x00\x00\x00\x02a1"
                 b"\x00\x00\x00\x04vals" b"l\x00\x00\x00\x02"
                 b"i\x00\x00\x00\x00\x00\x00\x00\x01"
                 b"i\xff\xff\xff\xff\xff\xff\xff\xfe"
                 b"\x00\x00\x00\x04meta" b"m\x00\x00\x00\x02"
                 b"\x00\x00\x00\x02ok" b"T"
                 b"\x00\x00\x00\x01w" b"d\x3f\xe0\x00\x00\x00\x00\x00\x00"
                 b"m\x00\x00\x00\x04"
                 b"\x00\x00\x00\x02id" b"i\x00\x00\x00\x00\x00\x00\x00\x08"
                 b"\x00\x00\x00\x04name" b"s\x00\x00\x00\x00"
                 b"\x00\x00\x00\x04vals" b"l\x00\x00\x00\x01"
                 b"i\x00\x00\x00\x00\x00\x00\x00\x03"
                 b"\x00\x00\x00\x04meta" b"m\x00\x00\x00\x02"
                 b"\x00\x00\x00\x02ok" b"F"
                 b"\x00\x00\x00\x01w" b"d\xbf\xf4\x00\x00\x00\x00\x00\x00")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


def _result_frame(value_bytes: bytes) -> bytes:
    return b"CRB1RN" + value_bytes


class TestArrayAndRecordFrames:
    @pytest.mark.parametrize("value,expected", [
        (NINE_INTS, NINE_INTS_VALUE),
        (NINE_INTS[:8], EIGHT_INTS_VALUE),
        (tuple(NINE_INTS), NINE_INTS_VALUE),
        (RECORDS, RECORDS_VALUE),
    ], ids=("nine-ints", "eight-ints", "tuple-of-ints", "records"))
    def test_golden_bytes(self, value, expected):
        assert CODEC.encode_result_fragment(value) == expected
        decoded = CODEC.decode_response(_result_frame(expected)).result
        assert decoded == list(value)
        assert all(type(item) is type(want)
                   for item, want in zip(decoded, value))

    def test_bool_inside_an_int_array_stays_a_bool(self):
        value = [1, True, 2, 3, 4, 5, 6, 7, 8, False]
        expected = (b"l\x00\x00\x00\x0a"
                    b"i\x00\x00\x00\x00\x00\x00\x00\x01" b"T"
                    + b"".join(b"i\x00\x00\x00\x00\x00\x00\x00" + bytes([n])
                               for n in range(2, 9))
                    + b"F")
        assert CODEC.encode_result_fragment(value) == expected
        decoded = CODEC.decode_response(_result_frame(expected)).result
        assert decoded == value
        assert [type(item) for item in decoded] == [type(item) for item in value]

    def test_out_of_range_int_in_an_array_uses_the_bigint_escape(self):
        value = NINE_INTS[:8] + [2 ** 63]
        expected = (b"l\x00\x00\x00\x09" + NINE_INTS_VALUE[5:-9]
                    + b"I\x00\x00\x00\x139223372036854775808")
        assert CODEC.encode_result_fragment(value) == expected
        assert CODEC.decode_response(_result_frame(expected)).result == value

    def test_int_enum_items_encode_as_their_int_values(self):
        value = [_Level.LOW] * 8 + [_Level.HIGH]
        expected = (b"l\x00\x00\x00\x09"
                    + b"i\x00\x00\x00\x00\x00\x00\x00\x01" * 8
                    + b"i\x00\x00\x01\x00\x00\x00\x00\x00")
        assert CODEC.encode_result_fragment(value) == expected
        decoded = CODEC.decode_response(_result_frame(expected)).result
        assert decoded == [1] * 8 + [2 ** 40]
        assert all(type(item) is int for item in decoded)

    def test_int_array_as_a_request_param(self):
        frame = CODEC.encode_request(RPCRequest("system.echo", (NINE_INTS,)))
        assert frame.endswith(b"\x00\x00\x00\x01" + NINE_INTS_VALUE)
        assert CODEC.decode_request(frame).params == (NINE_INTS,)

    @pytest.mark.parametrize("value_bytes", [NINE_INTS_VALUE, RECORDS_VALUE],
                             ids=("nine-ints", "records"))
    def test_every_truncation_raises_protocol_error(self, value_bytes):
        frame = CODEC.encode_request(RPCRequest("system.echo", ("x",), call_id=1))
        # Re-point the single param at the array under test.
        frame = frame[:-len(b"s\x00\x00\x00\x01x")] + value_bytes
        assert CODEC.decode_request(frame).params[0] in (NINE_INTS, RECORDS)
        for cut in range(len(MAGIC), len(frame)):
            with pytest.raises(ProtocolError):
                CODEC.decode_request(frame[:cut])

    def test_int_array_items_below_the_nesting_cap(self):
        # 64 wrappers put the int array at level 64 and its items at 65.
        too_deep = _result_frame(b"l\x00\x00\x00\x01" * 64 + NINE_INTS_VALUE)
        with pytest.raises(ProtocolError, match="nesting exceeds 64"):
            CODEC.decode_response(too_deep)
        deepest = _result_frame(b"l\x00\x00\x00\x01" * 63 + NINE_INTS_VALUE)
        value = CODEC.decode_response(deepest).result
        for _ in range(63):
            value = value[0]
        assert value == NINE_INTS

    def test_record_fields_below_the_nesting_cap(self):
        record = b"m\x00\x00\x00\x01\x00\x00\x00\x02idi\x00\x00\x00\x00\x00\x00\x00\x07"
        with pytest.raises(ProtocolError, match="nesting exceeds 64"):
            CODEC.decode_response(_result_frame(b"l\x00\x00\x00\x01" * 64 + record))
        assert CODEC.decode_response(
            _result_frame(b"l\x00\x00\x00\x01" * 63 + record)).result is not None

    @pytest.mark.parametrize("tag", [b"l", b"m"])
    @pytest.mark.parametrize("body", [b"", b"i\x00\x00\x00\x00\x00\x00\x00\x01" * 12],
                             ids=("empty", "twelve-ints"))
    def test_huge_count_over_a_short_body_is_truncated_promptly(self, tag, body):
        frame = _result_frame(tag + b"\xff\xff\xff\xff" + body)
        start = time.perf_counter()
        with pytest.raises(ProtocolError, match="truncated"):
            CODEC.decode_response(frame)
        assert time.perf_counter() - start < 1.0


# -- canonical form ----------------------------------------------------------------

_INT64_EDGES = [-(2 ** 63) - 1, -(2 ** 63), -(2 ** 63) + 1, -1, 0, 1,
                2 ** 63 - 1, 2 ** 63, 2 ** 64]
_ints = st.one_of(st.sampled_from(_INT64_EDGES),
                  st.integers(min_value=-(2 ** 66), max_value=2 ** 66))
_scalars = st.one_of(
    st.none(), st.booleans(), _ints,
    st.floats(allow_nan=False), st.text(max_size=12), st.binary(max_size=12),
)
#: Long int arrays, some with bools mixed in, to cover the one-pass path
#: and every way of falling off it.
_int_arrays = st.lists(st.one_of(_ints, _ints, _ints, st.booleans()),
                       min_size=7, max_size=20)
_unsupported = st.sampled_from([object(), {1, 2}, bytearray(b"x"), 1j])
_keys = st.one_of(st.text(max_size=6), st.text(max_size=6), st.integers())


def _tree(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=16,
    )


_valid_values = _tree(st.one_of(_scalars, _int_arrays))
_maybe_invalid = st.recursive(
    st.one_of(_scalars, _int_arrays, _unsupported),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=12,
)


def _same(decoded, original) -> bool:
    """Equality that tells ``True`` from ``1``; tuples come back as lists."""

    if isinstance(original, (list, tuple)):
        return (type(decoded) is list and len(decoded) == len(original)
                and all(map(_same, decoded, original)))
    if isinstance(original, dict):
        return (type(decoded) is dict and decoded.keys() == original.keys()
                and all(_same(decoded[key], item) for key, item in original.items()))
    return type(decoded) is type(original) and decoded == original


@settings(deadline=None, max_examples=200)
@given(_valid_values)
def test_decode_then_encode_reproduces_the_frame(value):
    frame = CODEC.encode_response(RPCResponse.from_result(value, call_id=5))
    decoded = CODEC.decode_response(frame)
    assert _same(decoded.result, value)
    assert CODEC.encode_response(decoded) == frame


@settings(deadline=None, max_examples=200)
@given(_maybe_invalid)
def test_encode_rejects_exactly_what_validate_value_rejects(value):
    try:
        validate_value(value)
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as raised:
            CODEC.encode_result_fragment(value)
        assert str(raised.value) == str(exc)
    else:
        fragment = CODEC.encode_result_fragment(value)
        assert _same(CODEC.decode_response(_result_frame(fragment)).result, value)
