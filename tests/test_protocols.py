"""RPC protocol codecs: XML-RPC, SOAP, JSON-RPC and negotiation."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols import (
    BinaryCodec,
    Fault,
    JSONRPCCodec,
    ProtocolError,
    RPCRequest,
    RPCResponse,
    SOAPCodec,
    XMLRPCCodec,
    codec_for_content_type,
    default_codec,
    detect_codec,
)
from repro.protocols.negotiate import all_codecs, codec_by_name
from repro.protocols.types import validate_value

CODECS = [XMLRPCCodec(), SOAPCodec(), JSONRPCCodec(), BinaryCodec()]
CODEC_IDS = [c.name for c in CODECS]

SAMPLE_VALUES = [
    None,
    True,
    False,
    0,
    -17,
    2**40,               # beyond 32-bit, exercises the i8 / long paths
    3.5,
    "plain string",
    "unicode ✓ <&> \"quotes\"",
    b"\x00\x01binary\xff",
    dt.datetime(2005, 6, 14, 12, 30, 45),
    [1, "two", 3.0, None],
    {"nested": {"list": [1, [2, [3]]], "flag": True}},
    {},
    [],
]


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
class TestRoundTrips:
    @pytest.mark.parametrize("value", SAMPLE_VALUES, ids=repr)
    def test_response_value_round_trip(self, codec, value):
        body = codec.encode_response(RPCResponse.from_result(value))
        decoded = codec.decode_response(body)
        assert decoded.result == value
        assert not decoded.is_fault

    def test_request_round_trip(self, codec):
        request = RPCRequest("file.read", ["/data/events.dat", 1024, 65536])
        decoded = codec.decode_request(codec.encode_request(request))
        assert decoded.method == "file.read"
        assert list(decoded.params) == ["/data/events.dat", 1024, 65536]

    def test_request_with_no_params(self, codec):
        decoded = codec.decode_request(codec.encode_request(RPCRequest("system.list_methods")))
        assert decoded.method == "system.list_methods"
        assert list(decoded.params) == []

    def test_fault_round_trip(self, codec):
        fault = Fault(403, "access to file.read denied")
        decoded = codec.decode_response(codec.encode_response(RPCResponse.from_fault(fault)))
        assert decoded.is_fault
        assert decoded.fault == fault
        with pytest.raises(Fault):
            decoded.unwrap()

    def test_method_list_response(self, codec):
        # The paper's measured payload: >30 method-name strings in one array.
        methods = [f"module{i}.method{i}" for i in range(35)]
        decoded = codec.decode_response(codec.encode_response(RPCResponse.from_result(methods)))
        assert decoded.result == methods

    def test_malformed_body_rejected(self, codec):
        with pytest.raises(ProtocolError):
            codec.decode_request(b"this is not a valid rpc body at all")
        with pytest.raises(ProtocolError):
            codec.decode_response(b"neither is this")

    def test_unencodable_type_rejected(self, codec):
        with pytest.raises(ProtocolError):
            codec.encode_response(RPCResponse.from_result(object()))  # type: ignore[arg-type]


class TestXMLRPCSpecifics:
    def test_content_type(self):
        assert XMLRPCCodec().content_type == "text/xml"

    def test_missing_method_name_rejected(self):
        with pytest.raises(ProtocolError):
            XMLRPCCodec().decode_request(b"<?xml version='1.0'?><methodCall><params/></methodCall>")

    def test_fault_struct_shape(self):
        body = XMLRPCCodec().encode_response(RPCResponse.from_fault(Fault(5, "boom")))
        assert b"<fault>" in body and b"faultCode" in body

    def test_untagged_value_decodes_as_string(self):
        body = (b"<?xml version='1.0'?><methodResponse><params><param>"
                b"<value>bare text</value></param></params></methodResponse>")
        assert XMLRPCCodec().decode_response(body).result == "bare text"

    def test_invalid_int_rejected(self):
        body = (b"<?xml version='1.0'?><methodResponse><params><param>"
                b"<value><int>not-a-number</int></value></param></params></methodResponse>")
        with pytest.raises(ProtocolError):
            XMLRPCCodec().decode_response(body)

    def test_wrong_root_element_rejected(self):
        with pytest.raises(ProtocolError):
            XMLRPCCodec().decode_request(b"<?xml version='1.0'?><methodResponse/>")

    def test_carriage_return_survives(self):
        codec = XMLRPCCodec()
        value = {"key\r\n": "a\rb", "plain": ["\r"]}
        body = codec.encode_response(RPCResponse.from_result(value))
        assert b"<name>key&#13;\n</name>" in body
        assert b"<string>a&#13;b</string>" in body
        assert codec.decode_response(body).result == value
        request = codec.decode_request(codec.encode_request(RPCRequest("m.n", ["x\ry"])))
        assert request.params == ("x\ry",)


class TestSOAPSpecifics:
    def test_envelope_structure(self):
        body = SOAPCodec().encode_request(RPCRequest("system.echo", ["x"]))
        assert b"soap:Envelope" in body and b'method="system.echo"' in body

    def test_carriage_return_survives(self):
        codec = SOAPCodec()
        value = {"key\r": "a\rb", "plain": ["\r\n"]}
        body = codec.encode_response(RPCResponse.from_result(value))
        assert b"a&#13;b" in body
        assert codec.decode_response(body).result == value

    def test_fault_carries_code_in_detail(self):
        body = SOAPCodec().encode_response(RPCResponse.from_fault(Fault(440, "expired")))
        decoded = SOAPCodec().decode_response(body)
        assert decoded.fault is not None and decoded.fault.code == 440

    def test_missing_body_rejected(self):
        envelope = (b"<?xml version='1.0'?>"
                    b"<soap:Envelope xmlns:soap='http://schemas.xmlsoap.org/soap/envelope/'>"
                    b"</soap:Envelope>")
        with pytest.raises(ProtocolError):
            SOAPCodec().decode_request(envelope)

    def test_missing_method_attribute_rejected(self):
        envelope = (b"<?xml version='1.0'?>"
                    b"<soap:Envelope xmlns:soap='http://schemas.xmlsoap.org/soap/envelope/'>"
                    b"<soap:Body><call/></soap:Body></soap:Envelope>")
        with pytest.raises(ProtocolError):
            SOAPCodec().decode_request(envelope)


class TestJSONRPCSpecifics:
    def test_call_id_round_trip(self):
        codec = JSONRPCCodec()
        request = RPCRequest("system.echo", ["x"], call_id=77)
        decoded = codec.decode_request(codec.encode_request(request))
        assert decoded.call_id == 77
        response = codec.decode_response(
            codec.encode_response(RPCResponse.from_result("x", call_id=77)))
        assert response.call_id == 77

    def test_v1_requests_accepted(self):
        body = b'{"method": "system.ping", "params": [], "id": 1}'
        assert JSONRPCCodec().decode_request(body).method == "system.ping"

    def test_named_params_rejected(self):
        body = b'{"jsonrpc": "2.0", "method": "m", "params": {"a": 1}, "id": 1}'
        with pytest.raises(ProtocolError):
            JSONRPCCodec().decode_request(body)

    def test_version_1_encoding_includes_null_error(self):
        body = JSONRPCCodec(version="1.0").encode_response(RPCResponse.from_result(5))
        assert b'"error": null' in body or b'"error":null' in body

    def test_invalid_version_rejected(self):
        with pytest.raises(ValueError):
            JSONRPCCodec(version="3.0")

    def test_response_without_result_or_error_rejected(self):
        with pytest.raises(ProtocolError):
            JSONRPCCodec().decode_response(b'{"jsonrpc": "2.0", "id": 1}')


class TestNegotiation:
    def test_default_codec_is_xmlrpc(self):
        assert default_codec().name == "xml-rpc"
        assert [c.name for c in all_codecs()] == ["xml-rpc", "soap",
                                                  "json-rpc", "binary"]

    @pytest.mark.parametrize("content_type,expected", [
        ("application/json", "json-rpc"),
        ("application/json; charset=utf-8", "json-rpc"),
        ("application/soap+xml", "soap"),
        ("application/xml-rpc", "xml-rpc"),
        ("text/xml", None),
        (None, None),
    ])
    def test_codec_for_content_type(self, content_type, expected):
        codec = codec_for_content_type(content_type)
        assert (codec.name if codec else None) == expected

    @pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
    def test_detect_codec_by_sniffing(self, codec):
        body = codec.encode_request(RPCRequest("system.ping"))
        assert detect_codec(body, None).name == codec.name

    def test_detect_codec_unknown_body(self):
        with pytest.raises(ProtocolError):
            detect_codec(b"GARBAGE", None)

    def test_codec_by_name(self):
        assert codec_by_name("soap").name == "soap"
        with pytest.raises(ProtocolError):
            codec_by_name("corba")


class TestTypeModel:
    def test_validate_accepts_nested(self):
        validate_value({"a": [1, {"b": (2.5, None, b"x")}]})

    def test_validate_rejects_non_string_keys(self):
        with pytest.raises(ProtocolError):
            validate_value({1: "x"})

    def test_validate_rejects_unknown_types(self):
        with pytest.raises(ProtocolError):
            validate_value(object())

    def test_validate_rejects_excessive_nesting(self):
        value: list = []
        node = value
        for _ in range(70):
            node.append([])
            node = node[0]
        with pytest.raises(ProtocolError):
            validate_value(value)

    def test_request_requires_method_name(self):
        with pytest.raises(ProtocolError):
            RPCRequest("")

    def test_response_unwrap_result(self):
        assert RPCResponse.from_result(41).unwrap() == 41


# -- property-based round-trips ---------------------------------------------------

# XML 1.0 cannot carry most control characters (a real limitation of XML-RPC
# and SOAP, shared with the 2005 implementations), so generated strings
# exclude them; binary data is the supported channel for arbitrary bytes.
# Carriage return is allowed: the XML codecs send it as a character
# reference, since a literal one is rewritten to a newline by the parser.
_xml_safe_chars = st.characters(exclude_categories=("Cs", "Cc"),
                                include_characters="\r")
_xml_safe_text = st.text(alphabet=_xml_safe_chars, max_size=40)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**50), max_value=2**50),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    _xml_safe_text,
    st.binary(max_size=40),
)
_xml_safe_keys = st.text(alphabet=_xml_safe_chars, min_size=1, max_size=8)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_xml_safe_keys, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(deadline=None, max_examples=60)
@given(_values)
def test_xmlrpc_round_trip_property(value):
    codec = XMLRPCCodec()
    assert codec.decode_response(codec.encode_response(RPCResponse.from_result(value))).result == value


@settings(deadline=None, max_examples=60)
@given(_values)
def test_soap_round_trip_property(value):
    codec = SOAPCodec()
    assert codec.decode_response(codec.encode_response(RPCResponse.from_result(value))).result == value


@settings(deadline=None, max_examples=60)
@given(_values)
def test_jsonrpc_round_trip_property(value):
    codec = JSONRPCCodec()
    assert codec.decode_response(codec.encode_response(RPCResponse.from_result(value))).result == value


@settings(deadline=None, max_examples=60)
@given(_values)
def test_binary_round_trip_property(value):
    codec = BinaryCodec()
    assert codec.decode_response(codec.encode_response(RPCResponse.from_result(value))).result == value


@settings(deadline=None, max_examples=30)
@given(st.lists(_scalars, max_size=5))
def test_request_params_round_trip_property(params):
    for codec in CODECS:
        decoded = codec.decode_request(codec.encode_request(RPCRequest("m.n", params)))
        assert list(decoded.params) == list(params)


# -- encode-time validation -------------------------------------------------------

#: Codecs whose encoder is the only check on a result (``validates_on_encode``).
VALIDATING_CODECS = [XMLRPCCodec(), BinaryCodec()]


def _nest(levels: int, leaf, kinds) -> object:
    value = leaf
    for level in range(levels):
        value = [value] if kinds[level % len(kinds)] == "list" else {"k": value}
    return value


def _protocol_error(func) -> str | None:
    """The ProtocolError message ``func`` raises, or None if it returns."""

    try:
        func()
    except ProtocolError as exc:
        return str(exc)
    return None


class _Opaque:
    pass


_unsupported = st.sampled_from(
    [_Opaque(), {1, 2}, bytearray(b"x"), dt.date(2005, 6, 14), 1j, object])
_any_keys = st.one_of(_xml_safe_keys, _xml_safe_keys, st.integers(), st.none(),
                      st.binary(max_size=3), st.tuples(st.integers()))
_maybe_invalid = st.recursive(
    st.one_of(_scalars, _scalars, _scalars, _unsupported),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_any_keys, children, max_size=4),
    ),
    max_leaves=12,
)
_deep_values = st.builds(
    _nest,
    st.integers(min_value=62, max_value=67),
    st.one_of(st.just([]), st.just({}), _scalars, _unsupported,
              st.just({1: "x"})),
    st.lists(st.sampled_from(["list", "dict"]), min_size=1, max_size=3),
)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_maybe_invalid, _deep_values))
def test_encoders_reject_exactly_what_validate_value_rejects(value):
    expected = _protocol_error(lambda: validate_value(value))
    response = RPCResponse.from_result(value, validate=False)
    for codec in VALIDATING_CODECS:
        assert _protocol_error(lambda: codec.encode_response(response)) == expected
        if expected is None:
            assert codec.decode_response(codec.encode_response(response)).result \
                == _as_lists(value)


def _as_lists(value):
    """``value`` with tuples turned into lists, as every decoder returns them."""

    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("codec", VALIDATING_CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("kinds", [["list"], ["dict"], ["list", "dict"]], ids=str)
class TestNestingCap:
    """The cap is 64 levels *below* the top-level value, in every direction."""

    def test_64_levels_encode_and_round_trip(self, codec, kinds):
        value = _nest(64, 7, kinds)
        body = codec.encode_response(RPCResponse.from_result(value))
        assert codec.decode_response(body).result == value
        request = RPCRequest.from_wire("m.n", (value,), None)
        assert codec.decode_request(codec.encode_request(request)).params == (value,)

    def test_empty_container_at_level_64_is_allowed(self, codec, kinds):
        value = _nest(64, [], kinds)
        validate_value(value)
        body = codec.encode_response(RPCResponse.from_result(value))
        assert codec.decode_response(body).result == value

    def test_65_levels_rejected_on_encode(self, codec, kinds):
        value = _nest(65, 7, kinds)
        with pytest.raises(ProtocolError, match="nesting exceeds 64 levels"):
            validate_value(value)
        with pytest.raises(ProtocolError, match="nesting exceeds 64 levels"):
            codec.encode_response(RPCResponse.from_result(value, validate=False))
        with pytest.raises(ProtocolError, match="nesting exceeds 64 levels"):
            codec.encode_request(RPCRequest.from_wire("m.n", (value,), None))


def _xmlrpc_nested(levels: int, kinds) -> str:
    """A ``<value>`` holding ``<int>7</int>`` under ``levels`` containers."""

    body = "<value><int>7</int></value>"
    for level in range(levels):
        if kinds[level % len(kinds)] == "list":
            body = f"<value><array><data>{body}</data></array></value>"
        else:
            body = f"<value><struct><member><name>k</name>{body}</member></struct></value>"
    return body


@pytest.mark.parametrize("kinds", [["list"], ["dict"], ["list", "dict"]], ids=str)
@pytest.mark.parametrize("levels", [65, 66, 2000])
def test_xmlrpc_decoder_rejects_deep_documents(kinds, levels):
    codec = XMLRPCCodec()
    value = _xmlrpc_nested(levels, kinds)
    response = ("<?xml version='1.0'?><methodResponse><params><param>"
                f"{value}</param></params></methodResponse>").encode()
    request = ("<?xml version='1.0'?><methodCall><methodName>m.n</methodName>"
               f"<params><param>{value}</param></params></methodCall>").encode()
    with pytest.raises(ProtocolError, match="nesting exceeds 64 levels"):
        codec.decode_response(response)
    with pytest.raises(ProtocolError, match="nesting exceeds 64 levels"):
        codec.decode_request(request)
    # One level less is the deepest legal document.
    shallower = _xmlrpc_nested(64, kinds)
    decoded = codec.decode_response(
        ("<?xml version='1.0'?><methodResponse><params><param>"
         f"{shallower}</param></params></methodResponse>").encode())
    assert decoded.result == _nest(64, 7, kinds)
