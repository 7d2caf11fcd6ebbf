"""Golden-byte tests freezing the XML-RPC wire format (paper mode).

XML-RPC is the paper's protocol and the server's default, so its bytes are
part of the interoperability contract with every deployed client.  Every
expected body here is a hand-written literal: if an implementation change
flips a byte, these tests fail.  Each body also decodes back to the value it
was encoded from, so the literals double as decoder fixtures.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.protocols import Fault, RPCRequest, RPCResponse, XMLRPCCodec

CODEC = XMLRPCCodec()

_CALL = b"<?xml version='1.0'?><methodCall><methodName>"
_RESPONSE = b"<?xml version='1.0'?><methodResponse><params><param>"
_END_RESPONSE = b"</param></params></methodResponse>"

#: ``system.list_methods()`` — the Figure 4 request.
LIST_METHODS_REQUEST = (_CALL + b"system.list_methods</methodName>"
                        b"<params></params></methodCall>")

MIXED_PARAMS = ["/data/a&b.dat", 1024, [True, None], {"k": 2.5}]
MIXED_REQUEST = (
    _CALL + b"file.read</methodName><params>"
    b"<param><value><string>/data/a&amp;b.dat</string></value></param>"
    b"<param><value><int>1024</int></value></param>"
    b"<param><value><array><data><value><boolean>1</boolean></value>"
    b"<value><nil/></value></data></array></value></param>"
    b"<param><value><struct><member><name>k</name>"
    b"<value><double>2.5</double></value></member></struct></value></param>"
    b"</params></methodCall>")

#: The Figure 4 response shape: an array of method-name strings.
METHOD_NAMES = ["system.echo", "file.read", "vo.is_admin"]
METHOD_LIST_RESPONSE = (
    _RESPONSE + b"<value><array><data>"
    b"<value><string>system.echo</string></value>"
    b"<value><string>file.read</string></value>"
    b"<value><string>vo.is_admin</string></value>"
    b"</data></array></value>" + _END_RESPONSE)

ESCAPED_STRUCT = {"a&b<c>": "x<y>&z", "plain": ""}
ESCAPED_STRUCT_RESPONSE = (
    _RESPONSE + b"<value><struct>"
    b"<member><name>a&amp;b&lt;c&gt;</name>"
    b"<value><string>x&lt;y&gt;&amp;z</string></value></member>"
    b"<member><name>plain</name><value><string></string></value></member>"
    b"</struct></value>" + _END_RESPONSE)

#: XML-RPC ints are 32-bit; anything outside travels as ``<i8>``.
INT_BOUNDARY = [2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63]
INT_BOUNDARY_RESPONSE = (
    _RESPONSE + b"<value><array><data>"
    b"<value><int>2147483647</int></value>"
    b"<value><i8>2147483648</i8></value>"
    b"<value><int>-2147483648</int></value>"
    b"<value><i8>-2147483649</i8></value>"
    b"<value><i8>9223372036854775808</i8></value>"
    b"</data></array></value>" + _END_RESPONSE)

SCALARS = [None, True, False, 0.1, -2.5e-300, 1e16, b"\x00\x01\xffbin",
           dt.datetime(2005, 6, 14, 12, 30, 45)]
SCALARS_RESPONSE = (
    _RESPONSE + b"<value><array><data>"
    b"<value><nil/></value>"
    b"<value><boolean>1</boolean></value>"
    b"<value><boolean>0</boolean></value>"
    b"<value><double>0.1</double></value>"
    b"<value><double>-2.5e-300</double></value>"
    b"<value><double>1e+16</double></value>"
    b"<value><base64>AAH/Ymlu</base64></value>"
    b"<value><dateTime.iso8601>20050614T12:30:45</dateTime.iso8601></value>"
    b"</data></array></value>" + _END_RESPONSE)

FAULT = Fault(403, "access to <file.read> denied & logged")
FAULT_RESPONSE = (
    b"<?xml version='1.0'?><methodResponse><fault><value><struct>"
    b"<member><name>faultCode</name><value><int>403</int></value></member>"
    b"<member><name>faultString</name>"
    b"<value><string>access to &lt;file.read&gt; denied &amp; logged</string>"
    b"</value></member></struct></value></fault></methodResponse>")

MULTICALL = [("system.echo", ["hi & bye"]), ("file.stat", ["/a", {"deep": [1]}])]
MULTICALL_REQUEST = (
    _CALL + b"system.multicall</methodName><params><param><value><array><data>"
    b"<value><struct><member><name>methodName</name>"
    b"<value><string>system.echo</string></value></member>"
    b"<member><name>params</name><value><array><data>"
    b"<value><string>hi &amp; bye</string></value>"
    b"</data></array></value></member></struct></value>"
    b"<value><struct><member><name>methodName</name>"
    b"<value><string>file.stat</string></value></member>"
    b"<member><name>params</name><value><array><data>"
    b"<value><string>/a</string></value>"
    b"<value><struct><member><name>deep</name><value><array><data>"
    b"<value><int>1</int></value></data></array></value></member></struct></value>"
    b"</data></array></value></member></struct></value>"
    b"</data></array></value></param></params></methodCall>")


class TestGoldenRequests:
    def test_request_without_params(self):
        assert CODEC.encode_request(RPCRequest("system.list_methods")) == LIST_METHODS_REQUEST
        decoded = CODEC.decode_request(LIST_METHODS_REQUEST)
        assert decoded.method == "system.list_methods"
        assert tuple(decoded.params) == ()

    def test_request_with_mixed_params(self):
        assert CODEC.encode_request(RPCRequest("file.read", MIXED_PARAMS)) == MIXED_REQUEST
        decoded = CODEC.decode_request(MIXED_REQUEST)
        assert decoded.method == "file.read"
        assert list(decoded.params) == MIXED_PARAMS

    def test_tuple_params_encode_as_arrays(self):
        body = CODEC.encode_request(
            RPCRequest("file.read", ("/data/a&b.dat", 1024, (True, None), {"k": 2.5})))
        assert body == MIXED_REQUEST

    def test_multicall_request(self):
        assert CODEC.encode_multicall(MULTICALL) == MULTICALL_REQUEST
        batch = CODEC.decode_request(MULTICALL_REQUEST).params[0]
        assert batch == [{"methodName": name, "params": params}
                         for name, params in MULTICALL]


class TestGoldenResponses:
    @pytest.mark.parametrize("value,body", [
        (METHOD_NAMES, METHOD_LIST_RESPONSE),
        (ESCAPED_STRUCT, ESCAPED_STRUCT_RESPONSE),
        (INT_BOUNDARY, INT_BOUNDARY_RESPONSE),
        (SCALARS, SCALARS_RESPONSE),
    ], ids=["method-list", "escaped-struct", "int-boundary", "scalars"])
    def test_result_bytes(self, value, body):
        assert CODEC.encode_response(RPCResponse.from_result(value)) == body
        decoded = CODEC.decode_response(body)
        assert not decoded.is_fault
        assert decoded.result == value

    def test_tuple_result_encodes_as_array(self):
        response = RPCResponse.from_result(tuple(METHOD_NAMES))
        assert CODEC.encode_response(response) == METHOD_LIST_RESPONSE

    def test_fault_bytes(self):
        assert CODEC.encode_response(RPCResponse.from_fault(FAULT)) == FAULT_RESPONSE
        decoded = CODEC.decode_response(FAULT_RESPONSE)
        assert decoded.is_fault
        assert decoded.fault == FAULT
