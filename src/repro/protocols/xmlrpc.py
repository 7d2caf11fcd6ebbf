"""XML-RPC codec, implemented from scratch.

XML-RPC is the protocol the paper's performance test uses ("serializing the
resultant list of more than 30 strings as an array response in XML-RPC"),
so both directions walk each value tree exactly once:

* the encoder builds a list of string fragments (no intermediate DOM) and
  validates while it encodes — the nesting cap, string struct keys and the
  supported types are enforced with the same errors as
  :func:`~repro.protocols.types.validate_value`, so callers skip that
  separate walk; exact ``str`` values and string items of arrays take a
  fast path, and text that needs no escaping is passed through untouched;
* the decoder uses :mod:`xml.etree.ElementTree` for robustness and is
  constructive: it can only build model types and enforces the same nesting
  cap itself, so decoded requests and responses are not re-validated.
  ``<value><string>`` items of arrays are read inline.
"""

from __future__ import annotations

import base64
import datetime as _dt
import xml.etree.ElementTree as ET
from typing import Any

from repro.protocols.errors import Fault, ProtocolError
from repro.protocols.types import (MAX_DEPTH, RPCRequest, RPCResponse,
                                   key_type_error, nesting_error, type_error)

__all__ = ["XMLRPCCodec"]

_ISO_FORMAT = "%Y%m%dT%H:%M:%S"


def _escape(text: str) -> str:
    # ``\r`` is written as a character reference: XML end-of-line handling
    # would otherwise turn it into ``\n`` before the decoder sees it.
    if "&" not in text and "<" not in text and ">" not in text and "\r" not in text:
        return text
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _encode_value(value: Any, out: list[str], depth: int = 0) -> None:
    """Append the ``<value>...</value>`` encoding of ``value`` to ``out``.

    Raises :class:`ProtocolError` exactly when ``validate_value`` would.
    """

    if type(value) is str:
        out.append(f"<value><string>{_escape(value)}</string></value>")
    elif value is None:
        out.append("<value><nil/></value>")
    elif isinstance(value, bool):
        out.append(f"<value><boolean>{1 if value else 0}</boolean></value>")
    elif isinstance(value, int):
        if not (-(2**31) <= value < 2**31):
            # XML-RPC ints are 32-bit; larger values travel as i8 (a common
            # extension also used by the original Clarens Python client).
            out.append(f"<value><i8>{value}</i8></value>")
        else:
            out.append(f"<value><int>{value}</int></value>")
    elif isinstance(value, float):
        out.append(f"<value><double>{value!r}</double></value>")
    elif isinstance(value, str):
        out.append(f"<value><string>{_escape(value)}</string></value>")
    elif isinstance(value, bytes):
        out.append(f"<value><base64>{base64.b64encode(value).decode('ascii')}"
                   f"</base64></value>")
    elif isinstance(value, _dt.datetime):
        out.append(f"<value><dateTime.iso8601>{value.strftime(_ISO_FORMAT)}"
                   f"</dateTime.iso8601></value>")
    elif isinstance(value, (list, tuple)):
        if value and depth >= MAX_DEPTH:
            raise nesting_error()
        out.append("<value><array><data>")
        for item in value:
            if type(item) is str:
                out.append(f"<value><string>{_escape(item)}</string></value>")
            else:
                _encode_value(item, out, depth + 1)
        out.append("</data></array></value>")
    elif isinstance(value, dict):
        out.append("<value><struct>")
        for key, item in value.items():
            if not isinstance(key, str):
                raise key_type_error(key)
            if depth >= MAX_DEPTH:
                raise nesting_error()
            out.append(f"<member><name>{_escape(key)}</name>")
            _encode_value(item, out, depth + 1)
            out.append("</member>")
        out.append("</struct></value>")
    else:
        raise type_error(value)


def _decode_value(element: ET.Element, depth: int = 0) -> Any:
    """Decode a ``<value>`` element sitting at nesting level ``depth``."""

    if depth > MAX_DEPTH:
        raise nesting_error()
    if not len(element):
        # Bare text inside <value> is a string per the XML-RPC spec.
        return element.text or ""
    node = element[0]
    tag = node.tag
    text = node.text or ""
    if tag == "string":
        return text
    if tag == "nil":
        return None
    if tag == "boolean":
        stripped = text.strip()
        if stripped not in ("0", "1"):
            raise ProtocolError(f"invalid boolean value {text!r}")
        return stripped == "1"
    if tag in ("int", "i4", "i8"):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ProtocolError(f"invalid integer value {text!r}") from exc
    if tag == "double":
        try:
            return float(text.strip())
        except ValueError as exc:
            raise ProtocolError(f"invalid double value {text!r}") from exc
    if tag == "base64":
        try:
            return base64.b64decode("".join(text.split()))
        except Exception as exc:
            raise ProtocolError(f"invalid base64 value: {exc}") from exc
    if tag == "dateTime.iso8601":
        try:
            return _dt.datetime.strptime(text.strip(), _ISO_FORMAT)
        except ValueError as exc:
            raise ProtocolError(f"invalid dateTime value {text!r}") from exc
    if tag == "array":
        data = node.find("data")
        if data is None:
            raise ProtocolError("array without <data>")
        depth += 1
        if depth > MAX_DEPTH:
            # Any item sits past the cap: the generic path raises on it.
            return [_decode_value(v, depth) for v in data.findall("value")]
        items: list[Any] = []
        for item in data:
            if item.tag != "value":
                continue
            if len(item) and item[0].tag == "string":
                items.append(item[0].text or "")
            else:
                items.append(_decode_value(item, depth))
        return items
    if tag == "struct":
        result: dict[str, Any] = {}
        for member in node.findall("member"):
            name_el = member.find("name")
            value_el = member.find("value")
            if name_el is None or value_el is None:
                raise ProtocolError("struct member missing <name> or <value>")
            result[name_el.text or ""] = _decode_value(value_el, depth + 1)
        return result
    raise ProtocolError(f"unknown XML-RPC value tag {tag!r}")


def _parse_xml(body: bytes | str) -> ET.Element:
    if isinstance(body, bytes):
        body = body.decode("utf-8", errors="strict")
    try:
        return ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc


class XMLRPCCodec:
    """Encode/decode XML-RPC requests and responses."""

    name = "xml-rpc"
    content_type = "text/xml"
    #: The encoder enforces the type model itself (see :func:`_encode_value`),
    #: so the pipeline skips the separate validation walk over results.
    validates_on_encode = True

    # -- requests ------------------------------------------------------------
    def encode_request(self, request: RPCRequest) -> bytes:
        out: list[str] = [
            "<?xml version='1.0'?>",
            "<methodCall><methodName>",
            _escape(request.method),
            "</methodName><params>",
        ]
        for param in request.params:
            out.append("<param>")
            _encode_value(param, out)
            out.append("</param>")
        out.append("</params></methodCall>")
        return "".join(out).encode("utf-8")

    def decode_request(self, body: bytes | str) -> RPCRequest:
        root = _parse_xml(body)
        if root.tag != "methodCall":
            raise ProtocolError(f"expected <methodCall>, found <{root.tag}>")
        name_el = root.find("methodName")
        if name_el is None or not (name_el.text or "").strip():
            raise ProtocolError("missing <methodName>")
        params: list[Any] = []
        params_el = root.find("params")
        if params_el is not None:
            for param in params_el.findall("param"):
                value_el = param.find("value")
                if value_el is None:
                    raise ProtocolError("<param> without <value>")
                params.append(_decode_value(value_el))
        return RPCRequest.from_wire((name_el.text or "").strip(), tuple(params), None)

    def encode_multicall(self, calls, call_id: Any = None) -> bytes:
        """Serialise a ``system.multicall`` batch straight into one body.

        Byte-identical to :meth:`encode_request` over the equivalent
        ``[{"methodName": ..., "params": [...]}]`` entry list, but writes
        the boilerplate fragments directly instead of building the
        intermediate dicts.
        """

        out: list[str] = [
            "<?xml version='1.0'?>",
            "<methodCall><methodName>system.multicall</methodName><params>",
            "<param><value><array><data>",
        ]
        for method, params in calls:
            out.append("<value><struct><member><name>methodName</name>")
            out.append(f"<value><string>{_escape(method)}</string></value>")
            out.append("</member><member><name>params</name>")
            out.append("<value><array><data>")
            for param in params:
                _encode_value(param, out)
            out.append("</data></array></value></member></struct></value>")
        out.append("</data></array></value></param></params></methodCall>")
        return "".join(out).encode("utf-8")

    # -- responses -----------------------------------------------------------
    def encode_response(self, response: RPCResponse) -> bytes:
        out: list[str] = ["<?xml version='1.0'?>", "<methodResponse>"]
        if response.is_fault:
            assert response.fault is not None
            out.append("<fault>")
            _encode_value(
                {"faultCode": response.fault.code, "faultString": response.fault.message}, out
            )
            out.append("</fault>")
        else:
            out.append("<params><param>")
            _encode_value(response.result, out)
            out.append("</param></params>")
        out.append("</methodResponse>")
        return "".join(out).encode("utf-8")

    def decode_response(self, body: bytes | str) -> RPCResponse:
        root = _parse_xml(body)
        if root.tag != "methodResponse":
            raise ProtocolError(f"expected <methodResponse>, found <{root.tag}>")
        fault_el = root.find("fault")
        if fault_el is not None:
            value_el = fault_el.find("value")
            if value_el is None:
                raise ProtocolError("<fault> without <value>")
            payload = _decode_value(value_el)
            if not isinstance(payload, dict):
                raise ProtocolError("fault payload must be a struct")
            return RPCResponse.from_fault(
                Fault(int(payload.get("faultCode", 0)), str(payload.get("faultString", "")))
            )
        params_el = root.find("params")
        if params_el is None:
            raise ProtocolError("response has neither <params> nor <fault>")
        params = params_el.findall("param")
        if len(params) != 1:
            raise ProtocolError("XML-RPC responses carry exactly one <param>")
        value_el = params[0].find("value")
        if value_el is None:
            raise ProtocolError("<param> without <value>")
        return RPCResponse.from_result(_decode_value(value_el), validate=False)
