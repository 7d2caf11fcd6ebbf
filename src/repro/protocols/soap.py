"""SOAP 1.1 codec (RPC/encoded subset).

Clarens accepts SOAP alongside XML-RPC.  This codec implements the subset a
2005-era scientific RPC deployment used: an Envelope/Body wrapper around an
RPC-style call element whose children are the positional parameters, with
``xsi:type`` attributes describing scalars and nested ``item``/``entry``
elements for arrays and structs.  Faults follow the SOAP 1.1
``soap:Fault`` shape (``faultcode``/``faultstring``/``detail``).
"""

from __future__ import annotations

import base64
import datetime as _dt
import xml.etree.ElementTree as ET
from typing import Any

from repro.protocols.errors import Fault, ProtocolError
from repro.protocols.types import RPCRequest, RPCResponse, validate_value

__all__ = ["SOAPCodec"]

SOAP_ENV = "http://schemas.xmlsoap.org/soap/envelope/"
XSI = "http://www.w3.org/2001/XMLSchema-instance"
XSD = "http://www.w3.org/2001/XMLSchema"
CLARENS_NS = "urn:clarens"

_ISO_FORMAT = "%Y-%m-%dT%H:%M:%S"


def _escape(text: str) -> str:
    # ``\r`` becomes a character reference, or XML end-of-line handling
    # would deliver it as ``\n``.
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;"))


def _encode_value(name: str, value: Any, out: list[str]) -> None:
    """Append ``<name xsi:type=...>`` encoding of ``value``."""

    if value is None:
        out.append(f'<{name} xsi:nil="true"/>')
    elif isinstance(value, bool):
        out.append(f'<{name} xsi:type="xsd:boolean">{"true" if value else "false"}</{name}>')
    elif isinstance(value, int):
        out.append(f'<{name} xsi:type="xsd:long">{value}</{name}>')
    elif isinstance(value, float):
        out.append(f'<{name} xsi:type="xsd:double">{value!r}</{name}>')
    elif isinstance(value, str):
        out.append(f'<{name} xsi:type="xsd:string">{_escape(value)}</{name}>')
    elif isinstance(value, bytes):
        out.append(
            f'<{name} xsi:type="xsd:base64Binary">{base64.b64encode(value).decode("ascii")}</{name}>'
        )
    elif isinstance(value, _dt.datetime):
        out.append(f'<{name} xsi:type="xsd:dateTime">{value.strftime(_ISO_FORMAT)}</{name}>')
    elif isinstance(value, (list, tuple)):
        out.append(f'<{name} xsi:type="soapenc:Array">')
        for item in value:
            _encode_value("item", item, out)
        out.append(f"</{name}>")
    elif isinstance(value, dict):
        out.append(f'<{name} xsi:type="clarens:Struct">')
        for key, item in value.items():
            out.append(f"<entry><key>{_escape(key)}</key>")
            _encode_value("value", item, out)
            out.append("</entry>")
        out.append(f"</{name}>")
    else:
        raise ProtocolError(f"cannot encode type {type(value).__name__} as SOAP")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _xsi_type(element: ET.Element) -> str | None:
    for key, value in element.attrib.items():
        if _local(key) == "type":
            return value.rsplit(":", 1)[-1]
    return None


def _is_nil(element: ET.Element) -> bool:
    for key, value in element.attrib.items():
        if _local(key) == "nil" and value in ("true", "1"):
            return True
    return False


def _decode_value(element: ET.Element) -> Any:
    if _is_nil(element):
        return None
    xtype = _xsi_type(element)
    text = element.text or ""
    if xtype == "boolean":
        stripped = text.strip().lower()
        if stripped not in ("true", "false", "1", "0"):
            raise ProtocolError(f"invalid boolean {text!r}")
        return stripped in ("true", "1")
    if xtype in ("int", "long", "integer", "short"):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ProtocolError(f"invalid integer {text!r}") from exc
    if xtype in ("double", "float", "decimal"):
        try:
            return float(text.strip())
        except ValueError as exc:
            raise ProtocolError(f"invalid double {text!r}") from exc
    if xtype == "string":
        return text
    if xtype == "base64Binary":
        try:
            return base64.b64decode("".join(text.split()))
        except Exception as exc:
            raise ProtocolError(f"invalid base64: {exc}") from exc
    if xtype == "dateTime":
        try:
            return _dt.datetime.strptime(text.strip(), _ISO_FORMAT)
        except ValueError as exc:
            raise ProtocolError(f"invalid dateTime {text!r}") from exc
    if xtype == "Array":
        return [_decode_value(child) for child in element]
    if xtype == "Struct":
        result: dict[str, Any] = {}
        for entry in element:
            if _local(entry.tag) != "entry":
                raise ProtocolError("struct children must be <entry> elements")
            key_el = None
            value_el = None
            for child in entry:
                if _local(child.tag) == "key":
                    key_el = child
                elif _local(child.tag) == "value":
                    value_el = child
            if key_el is None or value_el is None:
                raise ProtocolError("struct entry missing <key> or <value>")
            result[key_el.text or ""] = _decode_value(value_el)
        return result
    # Untyped elements with children decode as arrays, otherwise strings;
    # this mirrors the lax decoding of 2005-era SOAP toolkits.
    children = list(element)
    if children:
        return [_decode_value(child) for child in children]
    return text


def _parse_envelope(body: bytes | str) -> ET.Element:
    if isinstance(body, bytes):
        body = body.decode("utf-8")
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed SOAP XML: {exc}") from exc
    if _local(root.tag) != "Envelope":
        raise ProtocolError(f"expected soap:Envelope, found {_local(root.tag)}")
    body_el = None
    for child in root:
        if _local(child.tag) == "Body":
            body_el = child
            break
    if body_el is None or len(list(body_el)) == 0:
        raise ProtocolError("SOAP envelope has no Body payload")
    return list(body_el)[0]


_ENVELOPE_HEAD = (
    "<?xml version='1.0'?>"
    f'<soap:Envelope xmlns:soap="{SOAP_ENV}" xmlns:xsi="{XSI}" xmlns:xsd="{XSD}" '
    f'xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xmlns:clarens="{CLARENS_NS}">'
    "<soap:Body>"
)
_ENVELOPE_TAIL = "</soap:Body></soap:Envelope>"


class SOAPCodec:
    """Encode/decode the SOAP 1.1 RPC subset used by Clarens."""

    name = "soap"
    content_type = "application/soap+xml"

    # -- requests ------------------------------------------------------------
    def encode_request(self, request: RPCRequest) -> bytes:
        # Method names such as ``system.list_methods`` are not valid XML
        # element names, so the call element carries the name in an attribute.
        out = [_ENVELOPE_HEAD]
        out.append(f'<clarens:call method="{_escape(request.method)}">')
        for idx, param in enumerate(request.params):
            validate_value(param)
            _encode_value(f"param{idx}", param, out)
        out.append("</clarens:call>")
        out.append(_ENVELOPE_TAIL)
        return "".join(out).encode("utf-8")

    def decode_request(self, body: bytes | str) -> RPCRequest:
        payload = _parse_envelope(body)
        if _local(payload.tag) != "call":
            raise ProtocolError(f"expected clarens:call element, found {_local(payload.tag)}")
        method = payload.attrib.get("method", "").strip()
        if not method:
            raise ProtocolError("SOAP call element is missing the method attribute")
        params = [_decode_value(child) for child in payload]
        return RPCRequest(method=method, params=params)

    # -- responses -----------------------------------------------------------
    def encode_response(self, response: RPCResponse) -> bytes:
        out = [_ENVELOPE_HEAD]
        if response.is_fault:
            assert response.fault is not None
            out.append("<soap:Fault>")
            out.append(f"<faultcode>soap:Server.{response.fault.code}</faultcode>")
            out.append(f"<faultstring>{_escape(response.fault.message)}</faultstring>")
            out.append("<detail>")
            _encode_value("code", response.fault.code, out)
            out.append("</detail>")
            out.append("</soap:Fault>")
        else:
            out.append("<clarens:callResponse>")
            _encode_value("return", response.result, out)
            out.append("</clarens:callResponse>")
        out.append(_ENVELOPE_TAIL)
        return "".join(out).encode("utf-8")

    def decode_response(self, body: bytes | str) -> RPCResponse:
        payload = _parse_envelope(body)
        tag = _local(payload.tag)
        if tag == "Fault":
            code = 0
            message = ""
            for child in payload:
                local = _local(child.tag)
                if local == "faultstring":
                    message = child.text or ""
                elif local == "faultcode":
                    text = child.text or ""
                    digits = text.rsplit(".", 1)[-1]
                    try:
                        code = int(digits)
                    except ValueError:
                        code = 0
                elif local == "detail":
                    for det in child:
                        if _local(det.tag) == "code":
                            try:
                                code = int(_decode_value(det))
                            except (TypeError, ValueError):
                                pass
            return RPCResponse.from_fault(Fault(code, message))
        if tag != "callResponse":
            raise ProtocolError(f"expected callResponse or Fault, found {tag}")
        children = list(payload)
        if len(children) != 1:
            raise ProtocolError("callResponse must carry exactly one return value")
        return RPCResponse.from_result(_decode_value(children[0]))
