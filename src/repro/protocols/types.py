"""The shared RPC type model and request/response containers."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.protocols.errors import Fault, ProtocolError

__all__ = ["RPCRequest", "RPCResponse", "validate_value", "SCALAR_TYPES",
           "MAX_DEPTH", "nesting_error", "key_type_error", "type_error"]

SCALAR_TYPES = (type(None), bool, int, float, str, bytes, _dt.datetime)

#: Deepest nesting level a value may sit at (the top-level value is level 0).
#: Every codec enforces the same cap, in both directions, so a hostile body
#: cannot recurse a decoder and no encoder emits what a decoder rejects.
MAX_DEPTH = 64


# The three ways a value can fall outside the type model.  Codecs that
# validate while encoding raise these same errors, so an unencodable result
# becomes the same fault whichever path detected it.

def nesting_error() -> ProtocolError:
    return ProtocolError(f"value nesting exceeds {MAX_DEPTH} levels")


def key_type_error(key: Any) -> ProtocolError:
    return ProtocolError(f"struct keys must be strings, got {type(key).__name__}")


def type_error(value: Any) -> ProtocolError:
    return ProtocolError(f"type {type(value).__name__} is not representable in RPC")


def validate_value(value: Any, *, _depth: int = 0) -> Any:
    """Check that ``value`` is expressible in the shared type model.

    Returns the value unchanged on success and raises
    :class:`~repro.protocols.errors.ProtocolError` otherwise.  Tuples are
    accepted and treated as arrays.  The depth limit guards the recursive
    codecs against pathological nesting.
    """

    if _depth > MAX_DEPTH:
        raise nesting_error()
    if isinstance(value, SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        for item in value:
            validate_value(item, _depth=_depth + 1)
        return value
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise key_type_error(key)
            validate_value(item, _depth=_depth + 1)
        return value
    raise type_error(value)


@dataclass
class RPCRequest:
    """A decoded RPC call: method name, positional parameters, call id.

    ``call_id`` is used by JSON-RPC (request/response correlation); the XML
    protocols ignore it.
    """

    method: str
    params: Sequence[Any] = field(default_factory=tuple)
    call_id: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ProtocolError("RPC method name must be a non-empty string")
        self.params = tuple(self.params)
        for param in self.params:
            validate_value(param)

    @classmethod
    def from_wire(cls, method: str, params: tuple, call_id: Any) -> "RPCRequest":
        """Construct from decoder output without re-validating the tree.

        Only for codecs whose decoder is constructive — it can *only* produce
        model types within the nesting cap (the XML-RPC and binary decoders),
        so the per-value validation walk would re-prove what the decode
        already established.  ``method`` must be non-empty and ``params`` a tuple.
        """

        request = cls.__new__(cls)
        request.method = method
        request.params = params
        request.call_id = call_id
        return request


@dataclass
class RPCResponse:
    """A decoded RPC response: either a result value or a fault."""

    result: Any = None
    fault: Fault | None = None
    call_id: Any = None

    def __post_init__(self) -> None:
        if self.fault is None:
            validate_value(self.result)

    @property
    def is_fault(self) -> bool:
        return self.fault is not None

    def unwrap(self) -> Any:
        """Return the result, raising the fault if there is one."""

        if self.fault is not None:
            raise self.fault
        return self.result

    @classmethod
    def from_fault(cls, fault: Fault, call_id: Any = None) -> "RPCResponse":
        return cls(result=None, fault=fault, call_id=call_id)

    @classmethod
    def from_result(cls, result: Any, call_id: Any = None, *,
                    validate: bool = True) -> "RPCResponse":
        """Wrap a result value, validating it against the type model.

        ``validate=False`` skips the per-value walk; callers may only pass it
        when the result is valid by construction — a constructive decoder's
        output, or a pipeline whose codec validates during encoding anyway.
        """

        if validate:
            return cls(result=result, fault=None, call_id=call_id)
        response = cls.__new__(cls)
        response.result = result
        response.fault = None
        response.call_id = call_id
        return response
