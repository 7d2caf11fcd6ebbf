"""Distinguished names.

Grid identities in Clarens are X.509 distinguished names written in the
OpenSSL "slash" form used throughout the paper, e.g.::

    /O=doesciencegrid.org/OU=People/CN=John Smith 12345
    /DC=org/DC=doegrids/OU=People/CN=Joe User

Two properties of DNs matter to the framework:

* they are ordered sequences of attribute=value pairs (the order is
  significant -- ``/O=x/OU=y`` is not the same identity as ``/OU=y/O=x``);
* the VO service allows *prefix membership*: listing
  ``/O=doesciencegrid.org/OU=People`` as a group member admits every
  individual certificate issued under that branch (paper, section 2.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["DN", "DNParseError", "RDN", "dn_matches"]

#: Attribute keys recognised by the paper's examples.  Unknown keys are still
#: accepted (grid CAs used a variety of schemas); this tuple only drives
#: normalisation of case.
WELL_KNOWN_KEYS = ("C", "ST", "L", "O", "OU", "CN", "DC", "EMAIL", "EMAILADDRESS", "UID")


class DNParseError(ValueError):
    """Raised when a distinguished-name string cannot be parsed."""


@dataclass(frozen=True, order=True)
class RDN:
    """A single relative distinguished name: an ``attribute=value`` pair."""

    key: str
    value: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.key}={self.value}"


class DN:
    """An ordered X.509 distinguished name.

    Instances are immutable, hashable and comparable; equality is
    case-insensitive on attribute keys and case-sensitive on values, matching
    the behaviour of the grid map files Clarens interoperated with.
    """

    __slots__ = ("_rdns", "_canonical")

    def __init__(self, rdns: Iterable[Tuple[str, str] | RDN]):
        normalised = []
        for item in rdns:
            if isinstance(item, RDN):
                key, value = item.key, item.value
            else:
                key, value = item
            key = key.strip()
            value = value.strip()
            if not key:
                raise DNParseError("empty attribute key in DN component")
            if not value:
                raise DNParseError(f"empty value for attribute {key!r}")
            canon_key = key.upper() if key.upper() in WELL_KNOWN_KEYS else key
            normalised.append(RDN(canon_key, value))
        if not normalised:
            raise DNParseError("a DN must contain at least one component")
        object.__setattr__(self, "_rdns", tuple(normalised))
        object.__setattr__(
            self, "_canonical", "/" + "/".join(f"{r.key}={r.value}" for r in normalised)
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse a slash-form DN string such as ``/O=cern.ch/CN=alice``.

        Escaped slashes (``\\/``) inside values are honoured so that values
        containing path-like data (for instance service DNs naming a URL) can
        round-trip.
        """

        if not isinstance(text, str):
            raise DNParseError(f"DN must be a string, got {type(text).__name__}")
        stripped = text.strip()
        if not stripped:
            raise DNParseError("empty DN string")
        if not stripped.startswith("/"):
            raise DNParseError(f"DN must start with '/': {text!r}")

        components: list[str] = []
        current: list[str] = []
        escaped = False
        for ch in stripped[1:]:
            if escaped:
                current.append(ch)
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == "/":
                components.append("".join(current))
                current = []
            else:
                current.append(ch)
        if escaped:
            raise DNParseError(f"dangling escape at end of DN: {text!r}")
        components.append("".join(current))

        rdns: list[Tuple[str, str]] = []
        for comp in components:
            if not comp.strip():
                raise DNParseError(f"empty component in DN: {text!r}")
            if "=" not in comp:
                if rdns:
                    # An unescaped slash inside the previous value — the
                    # Globus host/service convention (``CN=host/fqdn``)
                    # writes these routinely, and the canonical string form
                    # does not escape them, so round-tripping str(DN) back
                    # through parse() must reassemble the value.
                    key, value = rdns[-1]
                    rdns[-1] = (key, f"{value}/{comp}")
                    continue
                raise DNParseError(f"component {comp!r} is not of the form key=value")
            key, _, value = comp.partition("=")
            rdns.append((key, value))
        return cls(rdns)

    @classmethod
    def coerce(cls, value: "DN | str") -> "DN":
        """Return ``value`` as a :class:`DN`, parsing strings as needed."""

        if isinstance(value, DN):
            return value
        return cls.parse(value)

    # -- accessors ---------------------------------------------------------
    @property
    def rdns(self) -> Sequence[RDN]:
        """The ordered components of this DN."""

        return self._rdns

    @property
    def common_name(self) -> str | None:
        """The value of the last ``CN`` component, or ``None``."""

        for rdn in reversed(self._rdns):
            if rdn.key == "CN":
                return rdn.value
        return None

    @property
    def organization(self) -> str | None:
        """The value of the first ``O`` component, or ``None``."""

        return self.first_value("O")

    def first_value(self, key: str) -> str | None:
        """Return the value of the first component with the given key."""

        canon = key.upper() if key.upper() in WELL_KNOWN_KEYS else key
        for rdn in self._rdns:
            if rdn.key == canon:
                return rdn.value
        return None

    def values(self, key: str) -> list[str]:
        """Return all values of components with the given key, in order."""

        canon = key.upper() if key.upper() in WELL_KNOWN_KEYS else key
        return [rdn.value for rdn in self._rdns if rdn.key == canon]

    # -- hierarchy ---------------------------------------------------------
    def is_prefix_of(self, other: "DN | str") -> bool:
        """True if this DN is an initial segment of ``other``.

        This implements the VO optimisation from section 2.1 of the paper:
        ``/O=doesciencegrid.org/OU=People`` is a prefix of every DN issued for
        an individual by that CA, so listing the prefix as a group member
        admits all of them.  A DN is a prefix of itself.
        """

        other_dn = DN.coerce(other)
        if len(self._rdns) > len(other_dn._rdns):
            return False
        return all(a == b for a, b in zip(self._rdns, other_dn._rdns))

    def matches(self, pattern: "DN | str") -> bool:
        """True if ``pattern`` is a prefix of this DN (the inverse view)."""

        return DN.coerce(pattern).is_prefix_of(self)

    def parent(self) -> "DN | None":
        """The DN with the last component removed (``None`` at the root)."""

        if len(self._rdns) <= 1:
            return None
        return DN(self._rdns[:-1])

    def child(self, key: str, value: str) -> "DN":
        """Return a new DN with one extra component appended."""

        return DN(tuple(self._rdns) + (RDN(key, value),))

    def is_service_dn(self) -> bool:
        """Heuristic used by the paper's examples: host/service certificates
        carry a ``CN=host/<fqdn>``-style component or an ``OU=Services`` unit."""

        if any(r.key == "OU" and r.value.lower() in {"services", "hosts"} for r in self._rdns):
            return True
        cn = self.common_name
        return bool(cn and cn.startswith(("host/", "service/")))

    # -- dunder ------------------------------------------------------------
    def __iter__(self) -> Iterator[RDN]:
        return iter(self._rdns)

    def __len__(self) -> int:
        return len(self._rdns)

    def __str__(self) -> str:
        return self._canonical

    def __repr__(self) -> str:
        return f"DN({self._canonical!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = DN.parse(other)
            except DNParseError:
                return NotImplemented
        if not isinstance(other, DN):
            return NotImplemented
        return self._rdns == other._rdns

    def __hash__(self) -> int:
        return hash(self._rdns)


#: Distinct strings the parse cache holds.  Access checks parse the same
#: handful of admin, ACL and caller DNs on every request; past this bound the
#: least recently used entry is dropped.
PARSE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_cached(text: str) -> DN | None:
    """``DN.parse(text)``, or ``None`` when ``text`` is not a DN.

    DNs are immutable, so a cached instance can be shared and the cache
    never needs invalidation.
    """

    try:
        return DN.parse(text)
    except DNParseError:
        return None


def dn_matches(listed: str, dn: str) -> bool:
    """True when ``listed`` (a full DN or a DN prefix) matches ``dn``.

    The one matching rule shared by VO groups, ACL entries and the shell user
    map: prefix membership (paper, section 2.1).  Strings that do not parse
    as DNs — a bare user name in a configuration file — match only exactly.
    """

    if listed == dn:
        return True
    if not isinstance(listed, str) or not isinstance(dn, str):
        return False
    prefix = _parse_cached(listed)
    if prefix is None:
        return False
    subject = _parse_cached(dn)
    return subject is not None and prefix.is_prefix_of(subject)
