"""ACL data model.

An :class:`ACL` mirrors the paper's description: an evaluation order
specification (``allow,deny`` or ``deny,allow``) followed by a list of DNs
allowed, groups allowed, DNs denied and groups denied.  A :class:`FileACL`
extends the method ACL with the two extra fields the paper gives file ACLs:
``read`` and ``write`` permissions, each of which is itself an ACL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from repro.pki.dn import dn_matches

__all__ = ["ACL", "FileACL", "ACLError", "Verdict", "Order"]


class ACLError(Exception):
    """Raised for malformed ACLs or unauthorized ACL administration."""


class Order(str, Enum):
    """Apache-style evaluation order."""

    ALLOW_DENY = "allow,deny"
    DENY_ALLOW = "deny,allow"

    @classmethod
    def parse(cls, text: str) -> "Order":
        normalized = text.replace(" ", "").lower()
        for member in cls:
            if member.value == normalized:
                return member
        raise ACLError(f"invalid ACL order {text!r}; expected 'allow,deny' or 'deny,allow'")


class Verdict(Enum):
    """Result of evaluating a single ACL for a principal."""

    ALLOW = "allow"
    DENY = "deny"
    ABSTAIN = "abstain"  # the principal matched neither list


def _dn_in(listed: Sequence[str], dn: str) -> bool:
    return any(entry == "*" or dn_matches(entry, dn) for entry in listed)


@dataclass
class ACL:
    """One access-control list."""

    order: Order = Order.ALLOW_DENY
    dns_allowed: list[str] = field(default_factory=list)
    groups_allowed: list[str] = field(default_factory=list)
    dns_denied: list[str] = field(default_factory=list)
    groups_denied: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.order, str):
            self.order = Order.parse(self.order)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, dn: str, group_membership: Callable[[str], bool]) -> Verdict:
        """Evaluate this ACL for ``dn``.

        ``group_membership(group_name)`` reports whether the DN belongs to a
        VO group; the ACL layer does not know about the VO tree directly.

        Matching both lists resolves according to the order: with
        ``allow,deny`` the deny list wins (Apache semantics); with
        ``deny,allow`` the allow list wins.  Matching neither list abstains so
        a less-specific ACL further up the hierarchy can decide.
        """

        allowed = _dn_in(self.dns_allowed, dn) or any(
            group_membership(g) for g in self.groups_allowed
        )
        denied = _dn_in(self.dns_denied, dn) or any(
            group_membership(g) for g in self.groups_denied
        )
        if self.order is Order.ALLOW_DENY:
            if denied:
                return Verdict.DENY
            if allowed:
                return Verdict.ALLOW
        else:  # deny,allow
            if allowed:
                return Verdict.ALLOW
            if denied:
                return Verdict.DENY
        return Verdict.ABSTAIN

    # -- serialization -------------------------------------------------------
    def to_record(self) -> dict:
        return {
            "order": self.order.value,
            "dns_allowed": list(self.dns_allowed),
            "groups_allowed": list(self.groups_allowed),
            "dns_denied": list(self.dns_denied),
            "groups_denied": list(self.groups_denied),
        }

    @classmethod
    def from_record(cls, record: dict) -> "ACL":
        return cls(
            order=Order.parse(record.get("order", "allow,deny")),
            dns_allowed=list(record.get("dns_allowed", [])),
            groups_allowed=list(record.get("groups_allowed", [])),
            dns_denied=list(record.get("dns_denied", [])),
            groups_denied=list(record.get("groups_denied", [])),
        )

    @classmethod
    def allow_all(cls) -> "ACL":
        """An ACL granting access to every authenticated principal."""

        return cls(order=Order.DENY_ALLOW, dns_allowed=["*"])

    @classmethod
    def allow_groups(cls, *groups: str) -> "ACL":
        return cls(order=Order.ALLOW_DENY, groups_allowed=list(groups))

    @classmethod
    def allow_dns(cls, *dns: str) -> "ACL":
        return cls(order=Order.ALLOW_DENY, dns_allowed=list(dns))


@dataclass
class FileACL:
    """A file/directory ACL: the method ACL fields plus read and write."""

    read: ACL = field(default_factory=ACL)
    write: ACL = field(default_factory=ACL)

    def acl_for(self, operation: str) -> ACL:
        if operation == "read":
            return self.read
        if operation == "write":
            return self.write
        raise ACLError(f"unknown file operation {operation!r}; expected 'read' or 'write'")

    def to_record(self) -> dict:
        return {"read": self.read.to_record(), "write": self.write.to_record()}

    @classmethod
    def from_record(cls, record: dict) -> "FileACL":
        return cls(
            read=ACL.from_record(record.get("read", {})),
            write=ACL.from_record(record.get("write", {})),
        )
