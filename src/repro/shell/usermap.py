"""The ``.clarens_user_map`` file.

"Each mapping tuple consists of a system user name string, followed by a list
of user distinguished name strings, a list of group name strings, and a final
list reserved for future use."  The on-disk format used here is one mapping
per line::

    joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ; cms.admins, cms.ops ;

i.e. ``user : dn[,dn...] ; group[,group...] ; reserved`` with ``#`` comments.
A DN entry may be a prefix, like VO membership lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.pki.dn import dn_matches

__all__ = ["UserMapEntry", "UserMap", "UserMapError"]


class UserMapError(Exception):
    """Raised when the user map file is malformed."""


@dataclass
class UserMapEntry:
    """One mapping tuple: local user, DNs, groups, reserved."""

    user: str
    dns: list[str] = field(default_factory=list)
    groups: list[str] = field(default_factory=list)
    reserved: list[str] = field(default_factory=list)

    def matches_dn(self, dn: str) -> bool:
        return any(dn_matches(listed, dn) for listed in self.dns)

    def to_line(self) -> str:
        return (f"{self.user} : {','.join(self.dns)} ; "
                f"{','.join(self.groups)} ; {','.join(self.reserved)}")


class UserMap:
    """The parsed user map with DN and group based resolution."""

    def __init__(self, entries: Iterable[UserMapEntry] = ()) -> None:
        self.entries: list[UserMapEntry] = list(entries)

    # -- parsing --------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "UserMap":
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(";")]
            head = parts[0]
            if ":" not in head:
                raise UserMapError(f"line {lineno}: expected 'user : dn,...' but got {head!r}")
            user, _, dn_part = head.partition(":")
            user = user.strip()
            if not user:
                raise UserMapError(f"line {lineno}: empty local user name")
            dns = [d.strip() for d in dn_part.split(",") if d.strip()]
            groups = []
            reserved = []
            if len(parts) > 1:
                groups = [g.strip() for g in parts[1].split(",") if g.strip()]
            if len(parts) > 2:
                reserved = [r.strip() for r in parts[2].split(",") if r.strip()]
            entries.append(UserMapEntry(user=user, dns=dns, groups=groups, reserved=reserved))
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "UserMap":
        path = Path(path)
        if not path.exists():
            return cls([])
        return cls.parse(path.read_text())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        lines = ["# Clarens shell service user map",
                 "# user : dn[,dn...] ; group[,group...] ; reserved"]
        lines.extend(entry.to_line() for entry in self.entries)
        path.write_text("\n".join(lines) + "\n")
        return path

    # -- resolution -------------------------------------------------------------------
    def resolve(self, dn: str,
                group_membership: Callable[[str, str], bool] | None = None) -> str | None:
        """Map a DN to a local user name, or None when unmapped.

        DN entries are checked first (most specific); group entries match when
        ``group_membership(dn, group)`` is true for any listed group.
        """

        for entry in self.entries:
            if entry.matches_dn(dn):
                return entry.user
        if group_membership is not None:
            for entry in self.entries:
                if any(group_membership(dn, group) for group in entry.groups):
                    return entry.user
        return None

    def add(self, entry: UserMapEntry) -> None:
        self.entries.append(entry)

    def users(self) -> list[str]:
        return sorted({entry.user for entry in self.entries})

    def __len__(self) -> int:
        return len(self.entries)
