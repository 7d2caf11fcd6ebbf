"""The VO group tree.

Group names are dotted paths (``cms``, ``cms.higgs``, ``cms.higgs.students``)
mirroring Figure 2 of the paper (top-level groups A, B, C with second-level
A.1, A.2, A.3).  The special root group ``admins`` is (re)populated from the
server configuration on every construction, exactly as the paper describes,
and its members may create and delete groups at all levels.

Membership semantics reproduced from the paper:

* each group has a ``members`` list and an ``admins`` list of DNs;
* "group members of higher level groups are automatically members of lower
  level groups in the same branch" — membership of ``cms`` implies
  membership of ``cms.higgs``;
* a listed DN may be a *prefix*: listing ``/O=doesciencegrid.org/OU=People``
  admits every individual certificate issued under that branch;
* group administrators may add/remove members and manage groups at lower
  levels of their branch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.database import Database
from repro.pki.dn import dn_matches

__all__ = ["Group", "VOManager", "VOError", "ADMINS_GROUP"]

ADMINS_GROUP = "admins"


class VOError(Exception):
    """Raised for invalid VO operations (unknown groups, permission errors)."""


def _validate_group_name(name: str) -> str:
    name = name.strip()
    if not name:
        raise VOError("group names must be non-empty")
    for part in name.split("."):
        if not part or not all(ch.isalnum() or ch in "-_" for ch in part):
            raise VOError(f"invalid group name component {part!r} in {name!r}")
    return name


@dataclass
class Group:
    """One VO group: two DN lists plus bookkeeping."""

    name: str
    members: list[str] = field(default_factory=list)
    admins: list[str] = field(default_factory=list)
    created: float = field(default_factory=time.time)
    description: str = ""

    @property
    def parent_name(self) -> str | None:
        if "." not in self.name:
            return None
        return self.name.rsplit(".", 1)[0]

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "members": list(self.members),
            "admins": list(self.admins),
            "created": self.created,
            "description": self.description,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Group":
        return cls(
            name=record["name"],
            members=list(record.get("members", [])),
            admins=list(record.get("admins", [])),
            created=float(record.get("created", 0.0)),
            description=record.get("description", ""),
        )


class VOManager:
    """Manages the VO group tree, cached in the database.

    All state lives in the ``vo_groups`` table so that, like the original
    server, the group structure survives restarts while the ``admins`` group
    itself is refreshed from configuration each time.
    """

    def __init__(self, database: Database, *, admins: Iterable[str] = ()) -> None:
        self._db = database
        self._table = database.table("vo_groups")
        self._table.create_index("name", unique=True)
        #: Called (no arguments) after every group mutation.  The server uses
        #: it to flush cached ACL decisions, which depend on group membership.
        self.on_change: "Callable[[], None] | None" = None
        # The admins group is populated statically from the configuration on
        # each server restart (paper, section 2.1).
        admin_list = [str(a) for a in admins]
        existing = self._table.get(ADMINS_GROUP, None)
        record = Group(
            name=ADMINS_GROUP,
            members=admin_list,
            admins=admin_list,
            description="server administrators (from configuration)",
            created=existing.get("created", time.time()) if existing else time.time(),
        )
        self._table.put(ADMINS_GROUP, record.to_record())

    # -- lookups -------------------------------------------------------------
    def get_group(self, name: str) -> Group:
        record = self._table.get(_validate_group_name(name), None)
        if record is None:
            raise VOError(f"no such group: {name!r}")
        return Group.from_record(record)

    def group_exists(self, name: str) -> bool:
        try:
            return self._table.get(_validate_group_name(name), None) is not None
        except VOError:
            return False

    def list_groups(self, prefix: str | None = None) -> list[str]:
        names = sorted(r["name"] for r in self._table.all())
        if prefix is None:
            return names
        prefix = _validate_group_name(prefix)
        return [n for n in names if n == prefix or n.startswith(prefix + ".")]

    def tree(self) -> dict:
        """The group tree as nested dicts (used by the portal component)."""

        root: dict = {}
        for name in self.list_groups():
            node = root
            for part in name.split("."):
                node = node.setdefault(part, {})
        return root

    # -- membership ----------------------------------------------------------
    def _ancestors(self, name: str) -> list[str]:
        """The group and every ancestor, most specific first."""

        parts = name.split(".")
        return [".".join(parts[:i]) for i in range(len(parts), 0, -1)]

    def is_admin(self, dn: str, group_name: str | None = None) -> bool:
        """True when ``dn`` administers ``group_name`` (or the server, if None).

        Server admins (the root ``admins`` group) administer everything.
        Group admins administer their group and every group below it.
        """

        admins_group = self.get_group(ADMINS_GROUP)
        if any(dn_matches(listed, dn) for listed in admins_group.members + admins_group.admins):
            return True
        if group_name is None:
            return False
        for ancestor in self._ancestors(_validate_group_name(group_name)):
            if not self.group_exists(ancestor):
                continue
            group = self.get_group(ancestor)
            if any(dn_matches(listed, dn) for listed in group.admins):
                return True
        return False

    def is_member(self, dn: str, group_name: str) -> bool:
        """True when ``dn`` is a member of ``group_name``.

        Membership of any *ancestor* group implies membership of the group
        (higher-level members are automatically members of lower-level groups
        in the same branch); administrators of a group count as members.
        """

        group_name = _validate_group_name(group_name)
        if not self.group_exists(group_name):
            return False
        for ancestor in self._ancestors(group_name):
            if not self.group_exists(ancestor):
                continue
            group = self.get_group(ancestor)
            if any(dn_matches(listed, dn) for listed in group.members):
                return True
            if any(dn_matches(listed, dn) for listed in group.admins):
                return True
        return False

    def groups_for(self, dn: str) -> list[str]:
        """All group names ``dn`` belongs to (including via hierarchy/prefix)."""

        return [name for name in self.list_groups() if self.is_member(dn, name)]

    # -- mutation -------------------------------------------------------------
    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def _require_admin(self, actor_dn: str | None, group_name: str) -> None:
        if actor_dn is None:
            return  # internal calls (server bootstrap) skip authorization
        parent = group_name.rsplit(".", 1)[0] if "." in group_name else None
        if self.is_admin(actor_dn, group_name):
            return
        if parent is not None and self.is_admin(actor_dn, parent):
            return
        raise VOError(f"{actor_dn} is not authorized to administer group {group_name!r}")

    def create_group(self, name: str, *, actor_dn: str | None = None,
                     members: Sequence[str] = (), admins: Sequence[str] = (),
                     description: str = "") -> Group:
        name = _validate_group_name(name)
        if name == ADMINS_GROUP:
            raise VOError("the admins group is managed by the server configuration")
        if self.group_exists(name):
            raise VOError(f"group {name!r} already exists")
        parent = name.rsplit(".", 1)[0] if "." in name else None
        if parent is not None and not self.group_exists(parent):
            raise VOError(f"parent group {parent!r} does not exist")
        self._require_admin(actor_dn, name)
        group = Group(name=name, members=[str(m) for m in members],
                      admins=[str(a) for a in admins], description=description)
        self._table.put(name, group.to_record())
        self._notify()
        return group

    def delete_group(self, name: str, *, actor_dn: str | None = None,
                     recursive: bool = False) -> None:
        name = _validate_group_name(name)
        if name == ADMINS_GROUP:
            raise VOError("the admins group cannot be deleted")
        if not self.group_exists(name):
            raise VOError(f"no such group: {name!r}")
        self._require_admin(actor_dn, name)
        children = [g for g in self.list_groups(name) if g != name]
        if children and not recursive:
            raise VOError(f"group {name!r} has sub-groups; delete them first or pass recursive")
        for child in children:
            self._table.delete(child)
        self._table.delete(name)
        self._notify()

    def add_member(self, group_name: str, dn: str, *, actor_dn: str | None = None) -> None:
        group_name = _validate_group_name(group_name)
        self._require_admin(actor_dn, group_name)
        group = self.get_group(group_name)
        if dn not in group.members:
            group.members.append(str(dn))
            self._table.put(group_name, group.to_record())
            self._notify()

    def remove_member(self, group_name: str, dn: str, *, actor_dn: str | None = None) -> None:
        group_name = _validate_group_name(group_name)
        self._require_admin(actor_dn, group_name)
        group = self.get_group(group_name)
        if dn in group.members:
            group.members.remove(dn)
            self._table.put(group_name, group.to_record())
            self._notify()

    def add_admin(self, group_name: str, dn: str, *, actor_dn: str | None = None) -> None:
        group_name = _validate_group_name(group_name)
        if group_name == ADMINS_GROUP:
            raise VOError("the admins group is managed by the server configuration")
        self._require_admin(actor_dn, group_name)
        group = self.get_group(group_name)
        if dn not in group.admins:
            group.admins.append(str(dn))
            self._table.put(group_name, group.to_record())
            self._notify()

    def remove_admin(self, group_name: str, dn: str, *, actor_dn: str | None = None) -> None:
        group_name = _validate_group_name(group_name)
        if group_name == ADMINS_GROUP:
            raise VOError("the admins group is managed by the server configuration")
        self._require_admin(actor_dn, group_name)
        group = self.get_group(group_name)
        if dn in group.admins:
            group.admins.remove(dn)
            self._table.put(group_name, group.to_record())
            self._notify()
