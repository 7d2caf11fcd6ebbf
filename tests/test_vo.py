"""Virtual Organization management: the model and the RPC service."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.pki.dn import DN
from repro.protocols.errors import Fault
from repro.vo.model import ADMINS_GROUP, VOError, VOManager

ADMIN = "/O=vo.test/OU=People/CN=Root Admin"
LEAD = "/O=vo.test/OU=People/CN=Group Lead"
MEMBER = "/O=vo.test/OU=People/CN=Plain Member"
OUTSIDER = "/O=vo.test/OU=People/CN=Outsider"


@pytest.fixture()
def vo():
    return VOManager(Database(), admins=[ADMIN])


class TestAdminsGroup:
    def test_admins_group_exists_and_contains_config_dns(self, vo):
        group = vo.get_group(ADMINS_GROUP)
        assert ADMIN in group.members
        assert vo.is_admin(ADMIN)
        assert not vo.is_admin(OUTSIDER)

    def test_admins_group_cannot_be_deleted_or_created(self, vo):
        with pytest.raises(VOError):
            vo.delete_group(ADMINS_GROUP)
        with pytest.raises(VOError):
            vo.create_group(ADMINS_GROUP)

    def test_admins_refreshed_from_config(self):
        db = Database()
        VOManager(db, admins=["/O=vo.test/CN=First"])
        refreshed = VOManager(db, admins=["/O=vo.test/CN=Second"])
        assert refreshed.is_admin("/O=vo.test/CN=Second")
        assert not refreshed.is_admin("/O=vo.test/CN=First")


class TestAdminMatching:
    """``is_admin`` keeps its matching rules with cached DN parsing."""

    def test_prefix_exact_and_non_dn_entries(self):
        vo = VOManager(Database(), admins=["/O=vo.test/OU=Admins", ADMIN, "operator"])
        assert vo.is_admin("/O=vo.test/OU=Admins/CN=Any Admin")
        assert vo.is_admin(ADMIN)
        assert vo.is_admin("operator")          # non-DN entry: exact match
        assert not vo.is_admin("operator2")
        assert not vo.is_admin(OUTSIDER)
        assert not vo.is_admin("/O=vo.test/OU=Admins2/CN=Near Miss")

    def test_repeated_checks_do_not_reparse(self, vo, monkeypatch):
        vo.create_group("cms", admins=[LEAD], actor_dn=ADMIN)
        assert vo.is_admin(ADMIN) and vo.is_admin(LEAD, "cms")
        assert not vo.is_admin(OUTSIDER, "cms")
        calls = []
        original = DN.parse
        monkeypatch.setattr(DN, "parse",
                            lambda text: calls.append(text) or original(text))
        for _ in range(10):
            assert vo.is_admin(ADMIN)
            assert vo.is_admin(LEAD, "cms")
            assert not vo.is_admin(OUTSIDER, "cms")
        assert calls == []


class TestGroupTree:
    def test_create_figure2_structure(self, vo):
        # Figure 2: top-level groups A, B, C with second-level A.1, A.2, A.3.
        for name in ("A", "B", "C"):
            vo.create_group(name, actor_dn=ADMIN)
        for name in ("A.1", "A.2", "A.3"):
            vo.create_group(name, actor_dn=ADMIN)
        assert vo.list_groups() == ["A", "A.1", "A.2", "A.3", "B", "C", ADMINS_GROUP]
        assert vo.list_groups("A") == ["A", "A.1", "A.2", "A.3"]
        assert vo.tree()["A"] == {"1": {}, "2": {}, "3": {}}

    def test_parent_must_exist(self, vo):
        with pytest.raises(VOError):
            vo.create_group("cms.higgs", actor_dn=ADMIN)

    def test_duplicate_group_rejected(self, vo):
        vo.create_group("cms", actor_dn=ADMIN)
        with pytest.raises(VOError):
            vo.create_group("cms", actor_dn=ADMIN)

    @pytest.mark.parametrize("bad", ["", "a b", "x..y", "grp/1", ".leading"])
    def test_invalid_names_rejected(self, vo, bad):
        with pytest.raises(VOError):
            vo.create_group(bad, actor_dn=ADMIN)

    def test_delete_requires_recursive_for_subtrees(self, vo):
        vo.create_group("cms", actor_dn=ADMIN)
        vo.create_group("cms.higgs", actor_dn=ADMIN)
        with pytest.raises(VOError):
            vo.delete_group("cms", actor_dn=ADMIN)
        vo.delete_group("cms", actor_dn=ADMIN, recursive=True)
        assert not vo.group_exists("cms.higgs")


class TestMembership:
    def make_tree(self, vo):
        vo.create_group("cms", actor_dn=ADMIN, members=[MEMBER], admins=[LEAD])
        vo.create_group("cms.higgs", actor_dn=ADMIN)
        vo.create_group("cms.higgs.students", actor_dn=ADMIN)
        vo.create_group("atlas", actor_dn=ADMIN)

    def test_higher_level_membership_implies_lower(self, vo):
        self.make_tree(vo)
        # MEMBER belongs to cms, therefore to cms.higgs and cms.higgs.students.
        assert vo.is_member(MEMBER, "cms")
        assert vo.is_member(MEMBER, "cms.higgs")
        assert vo.is_member(MEMBER, "cms.higgs.students")
        assert not vo.is_member(MEMBER, "atlas")

    def test_lower_level_membership_does_not_imply_higher(self, vo):
        self.make_tree(vo)
        vo.add_member("cms.higgs", OUTSIDER, actor_dn=ADMIN)
        assert vo.is_member(OUTSIDER, "cms.higgs")
        assert not vo.is_member(OUTSIDER, "cms")

    def test_dn_prefix_membership(self, vo):
        vo.create_group("everyone", actor_dn=ADMIN, members=["/O=vo.test/OU=People"])
        assert vo.is_member(MEMBER, "everyone")
        assert vo.is_member(OUTSIDER, "everyone")
        assert not vo.is_member("/O=other.org/OU=People/CN=Foreign", "everyone")

    def test_group_admins_count_as_members(self, vo):
        self.make_tree(vo)
        assert vo.is_member(LEAD, "cms")
        assert vo.is_member(LEAD, "cms.higgs")

    def test_groups_for_lists_all_memberships(self, vo):
        self.make_tree(vo)
        assert vo.groups_for(MEMBER) == ["cms", "cms.higgs", "cms.higgs.students"]

    def test_membership_of_unknown_group_is_false(self, vo):
        assert not vo.is_member(MEMBER, "ghosts")


class TestAuthorization:
    def make_tree(self, vo):
        vo.create_group("cms", actor_dn=ADMIN, admins=[LEAD])
        vo.create_group("cms.higgs", actor_dn=ADMIN)

    def test_group_admin_can_manage_members_and_subgroups(self, vo):
        self.make_tree(vo)
        vo.add_member("cms", MEMBER, actor_dn=LEAD)
        assert vo.is_member(MEMBER, "cms")
        vo.remove_member("cms", MEMBER, actor_dn=LEAD)
        assert not vo.is_member(MEMBER, "cms")
        vo.create_group("cms.higgs.ml", actor_dn=LEAD)
        vo.delete_group("cms.higgs.ml", actor_dn=LEAD)

    def test_group_admin_scope_limited_to_branch(self, vo):
        self.make_tree(vo)
        vo.create_group("atlas", actor_dn=ADMIN)
        with pytest.raises(VOError):
            vo.add_member("atlas", MEMBER, actor_dn=LEAD)
        with pytest.raises(VOError):
            vo.create_group("atlas.sub", actor_dn=LEAD)

    def test_plain_member_cannot_administer(self, vo):
        self.make_tree(vo)
        with pytest.raises(VOError):
            vo.add_member("cms", OUTSIDER, actor_dn=MEMBER)
        with pytest.raises(VOError):
            vo.delete_group("cms.higgs", actor_dn=MEMBER)

    def test_admins_group_membership_managed_by_config_only(self, vo):
        with pytest.raises(VOError):
            vo.add_admin(ADMINS_GROUP, OUTSIDER, actor_dn=ADMIN)
        with pytest.raises(VOError):
            vo.remove_admin(ADMINS_GROUP, ADMIN, actor_dn=ADMIN)


class TestVOService:
    def test_rpc_group_lifecycle(self, admin_client, client, alice_credential):
        alice_dn = str(alice_credential.certificate.subject)
        admin_client.call("vo.create_group", "cms", [alice_dn], [], "CMS collaboration")
        admin_client.call("vo.create_group", "cms.higgs", [], [], "")
        assert client.call("vo.is_member", alice_dn, "cms.higgs") is True
        assert "cms" in client.call("vo.my_groups")
        group = client.call("vo.get_group", "cms")
        assert alice_dn in group["members"]

    def test_rpc_requires_authorization(self, client):
        with pytest.raises(Fault):
            client.call("vo.create_group", "rogue", [], [], "")

    def test_rpc_tree_and_admin_queries(self, admin_client):
        admin_client.call("vo.create_group", "ligo", [], [], "")
        tree = admin_client.call("vo.tree")
        assert "ligo" in tree
        assert admin_client.call("vo.is_admin", "", "") is True


# -- property-based: hierarchy monotonicity ------------------------------------------

_group_paths = st.lists(
    st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3).map(lambda parts: ".".join(parts))


@settings(deadline=None, max_examples=30)
@given(st.sets(_group_paths, min_size=1, max_size=8), st.sampled_from(["a", "a.b", "a.b.c", "b"]))
def test_membership_is_monotone_down_the_tree(group_names, member_of):
    """If a DN is a member of G, it is a member of every descendant of G."""

    vo = VOManager(Database(), admins=[ADMIN])
    # Create groups in sorted order so parents exist before children; skip any
    # whose parent was not generated.
    for name in sorted(group_names):
        parent = name.rsplit(".", 1)[0] if "." in name else None
        if parent is not None and not vo.group_exists(parent):
            continue
        vo.create_group(name, actor_dn=ADMIN)
    if not vo.group_exists(member_of):
        return
    dn = "/O=vo.test/OU=People/CN=Prop Member"
    vo.add_member(member_of, dn, actor_dn=ADMIN)
    for name in vo.list_groups():
        if name == ADMINS_GROUP:
            continue
        if name == member_of or name.startswith(member_of + "."):
            assert vo.is_member(dn, name)
