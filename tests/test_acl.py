"""Access-control lists: single-ACL evaluation, hierarchy, file ACLs, service."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.acl.evaluator import ACLManager
from repro.acl.model import ACL, ACLError, FileACL, Order, Verdict
from repro.database import Database
from repro.pki.dn import DN
from repro.protocols.errors import Fault
from repro.vo.model import VOManager

ADMIN = "/O=acl.test/OU=People/CN=Acl Admin"
ALICE = "/O=acl.test/OU=People/CN=Alice"
BOB = "/O=acl.test/OU=People/CN=Bob"
CAROL = "/O=acl.test/OU=Staff/CN=Carol"


def make_manager(**kwargs):
    db = Database()
    vo = VOManager(db, admins=[ADMIN])
    vo.create_group("cms", members=[ALICE], actor_dn=ADMIN)
    vo.create_group("cms.admins", members=[BOB], actor_dn=ADMIN)
    manager = ACLManager(db, membership=vo.is_member, is_admin=lambda dn: vo.is_admin(dn),
                         **kwargs)
    return manager, vo


class TestSingleACL:
    def no_groups(self, group):
        return False

    def test_dn_allow(self):
        acl = ACL(order="allow,deny", dns_allowed=[ALICE])
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.ALLOW
        assert acl.evaluate(BOB, self.no_groups) is Verdict.ABSTAIN

    def test_dn_deny(self):
        acl = ACL(order="allow,deny", dns_denied=[BOB])
        assert acl.evaluate(BOB, self.no_groups) is Verdict.DENY

    def test_allow_deny_order_deny_wins_on_both(self):
        acl = ACL(order="allow,deny", dns_allowed=[ALICE], dns_denied=[ALICE])
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.DENY

    def test_deny_allow_order_allow_wins_on_both(self):
        acl = ACL(order="deny,allow", dns_allowed=[ALICE], dns_denied=[ALICE])
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.ALLOW

    def test_dn_prefix_matches(self):
        acl = ACL(dns_allowed=["/O=acl.test/OU=People"])
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.ALLOW
        assert acl.evaluate(CAROL, self.no_groups) is Verdict.ABSTAIN

    def test_wildcard_matches_everyone(self):
        acl = ACL.allow_all()
        assert acl.evaluate("/O=anything/CN=whoever", self.no_groups) is Verdict.ALLOW

    def test_exact_match_and_non_dn_entries(self):
        acl = ACL(dns_allowed=["operator", ALICE])
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.ALLOW
        assert acl.evaluate("operator", self.no_groups) is Verdict.ALLOW
        assert acl.evaluate("/O=acl.test/CN=operator", self.no_groups) is Verdict.ABSTAIN
        # A malformed entry never matches a different DN, nor breaks the list.
        acl = ACL(dns_denied=["not a dn", "/O=acl.test/OU=Staff"])
        assert acl.evaluate(CAROL, self.no_groups) is Verdict.DENY
        assert acl.evaluate(ALICE, self.no_groups) is Verdict.ABSTAIN

    def test_wildcard_matches_non_dn_callers(self):
        acl = ACL(dns_allowed=["*"])
        assert acl.evaluate("not a dn", self.no_groups) is Verdict.ALLOW

    def test_group_lists_consult_membership_callback(self):
        acl = ACL(groups_allowed=["cms"], groups_denied=["banned"])
        assert acl.evaluate(ALICE, lambda g: g == "cms") is Verdict.ALLOW
        assert acl.evaluate(ALICE, lambda g: g == "banned") is Verdict.DENY
        assert acl.evaluate(ALICE, lambda g: False) is Verdict.ABSTAIN

    def test_order_parse_variants_and_errors(self):
        assert Order.parse("Allow, Deny") is Order.ALLOW_DENY
        assert Order.parse("deny,allow") is Order.DENY_ALLOW
        with pytest.raises(ACLError):
            Order.parse("first-come-first-served")

    def test_record_round_trip(self):
        acl = ACL(order="deny,allow", dns_allowed=[ALICE], groups_denied=["x"])
        assert ACL.from_record(acl.to_record()).to_record() == acl.to_record()

    def test_file_acl_operations(self):
        facl = FileACL(read=ACL.allow_all(), write=ACL(dns_allowed=[ALICE]))
        assert facl.acl_for("read").evaluate(BOB, lambda g: False) is Verdict.ALLOW
        assert facl.acl_for("write").evaluate(BOB, lambda g: False) is Verdict.ABSTAIN
        with pytest.raises(ACLError):
            facl.acl_for("execute")
        assert FileACL.from_record(facl.to_record()).to_record() == facl.to_record()


class TestHierarchicalEvaluation:
    def test_default_allows_authenticated_when_no_acl(self):
        manager, _ = make_manager()
        assert manager.check_method(ALICE, "file.read").allowed

    def test_default_deny_mode(self):
        manager, _ = make_manager(default_allow_authenticated=False)
        assert not manager.check_method(ALICE, "file.read").allowed

    def test_grant_at_module_level_covers_methods(self):
        manager, _ = make_manager(default_allow_authenticated=False)
        manager.set_method_acl("file", ACL(groups_allowed=["cms"]))
        assert manager.check_method(ALICE, "file.read").allowed
        assert manager.check_method(ALICE, "file.sub.deep.read").allowed
        assert not manager.check_method(CAROL, "file.read").allowed

    def test_specific_deny_overrides_higher_level_grant(self):
        # "A DN or group granted access to a higher level method automatically
        # has access to a lower level method, unless specifically denied at
        # the lower level."
        manager, _ = make_manager()
        manager.set_method_acl("file", ACL(groups_allowed=["cms"]))
        manager.set_method_acl("file.delete", ACL(order="allow,deny", dns_denied=[ALICE]))
        assert manager.check_method(ALICE, "file.read").allowed
        decision = manager.check_method(ALICE, "file.delete")
        assert not decision.allowed and decision.decided_by == "file.delete"

    def test_specific_allow_overrides_higher_level_deny(self):
        manager, _ = make_manager()
        manager.set_method_acl("job", ACL(order="allow,deny", dns_denied=[BOB]))
        manager.set_method_acl("job.status", ACL(dns_allowed=[BOB]))
        assert manager.check_method(BOB, "job.status").allowed
        assert not manager.check_method(BOB, "job.submit").allowed

    def test_protected_hierarchy_denies_unlisted_dn(self):
        manager, _ = make_manager()
        manager.set_method_acl("vo", ACL(dns_allowed=[BOB]))
        decision = manager.check_method(CAROL, "vo.create_group")
        assert not decision.allowed
        assert "no applicable ACL" in decision.reason

    def test_repeated_method_checks_do_not_reparse(self, monkeypatch):
        manager, _ = make_manager(default_allow_authenticated=False)
        manager.set_method_acl("vo", ACL(dns_allowed=["/O=acl.test/OU=People"],
                                         dns_denied=[BOB], order="allow,deny"))
        assert manager.check_method(ALICE, "vo.create_group").allowed
        assert not manager.check_method(BOB, "vo.create_group").allowed
        calls = []
        original = DN.parse
        monkeypatch.setattr(DN, "parse",
                            lambda text: calls.append(text) or original(text))
        for _ in range(10):
            assert manager.check_method(ALICE, "vo.create_group").allowed
            assert not manager.check_method(BOB, "vo.create_group").allowed
        assert calls == []

    def test_server_admin_always_allowed(self):
        manager, _ = make_manager(default_allow_authenticated=False)
        manager.set_method_acl("file", ACL(dns_denied=[ADMIN], order="allow,deny"))
        assert manager.check_method(ADMIN, "file.read").allowed

    def test_file_acl_hierarchy_and_rw_split(self):
        manager, _ = make_manager(default_allow_authenticated=False)
        manager.set_file_acl("/data", FileACL(read=ACL(groups_allowed=["cms"]),
                                              write=ACL(dns_allowed=[BOB])))
        assert manager.check_file(ALICE, "/data/cms/run1.root", "read").allowed
        assert not manager.check_file(ALICE, "/data/cms/run1.root", "write").allowed
        assert manager.check_file(BOB, "/data/new.root", "write").allowed
        assert not manager.check_file(CAROL, "/data/run1.root", "read").allowed

    def test_file_deny_at_lower_path_level(self):
        manager, _ = make_manager()
        manager.set_file_acl("/", FileACL(read=ACL.allow_all(), write=ACL.allow_all()))
        manager.set_file_acl("/private", FileACL(read=ACL(order="allow,deny", dns_denied=[ALICE]),
                                                 write=ACL(order="allow,deny", dns_denied=[ALICE])))
        assert manager.check_file(ALICE, "/public/x.txt", "read").allowed
        assert not manager.check_file(ALICE, "/private/x.txt", "read").allowed

    def test_invalid_operation_rejected(self):
        manager, _ = make_manager()
        with pytest.raises(ACLError):
            manager.check_file(ALICE, "/x", "execute")

    def test_duplicate_slashes_see_same_acls(self):
        # "/data//cms/run1.root" must walk the same hierarchy levels as its
        # normalized spelling, so an ACL on /data/cms is not skipped.
        manager, _ = make_manager(default_allow_authenticated=False)
        manager.set_file_acl("/data/cms", FileACL(read=ACL(dns_allowed=[ALICE]),
                                                  write=ACL()))
        assert manager.check_file(ALICE, "/data//cms/run1.root", "read").allowed
        assert manager.check_file(ALICE, "/data/cms/run1.root/", "read").allowed
        assert not manager.check_file(ALICE, "//elsewhere//x", "read").allowed

    def test_file_acl_keys_are_normalized_on_write(self):
        manager, _ = make_manager()
        manager.set_file_acl("/data//cms/", FileACL(read=ACL(dns_allowed=[ALICE]),
                                                    write=ACL()))
        assert list(manager.list_file_acls()) == ["/data/cms"]
        assert manager.get_file_acl("/data/cms") is not None
        assert manager.get_file_acl("//data//cms") is not None
        assert manager.remove_file_acl("/data/cms/")
        assert manager.list_file_acls() == {}

    def test_persisted_unnormalized_keys_are_swept_on_open(self):
        # Records stored under duplicate-slash keys by older versions are
        # re-keyed when the manager opens the table, so they stay enforced.
        db = Database()
        db.table("acl_files").put("/data//secret",
                                  FileACL(read=ACL(dns_allowed=[ALICE]),
                                          write=ACL()).to_record())
        vo = VOManager(db, admins=[ADMIN])
        manager = ACLManager(db, membership=vo.is_member,
                             is_admin=lambda dn: vo.is_admin(dn),
                             default_allow_authenticated=False)
        assert list(manager.list_file_acls()) == ["/data/secret"]
        assert manager.check_file(ALICE, "/data/secret/x", "read").allowed
        assert manager.remove_file_acl("/data/secret")

    def test_method_level_rejects_empty_segments(self):
        manager, _ = make_manager()
        for bad in ("", ".file", "file.", "a..b", "a...b", "."):
            with pytest.raises(ACLError):
                manager.set_method_acl(bad, ACL.allow_all())
        manager.set_method_acl("a.b", ACL.allow_all())
        assert manager.get_method_acl("a.b") is not None

    def test_acl_administration_requires_admin(self):
        manager, _ = make_manager()
        with pytest.raises(ACLError):
            manager.set_method_acl("file", ACL.allow_all(), actor_dn=ALICE)
        manager.set_method_acl("file", ACL.allow_all(), actor_dn=ADMIN)
        assert manager.get_method_acl("file") is not None
        assert manager.remove_method_acl("file", actor_dn=ADMIN)

    def test_list_acls(self):
        manager, _ = make_manager()
        manager.set_method_acl("file", ACL.allow_all())
        manager.set_file_acl("/data", FileACL())
        assert "file" in manager.list_method_acls()
        assert "/data" in manager.list_file_acls()


class TestACLService:
    def test_admin_sets_and_queries_acls_over_rpc(self, admin_client, client, alice_credential):
        alice_dn = str(alice_credential.certificate.subject)
        admin_client.call("acl.set_method_acl", "shell",
                          ACL(dns_allowed=[alice_dn]).to_record())
        decision = client.call("acl.check_method", "shell.cmd", "")
        assert decision["allowed"] is True
        listed = admin_client.call("acl.list_method_acls")
        assert "shell" in listed
        assert admin_client.call("acl.remove_method_acl", "shell") is True

    def test_non_admin_cannot_set_acls(self, client):
        with pytest.raises(Fault):
            client.call("acl.set_method_acl", "file", ACL.allow_all().to_record())

    def test_file_acl_rpc_round_trip(self, admin_client):
        facl = FileACL(read=ACL.allow_all(), write=ACL(dns_allowed=[ADMIN]))
        admin_client.call("acl.set_file_acl", "/secure",
                          facl.read.to_record(), facl.write.to_record())
        fetched = admin_client.call("acl.get_file_acl", "/secure")
        assert fetched["write"]["dns_allowed"] == [ADMIN]
        check = admin_client.call("acl.check_file", "/secure/report.txt", "write", ADMIN)
        assert check["allowed"] is True


# -- property-based: hierarchy invariants -----------------------------------------------

_levels = ["svc", "svc.sub", "svc.sub.method"]


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(st.sampled_from(_levels),
                    st.sampled_from(["allow", "deny", "none"]), min_size=1, max_size=3))
def test_most_specific_configured_level_decides(assignment):
    """The lowest applicable level with an explicit match decides the outcome."""

    manager, _ = make_manager()
    dn = ALICE
    for level, kind in assignment.items():
        if kind == "allow":
            manager.set_method_acl(level, ACL(dns_allowed=[dn]))
        elif kind == "deny":
            manager.set_method_acl(level, ACL(order="allow,deny", dns_denied=[dn]))
        else:
            manager.set_method_acl(level, ACL(dns_allowed=["/O=someone/CN=else"]))
    decision = manager.check_method(dn, "svc.sub.method")
    # Reference evaluation: walk most-specific-first and stop at the first
    # explicit match for the DN.
    expected = None
    for level in reversed(_levels):
        kind = assignment.get(level)
        if kind in ("allow", "deny"):
            expected = (kind == "allow")
            break
    if expected is None:
        expected = False  # ACLs exist but none match this DN -> deny
    assert decision.allowed == expected
