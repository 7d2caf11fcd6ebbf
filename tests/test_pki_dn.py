"""Distinguished-name parsing, formatting and prefix matching."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.pki import dn as dn_module
from repro.pki.dn import DN, DNParseError, RDN, dn_matches

PEOPLE_DN = "/O=doesciencegrid.org/OU=People/CN=John Smith 12345"
SERVICE_DN = "/O=doesciencegrid.org/OU=Services/CN=host/www.mysite.edu"


class TestParsing:
    def test_parse_paper_example_person(self):
        dn = DN.parse(PEOPLE_DN)
        assert dn.organization == "doesciencegrid.org"
        assert dn.first_value("OU") == "People"
        assert dn.common_name == "John Smith 12345"

    def test_parse_paper_example_service_with_slash_in_cn(self):
        # The host DN ends in CN=host/www.mysite.edu; the escaped form
        # round-trips explicitly.
        dn = DN.parse("/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu")
        assert dn.common_name == "host/www.mysite.edu"
        assert dn.is_service_dn()

    def test_parse_unescaped_host_dn_round_trips(self):
        # str(DN) does not escape slashes, and Globus host DNs carry one in
        # the CN routinely — a component without '=' therefore belongs to
        # the previous value, so parse(str(dn)) round-trips host identities
        # (the fabric authenticates peer channels with exactly these).
        text = "/O=doesciencegrid.org/OU=Services/CN=host/www.mysite.edu"
        dn = DN.parse(text)
        assert dn.common_name == "host/www.mysite.edu"
        assert str(dn) == text
        assert DN.parse(str(dn)) == dn

    def test_str_round_trip(self):
        dn = DN.parse(PEOPLE_DN)
        assert DN.parse(str(dn)) == dn

    def test_parse_doegrids_style(self):
        dn = DN.parse("/DC=org/DC=doegrids/OU=People/CN=Joe User")
        assert dn.values("DC") == ["org", "doegrids"]

    def test_order_is_significant(self):
        assert DN.parse("/O=x/OU=y") != DN.parse("/OU=y/O=x")

    def test_keys_case_insensitive_for_known_attributes(self):
        assert DN.parse("/o=cern.ch/cn=alice") == DN.parse("/O=cern.ch/CN=alice")

    def test_values_are_case_sensitive(self):
        assert DN.parse("/O=cern.ch/CN=alice") != DN.parse("/O=cern.ch/CN=Alice")

    @pytest.mark.parametrize("bad", [
        "", "   ", "no-leading-slash/O=x", "/O=x/", "/O=x//CN=y", "/O=", "/=value",
        "/Ox", "/O=x\\",
    ])
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(DNParseError):
            DN.parse(bad)

    def test_parse_requires_string(self):
        with pytest.raises(DNParseError):
            DN.parse(123)  # type: ignore[arg-type]

    def test_coerce_accepts_dn_and_string(self):
        dn = DN.parse(PEOPLE_DN)
        assert DN.coerce(dn) is dn
        assert DN.coerce(PEOPLE_DN) == dn

    def test_empty_component_list_rejected(self):
        with pytest.raises(DNParseError):
            DN([])


class TestHierarchy:
    def test_prefix_admits_all_people(self):
        prefix = DN.parse("/O=doesciencegrid.org/OU=People")
        assert prefix.is_prefix_of(PEOPLE_DN)
        assert DN.parse(PEOPLE_DN).matches(prefix)

    def test_prefix_does_not_admit_services(self):
        prefix = DN.parse("/O=doesciencegrid.org/OU=People")
        assert not prefix.is_prefix_of(
            "/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu")

    def test_dn_is_prefix_of_itself(self):
        dn = DN.parse(PEOPLE_DN)
        assert dn.is_prefix_of(dn)

    def test_longer_dn_is_not_prefix_of_shorter(self):
        assert not DN.parse(PEOPLE_DN).is_prefix_of("/O=doesciencegrid.org")

    def test_parent_and_child(self):
        dn = DN.parse("/O=cern.ch/CN=alice")
        assert dn.parent() == DN.parse("/O=cern.ch")
        assert dn.parent().parent() is None
        assert dn.child("CN", "proxy") == DN.parse("/O=cern.ch/CN=alice/CN=proxy")

    def test_service_dn_detection(self):
        assert DN.parse("/O=x/OU=Services/CN=web").is_service_dn()
        assert DN.parse("/O=x/CN=host\\/node1.example").is_service_dn()
        assert not DN.parse(PEOPLE_DN).is_service_dn()


class TestDunder:
    def test_hashable_and_usable_as_dict_key(self):
        mapping = {DN.parse(PEOPLE_DN): 1}
        assert mapping[DN.parse(PEOPLE_DN)] == 1

    def test_equality_with_string(self):
        assert DN.parse(PEOPLE_DN) == PEOPLE_DN

    def test_len_and_iter(self):
        dn = DN.parse(PEOPLE_DN)
        assert len(dn) == 3
        assert [r.key for r in dn] == ["O", "OU", "CN"]

    def test_rdn_str(self):
        assert str(RDN("CN", "alice")) == "CN=alice"


# -- property-based tests ------------------------------------------------------

_value_st = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" .-_@"),
    min_size=1, max_size=20,
).filter(lambda s: s.strip() == s and s.strip())
_key_st = st.sampled_from(["O", "OU", "CN", "DC", "C", "L", "ST", "UID"])
_rdns_st = st.lists(st.tuples(_key_st, _value_st), min_size=1, max_size=6)


@given(_rdns_st)
def test_format_parse_round_trip(rdns):
    dn = DN(rdns)
    assert DN.parse(str(dn)) == dn


@given(_rdns_st, st.lists(st.tuples(_key_st, _value_st), min_size=0, max_size=3))
def test_prefix_property(rdns, extra):
    base = DN(rdns)
    extended = DN(list(rdns) + list(extra))
    assert base.is_prefix_of(extended)
    # And the extension is only a prefix of the base when nothing was added.
    assert extended.is_prefix_of(base) == (len(extra) == 0)


@given(_rdns_st)
def test_parent_reduces_length(rdns):
    dn = DN(rdns)
    parent = dn.parent()
    if len(dn) == 1:
        assert parent is None
    else:
        assert parent is not None and len(parent) == len(dn) - 1
        assert parent.is_prefix_of(dn)


class TestDNMatches:
    """The one prefix-membership rule behind VO, ACL and user-map checks."""

    def test_prefix_and_exact(self):
        assert dn_matches("/O=doesciencegrid.org/OU=People", PEOPLE_DN)
        assert dn_matches(PEOPLE_DN, PEOPLE_DN)
        assert not dn_matches(PEOPLE_DN, "/O=doesciencegrid.org/OU=People")
        assert not dn_matches("/O=doesciencegrid.org/OU=Services", PEOPLE_DN)

    def test_equal_dns_in_different_spellings_match(self):
        assert dn_matches("/o=doesciencegrid.org/ou=People", PEOPLE_DN)

    def test_non_dn_strings_match_only_exactly(self):
        assert dn_matches("alice", "alice")
        assert not dn_matches("alice", "/O=x/CN=alice")
        assert not dn_matches("/O=x", "alice")
        assert not dn_matches("no-slash", "no-slash-either")

    def test_non_strings_never_match_a_different_value(self):
        assert not dn_matches(None, PEOPLE_DN)  # type: ignore[arg-type]
        assert not dn_matches(PEOPLE_DN, 42)  # type: ignore[arg-type]
        assert dn_matches(PEOPLE_DN, DN.parse(PEOPLE_DN))  # type: ignore[arg-type]

    def test_repeated_matches_parse_once(self, monkeypatch):
        prefix = "/O=cache.test/OU=People"
        subject = prefix + "/CN=Repeat Caller"
        assert dn_matches(prefix, subject)
        calls = []
        original = DN.parse

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(DN, "parse", counting)
        for _ in range(5):
            assert dn_matches(prefix, subject)
            assert not dn_matches(subject, prefix)
        assert calls == []

    def test_parse_cache_is_bounded(self):
        size = dn_module.PARSE_CACHE_SIZE
        for i in range(size + 50):
            assert dn_matches("/O=bound.test", f"/O=bound.test/CN=User {i}")
        info = dn_module._parse_cached.cache_info()
        assert info.maxsize == size
        assert info.currsize <= size
