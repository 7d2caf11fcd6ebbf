"""Method registry and the authenticator."""

from __future__ import annotations

import threading

import pytest

from repro.core import auth as auth_module
from repro.core.auth import Authenticator
from repro.core.errors import AuthenticationError, NotFoundError
from repro.core.registry import MethodRegistry
from repro.core.session import SessionManager
from repro.database import Database
from repro.pki.authority import CertificateAuthority
from repro.pki.proxy import issue_proxy


class TestMethodRegistry:
    def test_register_and_lookup(self):
        registry = MethodRegistry()
        registry.register("math.add", lambda a, b: a + b, help="Add two numbers")
        method = registry.lookup("math.add")
        assert method.func(2, 3) == 5
        assert method.help == "Add two numbers"
        assert "math.add" in registry and len(registry) == 1

    def test_lookup_unknown_raises(self):
        with pytest.raises(NotFoundError):
            MethodRegistry().lookup("no.such.method")

    def test_invalid_names_rejected(self):
        registry = MethodRegistry()
        for bad in ("", ".x", "x."):
            with pytest.raises(ValueError):
                registry.register(bad, lambda: None)

    def test_signature_inferred_and_ctx_hidden(self):
        registry = MethodRegistry()

        def handler(ctx, filename, offset=0):
            return None

        registry.register("file.read", handler)
        assert registry.method_signature("file.read") == "(filename, offset)"

    def test_help_from_docstring(self):
        registry = MethodRegistry()

        def documented():
            """Does the thing."""

        registry.register("svc.doc", documented)
        assert registry.method_help("svc.doc") == "Does the thing."

    def test_list_methods_sorted_and_db_backed(self):
        db = Database()
        registry = MethodRegistry(db)
        for name in ("zeta.last", "alpha.first", "mid.dle"):
            registry.register(name, lambda: None)
        assert registry.list_methods() == ["alpha.first", "mid.dle", "zeta.last"]
        # The names really live in the database table.
        assert len(db.table("methods")) == 3

    def test_unregister_removes_from_db(self):
        db = Database()
        registry = MethodRegistry(db)
        registry.register("a.b", lambda: None)
        assert registry.unregister("a.b")
        assert not registry.unregister("a.b")
        assert len(db.table("methods")) == 0

    def test_modules_and_methods_for_module(self):
        registry = MethodRegistry()
        for name in ("file.read", "file.ls", "system.echo"):
            registry.register(name, lambda: None)
        assert registry.modules() == ["file", "system"]
        assert registry.methods_for_module("file") == ["file.ls", "file.read"]

    def test_cache_method_list_skips_rebuild(self):
        registry = MethodRegistry(Database(), cache_method_list=True)
        registry.register("a.one", lambda: None)
        first = registry.list_methods()
        # Mutating after the first call invalidates the cache.
        registry.register("b.two", lambda: None)
        assert registry.list_methods() == ["a.one", "b.two"]
        assert first == ["a.one"]

    def test_describe_contains_metadata(self):
        registry = MethodRegistry()
        registry.register("svc.m", lambda: None, anonymous=True, service="svc")
        entry = registry.describe()[0]
        assert entry["anonymous"] is True and entry["service"] == "svc"


@pytest.fixture(scope="module")
def auth_pki():
    ca = CertificateAuthority("/O=auth.test/CN=Auth CA", key_bits=512)
    return {"ca": ca, "user": ca.issue_user("Andy Auth")}


@pytest.fixture()
def authenticator(auth_pki):
    return Authenticator(SessionManager(Database()), auth_pki["ca"].trust_store(),
                         revoked_serials=auth_pki["ca"].crl())


class TestAuthenticator:
    def test_challenge_response_login(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        nonce = authenticator.issue_challenge(dn)
        session = authenticator.login_with_signature(
            dn, user.private_key.sign(nonce.encode()), list(user.full_chain()))
        assert session.dn == dn
        assert authenticator.sessions.validate(session.session_id).dn == dn

    def test_challenge_consumed_after_use(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        nonce = authenticator.issue_challenge(dn)
        signature = user.private_key.sign(nonce.encode())
        authenticator.login_with_signature(dn, signature, list(user.full_chain()))
        with pytest.raises(AuthenticationError, match="challenge"):
            authenticator.login_with_signature(dn, signature, list(user.full_chain()))

    def test_wrong_signature_rejected(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        authenticator.issue_challenge(dn)
        with pytest.raises(AuthenticationError, match="signature"):
            authenticator.login_with_signature(dn, 12345, list(user.full_chain()))

    def test_untrusted_chain_rejected(self, authenticator):
        rogue = CertificateAuthority("/O=auth.test/CN=Rogue", key_bits=512)
        mallory = rogue.issue_user("Mallory")
        dn = str(mallory.certificate.subject)
        nonce = authenticator.issue_challenge(dn)
        with pytest.raises(AuthenticationError, match="verification failed"):
            authenticator.login_with_signature(
                dn, mallory.private_key.sign(nonce.encode()), list(mallory.full_chain()))

    def test_dn_mismatch_rejected(self, authenticator, auth_pki):
        user = auth_pki["user"]
        impostor_dn = "/O=auth.test/OU=People/CN=Somebody Else"
        nonce = authenticator.issue_challenge(impostor_dn)
        with pytest.raises(AuthenticationError):
            authenticator.login_with_signature(
                impostor_dn, user.private_key.sign(nonce.encode()), list(user.full_chain()))

    def test_no_challenge_outstanding(self, authenticator, auth_pki):
        user = auth_pki["user"]
        with pytest.raises(AuthenticationError, match="challenge"):
            authenticator.login_with_signature(str(user.certificate.subject), 1,
                                               list(user.full_chain()))

    def test_revoked_certificate_rejected(self, auth_pki):
        ca = auth_pki["ca"]
        revoked = ca.issue_user("Revoked Randy")
        ca.revoke(revoked.certificate)
        authenticator = Authenticator(SessionManager(Database()), ca.trust_store(),
                                      revoked_serials=ca.crl())
        dn = str(revoked.certificate.subject)
        nonce = authenticator.issue_challenge(dn)
        with pytest.raises(AuthenticationError):
            authenticator.login_with_signature(
                dn, revoked.private_key.sign(nonce.encode()), list(revoked.full_chain()))

    def test_proxy_login_authenticates_owner(self, authenticator, auth_pki):
        proxy = issue_proxy(auth_pki["user"])
        session = authenticator.login_with_proxy(proxy)
        assert session.dn == str(auth_pki["user"].certificate.subject)
        assert session.method == "proxy"

    def test_proxy_login_via_challenge_signature(self, authenticator, auth_pki):
        proxy = issue_proxy(auth_pki["user"])
        owner_dn = str(auth_pki["user"].certificate.subject)
        nonce = authenticator.issue_challenge(owner_dn)
        session = authenticator.login_with_signature(
            owner_dn, proxy.credential.private_key.sign(nonce.encode()),
            list(proxy.credential.full_chain()))
        assert session.method == "proxy"
        assert session.dn == owner_dn

    def test_tls_login(self, authenticator):
        session = authenticator.login_tls("/O=auth.test/OU=People/CN=Tina TLS")
        assert session.dn.endswith("Tina TLS")
        with pytest.raises(AuthenticationError):
            authenticator.login_tls(None)

    def test_logout_destroys_session(self, authenticator):
        session = authenticator.login_tls("/O=auth.test/CN=bye")
        assert authenticator.logout(session.session_id)
        assert not authenticator.logout(session.session_id)

    def test_challenge_bookkeeping(self, authenticator):
        authenticator.issue_challenge("/O=x/CN=a")
        authenticator.issue_challenge("/O=x/CN=b")
        authenticator.issue_challenge("/O=x/CN=a")  # a second nonce, same DN
        assert authenticator.outstanding_challenges() == 2
        assert authenticator.outstanding_challenges("/O=x/CN=a") == 2
        with pytest.raises(AuthenticationError):
            authenticator.issue_challenge("")


class TestConcurrentSameDNLogins:
    """One credential, several logins in flight: each holds its own nonce."""

    @staticmethod
    def _login(authenticator, user, nonce):
        return authenticator.login_with_signature(
            str(user.certificate.subject), user.private_key.sign(nonce.encode()),
            list(user.full_chain()))

    def test_eight_threads_with_one_credential_all_log_in(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        barrier = threading.Barrier(8, timeout=30)
        sessions, errors = [], []

        def login():
            try:
                nonce = authenticator.issue_challenge(dn)
                barrier.wait()      # every challenge is out before any login
                sessions.append(self._login(authenticator, user, nonce))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=login) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len({session.session_id for session in sessions}) == 8
        assert authenticator.outstanding_challenges(dn) == 0

    def test_out_of_order_logins_consume_only_their_nonce(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        first, second = (authenticator.issue_challenge(dn) for _ in range(2))
        assert self._login(authenticator, user, first).dn == dn
        assert authenticator.outstanding_challenges(dn) == 1
        assert self._login(authenticator, user, second).dn == dn

    def test_used_nonce_is_rejected(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        nonce = authenticator.issue_challenge(dn)
        authenticator.issue_challenge(dn)             # another one stays outstanding
        self._login(authenticator, user, nonce)
        with pytest.raises(AuthenticationError, match="signature verification failed"):
            self._login(authenticator, user, nonce)

    def test_expired_nonce_is_rejected(self, authenticator, auth_pki, monkeypatch):
        user = auth_pki["user"]
        nonce = authenticator.issue_challenge(str(user.certificate.subject))
        monkeypatch.setattr(auth_module, "_CHALLENGE_LIFETIME", -1.0)
        with pytest.raises(AuthenticationError, match="no valid challenge"):
            self._login(authenticator, user, nonce)
        assert authenticator.outstanding_challenges() == 0

    def test_per_dn_nonces_stay_bounded_oldest_evicted(self, authenticator, auth_pki):
        user = auth_pki["user"]
        dn = str(user.certificate.subject)
        limit = auth_module._CHALLENGES_PER_DN
        nonces = [authenticator.issue_challenge(dn) for _ in range(limit + 5)]
        assert authenticator.outstanding_challenges(dn) == limit
        assert authenticator.outstanding_challenges() == 1
        with pytest.raises(AuthenticationError, match="signature verification failed"):
            self._login(authenticator, user, nonces[0])
        assert self._login(authenticator, user, nonces[-1]).dn == dn
