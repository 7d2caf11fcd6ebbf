"""Certificate-based authentication.

Clarens establishes the client's identity from its X.509 certificate, either
presented over the SSL connection (where Apache/mod_ssl verified it and
exported the DN) or through an explicit challenge–response exchange for
unencrypted deployments such as the paper's performance test.  Either path
ends with a persistent server-side session whose id the client attaches to
subsequent requests.

The :class:`Authenticator` supports three login flows:

* **TLS client certificate** -- the transport already verified the chain;
  ``login_tls`` just needs the DN.
* **Challenge–response** -- the client asks for a nonce, signs it with its
  private key, and submits the signature together with its certificate chain;
  the server verifies the chain against its trust store and the signature
  against the certificate's public key.
* **Proxy certificate** -- a (possibly delegated) proxy chain is verified
  with the proxy rules; the session is created for the *owner* DN.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.errors import AuthenticationError
from repro.core.session import Session, SessionManager
from repro.pki.certificate import Certificate, TrustStore, VerificationError, verify_chain
from repro.pki.proxy import ChainVerificationCache, ProxyCertificate, verify_proxy_chain

__all__ = ["Authenticator", "Challenge"]

_CHALLENGE_LIFETIME = 300.0  # five minutes
#: Outstanding nonces kept per DN.  Concurrent logins with one credential
#: each hold their own nonce; past this many the oldest is dropped.
_CHALLENGES_PER_DN = 16


@dataclass
class Challenge:
    """An outstanding authentication challenge."""

    dn: str
    nonce: str
    issued: float

    def is_expired(self, when: float | None = None) -> bool:
        when = time.time() if when is None else when
        return when - self.issued > _CHALLENGE_LIFETIME


class Authenticator:
    """Verifies credentials and turns them into sessions."""

    def __init__(self, sessions: SessionManager, trust_store: TrustStore, *,
                 revoked_serials: Mapping | None = None,
                 chain_cache: ChainVerificationCache | None = None) -> None:
        self.sessions = sessions
        self.trust_store = trust_store
        self.revoked_serials = dict(revoked_serials or {})
        #: Optional memoization of successful chain verifications (the RSA
        #: signature checks dominate login cost); None preserves paper mode.
        self.chain_cache = chain_cache
        #: DN -> outstanding challenges keyed by nonce, oldest first.
        self._challenges: dict[str, dict[str, Challenge]] = {}
        self._lock = threading.Lock()

    def _verify_chain(self, chain: Sequence[Certificate]) -> Certificate:
        if self.chain_cache is not None:
            # Pass the authenticator's own (current) revocation mapping so a
            # cache constructed without one can never skip revocation checks.
            return self.chain_cache.verify_chain(
                chain, revoked_serials=self.revoked_serials)
        return verify_chain(list(chain), self.trust_store,
                            revoked_serials=self.revoked_serials)

    def _verify_proxy_chain(self, proxy: ProxyCertificate | Sequence[Certificate]):
        if self.chain_cache is not None:
            return self.chain_cache.verify_proxy_chain(
                proxy, revoked_serials=self.revoked_serials)
        return verify_proxy_chain(proxy, self.trust_store,
                                  revoked_serials=self.revoked_serials)

    # -- challenge/response ------------------------------------------------------
    def issue_challenge(self, dn: str) -> str:
        """Create a nonce the client must sign to prove key possession.

        Each call adds a nonce, so concurrent logins with one DN do not
        overwrite each other's challenge; at most ``_CHALLENGES_PER_DN``
        stay outstanding per DN, the oldest dropped first.
        """

        if not dn:
            raise AuthenticationError("a DN is required to request a challenge")
        nonce = secrets.token_hex(24)
        with self._lock:
            self._purge_expired_locked()
            pending = self._challenges.setdefault(dn, {})
            if len(pending) >= _CHALLENGES_PER_DN:
                del pending[next(iter(pending))]
            pending[nonce] = Challenge(dn=dn, nonce=nonce, issued=time.time())
        return nonce

    def _purge_expired_locked(self) -> None:
        now = time.time()
        for dn in list(self._challenges):
            pending = self._challenges[dn]
            for nonce in [n for n, ch in pending.items() if ch.is_expired(now)]:
                del pending[nonce]
            if not pending:
                del self._challenges[dn]

    def login_with_signature(self, dn: str, signature: int,
                             chain: Sequence[Certificate]) -> Session:
        """Verify a signed challenge plus certificate chain; create a session.

        The signature may be over any outstanding nonce of ``dn``; only the
        nonce it matches is consumed, so it cannot be replayed.
        """

        now = time.time()
        with self._lock:
            candidates = [ch for ch in self._challenges.get(dn, {}).values()
                          if not ch.is_expired(now)]
        if not candidates:
            raise AuthenticationError("no valid challenge outstanding for this DN")
        if not chain:
            raise AuthenticationError("a certificate chain is required")

        try:
            if any(cert.is_proxy for cert in chain):
                owner = self._verify_proxy_chain(list(chain))
                authenticated_dn = str(owner)
                method = "proxy"
            else:
                end_entity = self._verify_chain(chain)
                authenticated_dn = str(end_entity.subject)
                method = "certificate"
        except VerificationError as exc:
            raise AuthenticationError(f"certificate verification failed: {exc}") from exc

        if authenticated_dn != dn:
            raise AuthenticationError(
                f"challenge was issued for {dn!r} but the chain authenticates {authenticated_dn!r}"
            )
        # The signature must be made by the *presented* certificate (the proxy
        # itself when logging in with a proxy), proving possession of its key.
        presented = chain[0]
        matched = next((ch for ch in reversed(candidates)
                        if presented.public_key.verify(ch.nonce.encode(), signature)),
                       None)
        if matched is None:
            raise AuthenticationError("challenge signature verification failed")

        with self._lock:
            pending = self._challenges.get(dn, {})
            consumed = pending.pop(matched.nonce, None)
            if not pending:
                self._challenges.pop(dn, None)
        if consumed is None:
            # A concurrent login spent this nonce between the checks above.
            raise AuthenticationError("no valid challenge outstanding for this DN")
        return self.sessions.create(authenticated_dn, method=method)

    # -- TLS-verified logins --------------------------------------------------------
    def login_tls(self, client_dn: str | None) -> Session:
        """Create a session for a DN already verified by the TLS layer."""

        if not client_dn:
            raise AuthenticationError("the connection did not present a client certificate")
        return self.sessions.create(client_dn, method="certificate")

    # -- proxy logins -----------------------------------------------------------------
    def login_with_proxy(self, proxy: ProxyCertificate | Sequence[Certificate]) -> Session:
        """Verify a proxy chain and create a session for its owner DN."""

        try:
            owner = self._verify_proxy_chain(proxy)
        except VerificationError as exc:
            raise AuthenticationError(f"proxy verification failed: {exc}") from exc
        return self.sessions.create(str(owner), method="proxy")

    # -- logout -------------------------------------------------------------------------
    def logout(self, session_id: str) -> bool:
        return self.sessions.destroy(session_id)

    def outstanding_challenges(self, dn: str | None = None) -> int:
        """How many DNs have a challenge outstanding, or, given ``dn``, how
        many nonces that DN has outstanding."""

        with self._lock:
            self._purge_expired_locked()
            if dn is not None:
                return len(self._challenges.get(dn, ()))
            return len(self._challenges)
