"""Output correctness checks.

A wrong answer counts as a failed operation, exactly like an error status.
Socket workloads compare every response body byte for byte with the
reference captured (and decoded and checked) at set-up; downloads are
checked by md5 against the seeded content.  The checker keeps the first few
mismatches so a failing run says what went wrong.
"""

from __future__ import annotations

import hashlib

__all__ = ["Checker"]


class Checker:
    """Counts checked operations and records the first mismatches."""

    def __init__(self, keep: int = 5) -> None:
        self.checked = 0
        self.failed = 0
        self.keep = keep
        self.problems: list[str] = []

    def fail(self, what: str) -> bool:
        self.checked += 1
        self.failed += 1
        if len(self.problems) < self.keep:
            self.problems.append(what)
        return False

    def ok(self) -> bool:
        self.checked += 1
        return True

    def status(self, label: str, status: int, expected: int = 200) -> bool:
        """Check an HTTP status without counting a success (the body check
        that follows does)."""

        if status == expected:
            return True
        self.fail(f"{label}: HTTP {status}, expected {expected}")
        return False

    def body(self, label: str, body: bytes, reference: bytes) -> bool:
        """A response body must equal its set-up reference byte for byte."""

        if body == reference:
            return self.ok()
        return self.fail(f"{label}: body differs from the set-up reference "
                         f"({len(body)} bytes vs {len(reference)})")

    def md5(self, label: str, data: bytes, expected_hex: str) -> bool:
        """Downloaded bytes must hash to the seeded content's md5."""

        digest = hashlib.md5(data).hexdigest()
        if digest == expected_hex:
            return self.ok()
        return self.fail(f"{label}: md5 {digest}, expected {expected_hex}")

    def equal(self, label: str, value, expected) -> bool:
        if value == expected:
            return self.ok()
        return self.fail(f"{label}: got {str(value)[:120]!r}, "
                         f"expected {str(expected)[:120]!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0
