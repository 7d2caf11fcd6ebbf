"""The output checker counts wrong answers as failures."""

from __future__ import annotations

import hashlib

from perfbench.checks import Checker


def test_identical_body_passes():
    checker = Checker()
    assert checker.body("echo", b"\x00frame", b"\x00frame")
    assert checker.correct and checker.checked == 1


def test_corrupted_body_is_flagged():
    checker = Checker()
    reference = b"CLRB" + bytes(range(64))
    corrupted = bytearray(reference)
    corrupted[10] ^= 0x01
    assert not checker.body("echo", bytes(corrupted), reference)
    assert not checker.correct
    assert checker.failed == 1 and "echo" in checker.problems[0]


def test_wrong_md5_is_flagged():
    data = b"seeded file content" * 100
    checker = Checker()
    assert checker.md5("read 3", data, hashlib.md5(data).hexdigest())
    assert not checker.md5("read 3", data[:-1] + b"!", hashlib.md5(data).hexdigest())
    assert checker.checked == 2 and checker.failed == 1


def test_bad_status_fails_without_counting_twice():
    checker = Checker()
    assert not checker.status("read 1", 404)
    assert checker.status("read 1", 200)
    assert checker.checked == 1 and checker.failed == 1


def test_problem_list_is_bounded():
    checker = Checker(keep=2)
    for i in range(5):
        checker.equal(f"call {i}", i, -1)
    assert checker.failed == 5 and len(checker.problems) == 2


def test_percentiles_weight_each_kind_of_operation_equally():
    from perfbench.loadgen import Tally

    single = Tally()
    for ns in range(1, 101):
        single.add(ns * 1_000_000)
    assert single.percentile_ms(0.5) == 50.5
    # 90 fast writes and 10 slow reads: unweighted, the median is a write;
    # weighted per kind, half the mass sits on the reads.
    mixed = Tally()
    for _ in range(90):
        mixed.add(1_000_000, kind="write")
    for _ in range(10):
        mixed.add(40_000_000, kind="read")
    assert mixed.percentile_ms(0.5) == 1.0
    assert mixed.percentile_ms(0.51) == 40.0
    assert mixed.percentile_ms(0.99) == 40.0


def test_scaling_keeps_raw_kinds_as_measured_in_every_figure():
    from perfbench.loadgen import Tally

    tally = Tally()
    tally.add(2_000_000, read_bytes=100, kind="read")
    tally.add(4_000_000, write_bytes=300, kind="write")
    scaled = tally.scaled(2.0, raw_kinds=frozenset({"read"}))
    assert scaled.latencies_ns == [2_000_000, 2_000_000]
    assert scaled.totals == {"read": [1, 100, 0], "write": [2.0, 0, 600.0]}
    assert (scaled.ops, scaled.read_bytes, scaled.write_bytes) == (3.0, 100, 600.0)
    merged = tally.merge(tally)
    assert merged.totals["write"] == [2, 0, 600] and merged.ops == 4
