"""Seed discipline: generated inputs depend on the seed and nothing else."""

from __future__ import annotations

import math

from perfbench import inputs


def _mix_fingerprint(mix: inputs.RpcMix):
    return ([(lfn, pfn, content) for lfn, pfn, content in mix.files],
            [[(call.method, repr(call.params)) for call in conn]
             for conn in mix.connections])


def _plane_fingerprint(plane: inputs.DataPlane):
    return (plane.files, plane.blobs, plane.read_order, plane.write_order)


def test_same_seed_gives_identical_rpc_mix():
    assert _mix_fingerprint(inputs.make_rpc_mix(7)) == _mix_fingerprint(inputs.make_rpc_mix(7))


def test_other_seed_gives_different_rpc_mix():
    assert _mix_fingerprint(inputs.make_rpc_mix(7)) != _mix_fingerprint(inputs.make_rpc_mix(8))


def test_same_seed_gives_identical_data_plane():
    assert (_plane_fingerprint(inputs.make_data_plane(3))
            == _plane_fingerprint(inputs.make_data_plane(3)))


def test_other_seed_gives_different_data_plane():
    a, b = inputs.make_data_plane(3), inputs.make_data_plane(4)
    assert [f[2] for f in a.files] != [f[2] for f in b.files]
    assert a.read_order != b.read_order


def test_size_grid_is_log_uniform_and_seed_independent():
    lo, hi, n = 16, 65536, 64
    a = inputs.log_uniform_grid(inputs.rng_for("t", 1), n, lo, hi)
    b = inputs.log_uniform_grid(inputs.rng_for("t", 2), n, lo, hi)
    assert sorted(a) == sorted(b) and a != b
    assert lo <= min(a) and max(a) <= hi
    # Equal steps in log-size: every quarter of the log range holds n/4 sizes.
    quarter = (math.log(hi) - math.log(lo)) / 4
    counts = [sum(1 for size in a if math.log(lo) + k * quarter <= math.log(size)
                  < math.log(lo) + (k + 1) * quarter) for k in range(4)]
    assert counts == [n // 4] * 4


def test_rpc_mix_shares_and_properties():
    mix = inputs.make_rpc_mix(1)
    calls = [call for conn in mix.connections for call in conn]
    assert len(calls) == inputs.MIX_CALLS
    assert len(mix.connections) == 2
    props = inputs.describe_rpc_mix(mix)
    assert props["list_methods_share"] == 0.15
    # list_methods repeats after its first call; stat/locate repeat per file.
    assert props["repeated_result_share"] > props["list_methods_share"]
    q1, q2, q3 = props["echo_payload_quartiles_bytes"]
    assert inputs.ECHO_MIN_BYTES < q1 < q2 < q3 < inputs.ECHO_MAX_BYTES


def test_echo_payload_sizes_follow_the_grid():
    mix = inputs.make_rpc_mix(2)
    for call in (c for conn in mix.connections for c in conn):
        if call.method == "system.echo":
            assert call.payload_bytes == inputs.approx_size(call.params[0])
            assert call.payload_bytes <= inputs.ECHO_MAX_BYTES + 64


def test_data_plane_properties():
    props = inputs.describe_data_plane(inputs.make_data_plane(1))
    assert props["file_size_quartiles_bytes"] == props["blob_size_quartiles_bytes"]
    assert props["cycle_read_share_of_bytes"] == 0.5
