"""A join result restricted to a probe row range is that range's join.

The sharded join builds and walks once per join and hands each shard its
row range of the one result (``JoinKernelResult.shard``).  That is only
sound if the slice equals running the kernel on the shard's rows alone
in every field — the matches, the simulated seconds to the last bit, the
table size and the stats the cost events are made of.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CostModel
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.shard import range_shard_bounds

LO = int(np.iinfo(np.int64).min)
#: The empty-slot marker, the insert's alias for it, and ordinary keys.
SPECIAL = [LO, LO + 1, -1, 0, 3]
KERNEL = HashJoinKernel(CostModel())

_builds = st.one_of(
    st.lists(st.integers(0, 300), unique=True, max_size=120),       # dense
    st.lists(st.integers(0, 10**6), unique=True, max_size=120)      # sparse
    .map(lambda keys: [k * 7919 for k in keys]),
    st.lists(st.sampled_from(SPECIAL) | st.integers(0, 40), unique=True,
             max_size=20),
)


@st.composite
def join_cases(draw):
    """``(build keys, probe keys)``: probe rows hit build keys, miss them
    (absent values on and off the build's span) or carry the marker."""
    build = draw(_builds)
    pool = st.integers(-5, 400) | st.sampled_from(SPECIAL)
    if build:
        pool = st.sampled_from(build) | pool
    probe = draw(st.lists(pool, max_size=300))
    return (np.array(build, dtype=np.int64),
            np.array(probe, dtype=np.int64))


def assert_same_join(got, want):
    assert got.kernel == want.kernel
    for field in ("left_idx", "right_idx", "steps"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.kernel_seconds.hex() == want.kernel_seconds.hex()
    assert got.table_bytes == want.table_bytes
    assert got.stats == want.stats


@given(case=join_cases(), shards=st.integers(1, 8), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_row_range_of_the_join_is_the_join_of_that_range(case, shards,
                                                           data):
    build, probe = case
    whole = KERNEL.run(build, probe)
    n = len(probe)
    bounds = range_shard_bounds(n, shards)
    lo, hi = sorted(data.draw(st.lists(st.integers(0, n), min_size=2,
                                       max_size=2)))
    ranges = [(0, 0), (0, n), (n, n), (lo, hi)] + [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    for a, b in ranges:
        assert_same_join(whole.shard(a, b), KERNEL.run(build, probe[a:b]))
    # The shards, renumbered and concatenated in order, are the whole.
    parts = [(int(a), whole.shard(int(a), int(b)))
             for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(
        np.concatenate([a + part.left_idx for a, part in parts]),
        whole.left_idx)
    assert np.array_equal(
        np.concatenate([part.right_idx for _, part in parts]),
        whole.right_idx)
    assert sum(part.stats["probe_probes"] for _, part in parts) \
        == whole.stats["probe_probes"]
