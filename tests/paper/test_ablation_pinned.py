"""Ablation — pinned vs unpinned transfers and the registration pool.

Section 2.1.2: registered (pinned) host memory transfers "more than 4X
faster" over PCIe gen3, and registering one large segment up front avoids
a per-call registration cost that would otherwise swamp small kernels.
"""

from repro.config import GpuSpec
from repro.gpu.pinned import REGISTRATION_RATE, REGISTRATION_SETUP
from repro.gpu.transfer import transfer_seconds

SIZES = (64 * 1024, 1024 * 1024, 16 * 1024 * 1024, 256 * 1024 * 1024)


def test_ablation_pinned():
    spec = GpuSpec()

    def run():
        rows = []
        for nbytes in SIZES:
            pinned = transfer_seconds(nbytes, spec, pinned=True)
            unpinned = transfer_seconds(nbytes, spec, pinned=False)
            register_each_call = (REGISTRATION_SETUP
                                  + nbytes / REGISTRATION_RATE + pinned)
            rows.append((nbytes, pinned, unpinned, register_each_call))
        return rows

    rows = run()

    for nbytes, pinned, unpinned, per_call in rows:
        # The 4x claim holds once the transfer amortises the fixed setup
        # overhead (small transfers are overhead-dominated either way).
        if nbytes >= 16 * 1024 * 1024:
            assert unpinned / pinned > 4.0
        assert per_call > pinned                 # registration never free
