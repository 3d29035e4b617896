"""Ablation — shipping BLU-encoded data vs decoded logical widths.

Contribution 2 of the paper: "we design our GPU kernels such that they can
process DB2 BLU data with minimum conversion cost" — the transfers move
packed dictionary codes, not decoded values.  This test prices one
representative offloaded group-by under three transfer policies and shows
that decoding before transfer would erase much of the offload margin.
"""

from repro.blu.compression import packed_transfer_bytes
from repro.config import CostModel, GpuSpec, HostSpec
from repro.gpu.transfer import transfer_seconds

ROWS = 400_000
KEY_CARDINALITY = 1_800          # an item-like dimension key
N_AGGS = 4
LOGICAL_KEY_BYTES = 8
LOGICAL_PAYLOAD_BYTES = 8


def test_ablation_packed_transfer():
    spec = GpuSpec()
    cost = CostModel()
    host = HostSpec()

    def run():
        packed_key = packed_transfer_bytes(ROWS, KEY_CARDINALITY)
        policies = {
            "packed codes (BLU-encoded)":
                packed_key + ROWS * 4 * N_AGGS,
            "fixed 4B columns":
                ROWS * 4 * (1 + N_AGGS),
            "decoded logical widths":
                ROWS * (LOGICAL_KEY_BYTES
                        + LOGICAL_PAYLOAD_BYTES * N_AGGS),
        }
        rows = []
        # The kernel compute this transfer feeds (same for all policies).
        kernel_seconds = (ROWS / cost.gpu_ht_insert_rate
                          + ROWS * N_AGGS / cost.gpu_atomic_agg_rate)
        # The CPU chain the offload must beat.
        cpu_seconds = (ROWS / cost.cpu_groupby_rate
                       + ROWS * N_AGGS / cost.cpu_aggregate_rate_per_fn) \
            / host.effective_capacity(48)
        for name, nbytes in policies.items():
            t_in = transfer_seconds(nbytes, spec)
            decode_cost = 0.0
            if name.startswith("decoded"):
                # Decoding before transfer is itself a host pass.
                decode_cost = ROWS * (1 + N_AGGS) / cost.cpu_decode_rate \
                    / host.effective_capacity(48)
            total = t_in + kernel_seconds + decode_cost
            rows.append((name, nbytes, t_in, total, cpu_seconds))
        return rows

    rows = run()

    by_name = {name: total for name, _b, _t, total, _c in rows}
    cpu_seconds = rows[0][4]
    assert by_name["packed codes (BLU-encoded)"] < \
        by_name["fixed 4B columns"] <= \
        by_name["decoded logical widths"]
    # Packed transfers beat the CPU chain; fully decoded transfers erode
    # most of the margin.
    assert by_name["packed codes (BLU-encoded)"] < cpu_seconds
    margin_packed = cpu_seconds - by_name["packed codes (BLU-encoded)"]
    margin_decoded = cpu_seconds - by_name["decoded logical widths"]
    assert margin_decoded < 0.55 * margin_packed
