"""Unit tests for stream-pipelined launches (section 2.1.2).

The planner/schedule pair is pure arithmetic, so most tests check exact
properties: chunk conservation, the double-buffer constraint, the
overhead trade-off, and the pool bound.  The ``streamed_launch`` tests
then drive a real device + pool and check buffer lifecycle (two in
flight, clean rollback on per-chunk faults).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GpuSpec
from repro.errors import KernelLaunchError, PinnedMemoryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.gpu.device import GpuDevice
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.streams import (
    DOUBLE_BUFFERS,
    PipelineSpec,
    StreamChunk,
    StreamPlan,
    plan_pipeline,
    streamed_launch,
)
from repro.gpu.transfer import transfer_seconds
from repro.obs.tracing import Tracer

SPEC = GpuSpec()
MB = 1 << 20


def make_plan(bytes_in=8 * MB, bytes_out=1 * MB, kernel_seconds=4e-3,
              depth=4, chunk_bytes=MB, pool_capacity=64 * MB, pinned=True):
    return plan_pipeline(
        bytes_in=bytes_in, bytes_out=bytes_out,
        kernel_seconds=kernel_seconds, spec=SPEC,
        pipeline=PipelineSpec(depth=depth, chunk_bytes=chunk_bytes),
        pool_capacity=pool_capacity, pinned=pinned,
    )


class TestPipelineSpec:
    def test_validate_accepts_defaults(self):
        assert PipelineSpec().validate().depth == 1

    @pytest.mark.parametrize("depth,chunk_bytes", [
        (0, MB), (-1, MB), (4, 0), (4, -1),
    ])
    def test_validate_rejects_bad_knobs(self, depth, chunk_bytes):
        with pytest.raises(ValueError):
            PipelineSpec(depth=depth, chunk_bytes=chunk_bytes).validate()


class TestPlanner:
    def test_depth_one_means_serial(self):
        assert make_plan(depth=1) is None

    def test_no_pipeline_means_serial(self):
        assert plan_pipeline(bytes_in=8 * MB, bytes_out=MB,
                             kernel_seconds=1e-3, spec=SPEC, pipeline=None,
                             pool_capacity=64 * MB) is None

    def test_nothing_to_transfer_means_serial(self):
        assert make_plan(bytes_in=0) is None

    def test_chunk_bytes_conserved(self):
        plan = make_plan()
        assert plan.bytes_in == 8 * MB
        assert plan.bytes_out == 1 * MB
        assert sum(c.bytes_in for c in plan.chunks) == 8 * MB
        assert sum(c.bytes_out for c in plan.chunks) == 1 * MB

    def test_kernel_slices_conserve_work(self):
        plan = make_plan(kernel_seconds=4e-3)
        sliced = sum(c.kernel_seconds for c in plan.chunks)
        overheads = len(plan.chunks) * SPEC.kernel_launch_overhead
        assert sliced == pytest.approx(4e-3 + overheads, rel=1e-12)

    def test_depth_sets_minimum_chunks(self):
        # 8 MB with 8 MB chunk_bytes would be one chunk; depth=4 forces 4.
        plan = make_plan(chunk_bytes=8 * MB, depth=4)
        assert len(plan.chunks) == 4

    def test_chunk_bytes_caps_chunk_size(self):
        plan = make_plan(bytes_in=8 * MB, chunk_bytes=MB, depth=2)
        assert len(plan.chunks) == 8
        assert plan.max_chunk_bytes <= MB

    def test_pool_bound_halves_the_chunk(self):
        # Two chunks are in flight at once, so a chunk can never exceed
        # half the pool even when chunk_bytes allows more.
        plan = make_plan(bytes_in=8 * MB, chunk_bytes=8 * MB,
                         pool_capacity=4 * MB, depth=2)
        assert plan.max_chunk_bytes <= 4 * MB // DOUBLE_BUFFERS

    def test_never_more_chunks_than_bytes(self):
        plan = make_plan(bytes_in=3, bytes_out=0, kernel_seconds=10.0,
                         depth=64)
        # 3 bytes can fill at most 3 non-empty H2D chunks — if the
        # overhead bill doesn't already push the planner back to serial.
        assert plan is None or len(plan.chunks) <= 3

    def test_overhead_makes_tiny_jobs_serial(self):
        # 4 KB split 8 ways pays 8 transfer setups + 8 launch overheads
        # to hide almost nothing: the planner must refuse.
        assert make_plan(bytes_in=4096, bytes_out=512,
                         kernel_seconds=1e-6, depth=8) is None

    def test_planned_means_strictly_faster(self):
        plan = make_plan()
        assert plan is not None
        assert plan.schedule().total_seconds < plan.serial_seconds

    def test_serial_reference_matches_transfer_model(self):
        plan = make_plan(bytes_in=8 * MB, bytes_out=MB, kernel_seconds=4e-3)
        assert plan.serial_in == transfer_seconds(8 * MB, SPEC, True)
        assert plan.serial_out == transfer_seconds(MB, SPEC, True)
        assert plan.serial_kernel == SPEC.kernel_launch_overhead + 4e-3


class TestSchedule:
    def test_makespan_decomposition_is_exact(self):
        plan = make_plan()
        s = plan.schedule()
        assert s.total_seconds == (s.exposed_in + s.kernel_seconds
                                   + s.exposed_out)
        assert s.exposed_in >= 0 and s.exposed_out >= 0

    def test_transfer_bound_job_collapses_to_copy_time(self):
        # With a negligible kernel the compute engine is never the
        # bottleneck: the makespan approaches the H2D copy time (the
        # copy engine is busy end to end) plus the kernel tail.  The
        # planner refuses such jobs (nothing to hide), so hand-build.
        chunks = tuple(
            StreamChunk(bytes_in=MB, bytes_out=0, kernel_seconds=1e-9,
                        h2d_seconds=1e-3, d2h_seconds=0.0)
            for _ in range(4)
        )
        plan = StreamPlan(chunks=chunks, pipeline=PipelineSpec(depth=4),
                          serial_in=4e-3, serial_kernel=4e-9,
                          serial_out=0.0)
        s = plan.schedule()
        h2d_total = sum(c.h2d_seconds for c in plan.chunks)
        assert s.total_seconds >= h2d_total
        assert s.total_seconds <= h2d_total + s.kernel_seconds + 1e-12

    def test_kernel_bound_job_hides_all_but_first_copy(self):
        # With a huge kernel every copy after the first hides under a
        # kernel slice: makespan = first chunk's H2D + kernel busy time.
        plan = make_plan(kernel_seconds=1.0, bytes_out=0)
        s = plan.schedule()
        assert s.exposed_in == pytest.approx(plan.chunks[0].h2d_seconds)

    def test_double_buffer_constraint_binds(self):
        # Hand-built: chunk 0 has a 1 s kernel slice, copies are 1 ms.
        # With only two buffers chunk 2's copy must wait for chunk 0's
        # kernel; with unlimited buffers it would start at 3 ms.
        chunks = tuple(
            StreamChunk(bytes_in=1, bytes_out=0,
                        kernel_seconds=1.0 if i == 0 else 1e-6,
                        h2d_seconds=1e-3, d2h_seconds=0.0)
            for i in range(4)
        )
        plan = StreamPlan(chunks=chunks, pipeline=PipelineSpec(depth=4),
                          serial_in=4e-3, serial_kernel=1.0, serial_out=0.0)
        s = plan.schedule()
        # Chunk 0 kernel ends at 1e-3 + 1.0; chunks 2 and 3's copies are
        # serialized after it, so the makespan shows those copies exposed.
        assert s.total_seconds >= 1e-3 + 1.0 + 2e-3

    def test_stalls_land_on_their_chunk(self):
        plan = make_plan()
        quiet = plan.schedule()
        stalled = plan.schedule([0.0, 5.0] + [0.0] * (len(plan.chunks) - 2))
        assert stalled.total_seconds > quiet.total_seconds
        # A stall far larger than the kernel cannot be hidden: it shows
        # up (mostly) as exposed inbound time.
        assert stalled.exposed_in > quiet.exposed_in

    def test_hidden_stall_is_free(self):
        # A tiny stall on a late chunk of a kernel-bound job hides under
        # the running kernel slices and costs nothing.
        plan = make_plan(kernel_seconds=1.0, bytes_out=0)
        quiet = plan.schedule()
        stalls = [0.0] * len(plan.chunks)
        stalls[-1] = 1e-6
        assert plan.schedule(stalls).total_seconds == pytest.approx(
            quiet.total_seconds)


class TestStreamedLaunch:
    @pytest.fixture()
    def device(self):
        return GpuDevice(0, SPEC)

    @pytest.fixture()
    def pool(self):
        return PinnedMemoryPool(64 * MB)

    def test_depth_one_matches_direct_serial_launch(self, device, pool):
        r = device.memory.reserve(8 * MB)
        via_stream = streamed_launch(
            device, pool, kernel="k", kernel_seconds=2e-3, reservation=r,
            rows=100, bytes_in=8 * MB, bytes_out=MB,
            pipeline=PipelineSpec(depth=1),
        )
        direct = device.launch("k", 2e-3, r, rows=100,
                               bytes_in=8 * MB, bytes_out=MB)
        device.memory.release(r)
        assert via_stream == direct
        assert via_stream.chunks == 1
        assert via_stream.overlap_saved_seconds == 0.0

    def test_pipelined_launch_beats_serial(self, device, pool):
        r = device.memory.reserve(8 * MB)
        result = streamed_launch(
            device, pool, kernel="k", kernel_seconds=4e-3, reservation=r,
            bytes_in=8 * MB, bytes_out=MB,
            pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
        )
        serial = device.launch("k", 4e-3, r, bytes_in=8 * MB, bytes_out=MB)
        device.memory.release(r)
        assert result.chunks == 8
        assert result.total_seconds < serial.total_seconds
        assert result.serial_seconds == pytest.approx(serial.total_seconds)
        assert result.overlap_saved_seconds == pytest.approx(
            serial.total_seconds - result.total_seconds)

    def test_two_staging_buffers_in_flight(self, device, pool):
        r = device.memory.reserve(8 * MB)
        streamed_launch(
            device, pool, kernel="k", kernel_seconds=4e-3, reservation=r,
            bytes_in=8 * MB, bytes_out=MB,
            pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
        )
        device.memory.release(r)
        assert pool.used == 0
        # Double buffering: never more than two chunk-size buffers live,
        # far below the serial path's full-size staging buffer.
        assert pool.peak_used <= DOUBLE_BUFFERS * MB
        assert pool.peak_used > MB

    def test_serial_path_stages_full_input(self, device, pool):
        r = device.memory.reserve(8 * MB)
        streamed_launch(device, pool, kernel="k", kernel_seconds=2e-3,
                        reservation=r, bytes_in=8 * MB, bytes_out=MB,
                        pipeline=None)
        device.memory.release(r)
        assert pool.used == 0
        assert pool.peak_used == 8 * MB

    def _arm(self, device, pool, rule):
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        device.attach_injector(injector)
        pool.injector = injector

    def test_per_chunk_launch_fault_rolls_back_buffers(self, device, pool):
        # The third chunk's launch check fails; both live staging buffers
        # must be released and no launch span emitted.
        device.tracer = Tracer()
        self._arm(device, pool, FaultRule(site="launch", nth=(3,)))
        r = device.memory.reserve(8 * MB)
        with pytest.raises(KernelLaunchError):
            streamed_launch(
                device, pool, kernel="k", kernel_seconds=4e-3,
                reservation=r, bytes_in=8 * MB, bytes_out=MB,
                pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
            )
        device.memory.release(r)
        assert pool.used == 0
        assert device.tracer.spans == []

    def test_per_chunk_pinned_fault_rolls_back_buffers(self, device, pool):
        self._arm(device, pool, FaultRule(site="pinned", nth=(2,)))
        r = device.memory.reserve(8 * MB)
        with pytest.raises(PinnedMemoryError):
            streamed_launch(
                device, pool, kernel="k", kernel_seconds=4e-3,
                reservation=r, bytes_in=8 * MB, bytes_out=MB,
                pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
            )
        device.memory.release(r)
        assert pool.used == 0

    def test_per_chunk_stall_slows_but_completes(self, device, pool):
        self._arm(device, pool,
                  FaultRule(site="transfer", nth=(2,), stall_seconds=0.5))
        r = device.memory.reserve(8 * MB)
        stalled = streamed_launch(
            device, pool, kernel="k", kernel_seconds=4e-3, reservation=r,
            bytes_in=8 * MB, bytes_out=MB,
            pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
        )
        device.memory.release(r)
        assert pool.used == 0
        assert stalled.total_seconds > 0.5       # the stall is exposed
        # The serial reference pays the same stall, so savings survive.
        assert stalled.overlap_saved_seconds > 0.0

    def test_launch_span_carries_the_exact_result(self, device, pool):
        """The span's timings are the returned ones, bit for bit — the
        exposed stall included — not re-derived from span durations."""
        device.tracer = Tracer()
        self._arm(device, pool,
                  FaultRule(site="transfer", nth=(1,), stall_seconds=0.5))
        r = device.memory.reserve(8 * MB)
        result = streamed_launch(
            device, pool, kernel="k", kernel_seconds=4e-3, reservation=r,
            bytes_in=8 * MB, bytes_out=MB,
            pipeline=PipelineSpec(depth=4, chunk_bytes=MB),
        )
        device.memory.release(r)
        record = next(s.attributes for s in device.tracer.spans
                      if s.name == "gpu.launch")
        assert record["chunks"] == result.chunks == 8
        assert result.transfer_in_seconds > 0.5
        for name in ("kernel_seconds", "transfer_in_seconds",
                     "transfer_out_seconds"):
            assert record[name] == getattr(result, name), name

    def test_pipelined_launch_requires_pool(self, device, pool):
        from repro.errors import GpuError

        plan = make_plan()
        r = device.memory.reserve(8 * MB)
        with pytest.raises(GpuError):
            device.launch("k", 4e-3, r, bytes_in=8 * MB, plan=plan)
        device.memory.release(r)


# chunk_bytes is floored at 4 KB so a worst-case example plans a few
# thousand chunks, not millions — the properties are about schedule
# shape, not stress volume.
JOBS = st.fixed_dictionaries({
    "bytes_in": st.integers(min_value=0, max_value=8 * MB),
    "bytes_out": st.integers(min_value=0, max_value=2 * MB),
    "kernel_seconds": st.floats(min_value=0.0, max_value=0.1,
                                allow_nan=False),
    "pinned": st.booleans(),
})
KNOBS = st.fixed_dictionaries({
    "depth": st.integers(min_value=1, max_value=16),
    "chunk_bytes": st.integers(min_value=4096, max_value=8 * MB),
    "pool_capacity": st.integers(min_value=1, max_value=32 * MB),
})


def _serial_seconds(job):
    t_in = transfer_seconds(job["bytes_in"], SPEC, job["pinned"])
    t_out = transfer_seconds(job["bytes_out"], SPEC, job["pinned"])
    return (t_in + (SPEC.kernel_launch_overhead
                    + job["kernel_seconds"])) + t_out


class TestMakespanProperties:
    @given(job=JOBS, knobs=KNOBS)
    @settings(max_examples=150, deadline=None)
    def test_pipelined_never_slower_than_serial(self, job, knobs):
        """The universal perf property: for ANY job and ANY knob setting
        the planned launch time is <= the serial launch time (exactly, in
        float — the planner refuses plans that do not strictly win)."""
        plan = plan_pipeline(
            spec=SPEC, pool_capacity=knobs["pool_capacity"],
            pipeline=PipelineSpec(depth=knobs["depth"],
                                  chunk_bytes=knobs["chunk_bytes"]),
            **job,
        )
        serial = _serial_seconds(job)
        if plan is None:
            return
        assert plan.serial_seconds == serial
        assert plan.schedule().total_seconds < serial
        assert plan.bytes_in == job["bytes_in"]
        assert plan.bytes_out == job["bytes_out"]

    @given(job=JOBS, chunk_bytes=st.integers(min_value=1,
                                             max_value=8 * MB))
    @settings(max_examples=50, deadline=None)
    def test_depth_one_is_exactly_serial(self, job, chunk_bytes):
        plan = plan_pipeline(
            spec=SPEC, pool_capacity=64 * MB,
            pipeline=PipelineSpec(depth=1, chunk_bytes=chunk_bytes),
            **job,
        )
        assert plan is None      # depth 1 always takes the serial path

    @given(job=JOBS, knobs=KNOBS,
           stalls=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                     allow_nan=False), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_always_exact(self, job, knobs, stalls):
        plan = plan_pipeline(
            spec=SPEC, pool_capacity=knobs["pool_capacity"],
            pipeline=PipelineSpec(depth=knobs["depth"],
                                  chunk_bytes=knobs["chunk_bytes"]),
            **job,
        )
        if plan is None:
            return
        s = plan.schedule(stalls)
        assert s.exposed_in >= 0.0
        assert s.exposed_out >= 0.0
        assert s.total_seconds == (s.exposed_in + s.kernel_seconds
                                   + s.exposed_out)
        # Stalls can only push the makespan out, never pull it in.
        assert s.total_seconds >= plan.schedule().total_seconds
