"""One group-by offload, borrowed by the fused chain — pinned by counting.

The paper's section-4 offload (Figure 2's host chain, the moderator's
kernel choice or race, a reserved launch, the CPU fallback) is written
once, in :class:`~repro.core.hybrid_groupby.HybridGroupByExecutor`.  The
fused chain (:mod:`repro.gpu.fusion`) is the same launch with a longer
kernel, so it calls that executor instead of copying it: no moderator
call, KMV or race record, payload typing or join build segment of its
own, and no fields beyond the two executors it degrades through.  At
5f7bc45 ``FusedExecutor`` had six fields (four of them the group-by
executor's) and ``gpu/fusion.py`` spelled every one of the strings below.

The second half pins the other simplification: every dispatcher has a
monitor, so no "no monitor" branch survives in the executors.
"""

import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.dispatch import Dispatcher
from repro.gpu.fusion import FusedExecutor

SRC = Path(repro.__file__).parent
FUSION = SRC / "gpu" / "fusion.py"

#: What only the group-by and join executors may spell.
BORROWED = ("moderator.run(", "moderator.choose(", "record_kmv_estimate",
            "record_overflow_retries", "record_race", '"join-build:"',
            "def _payload_specs", "def _owner_of")

#: The branches a dispatcher without a monitor needed.
NONE_BRANCHES = ("monitor is None", "monitor is not None", "tracer is None",
                 "tracer is not None", "or NULL_TRACER")
MONITORED = ("core/dispatch.py", "core/hybrid_groupby.py",
             "core/hybrid_sort.py", "gpu/fusion.py")


@pytest.mark.parametrize("spelling", BORROWED)
def test_fusion_borrows_the_groupby_offload(spelling):
    assert spelling not in FUSION.read_text()


def test_fused_executor_holds_only_the_executors_it_borrows():
    fields = tuple(f.name for f in dataclasses.fields(FusedExecutor))
    assert fields == ("groupby", "join")
    # The wall-clock harness wraps the fused path at this seam.
    assert "__call__" in vars(FusedExecutor)


def test_a_dispatcher_always_has_a_monitor():
    monitor = Dispatcher.__dataclass_fields__["monitor"]
    assert monitor.default is dataclasses.MISSING
    assert monitor.default_factory is dataclasses.MISSING


@pytest.mark.parametrize("module", MONITORED)
def test_no_branch_for_a_missing_monitor(module):
    text = (SRC / module).read_text()
    assert [s for s in NONE_BRANCHES if s in text] == []
