"""The exception hierarchy: everything catches as ReproError."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.SchemaError, errors.TypeMismatchError, errors.SqlError,
    errors.PlanError, errors.ExecutionError, errors.GpuError,
    errors.DeviceMemoryError, errors.ReservationError,
    errors.PinnedMemoryError, errors.HashTableOverflowError,
    errors.KernelAbortedError, errors.KernelLaunchError,
    errors.DeviceLostError, errors.HashTableReuseError,
    errors.SchedulerError,
    errors.FaultPlanError, errors.SimulationError, errors.WorkloadError,
]


@pytest.mark.parametrize("error_cls", ALL_ERRORS)
def test_all_errors_are_repro_errors(error_cls):
    assert issubclass(error_cls, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise error_cls("boom")


def test_gpu_errors_form_a_subfamily():
    for error_cls in (errors.DeviceMemoryError, errors.ReservationError,
                      errors.PinnedMemoryError,
                      errors.HashTableOverflowError,
                      errors.KernelAbortedError, errors.KernelLaunchError,
                      errors.DeviceLostError):
        assert issubclass(error_cls, errors.GpuError)


def test_catching_does_not_swallow_builtins():
    with pytest.raises(ValueError):
        try:
            raise ValueError("not ours")
        except errors.ReproError:  # pragma: no cover - must not catch
            pytest.fail("ReproError caught a builtin exception")
