"""Fault plans: which substrate seams fail, when, and how.

The paper's GPU integration is defined as much by its error paths as its
fast paths — §2.1.1's reservation failure ("wait ... or fall back and run
the task on the CPU") and §4.2's hash-table overflow are both *expected*
runtime events.  A :class:`FaultPlan` lets tests, the CLI and chaos runs
exercise those paths deterministically: it names the injection sites in
the simulated CUDA substrate and attaches a trigger to each.

Sites (see :data:`FAULT_SITES`):

``reserve``
    :meth:`repro.gpu.memory.DeviceMemoryManager.try_reserve` returns
    ``None`` — the up-front reservation failure of §2.1.1.
``alloc``
    :meth:`~repro.gpu.memory.DeviceMemoryManager.allocate` raises
    :class:`~repro.errors.DeviceMemoryError` — the mid-kernel allocation
    failure the reservation discipline normally rules out.
``launch``
    :meth:`repro.gpu.device.GpuDevice.launch` raises
    :class:`~repro.errors.KernelLaunchError`.
``transfer``
    a PCIe transfer *stalls*: ``stall_seconds`` of extra latency is added
    to the inbound copy (a degradation, not an error — results are
    unaffected, only the trace and the timings show it).
``pinned``
    :meth:`repro.gpu.pinned.PinnedMemoryPool.allocate` raises
    :class:`~repro.errors.PinnedMemoryError` — staging-pool exhaustion.
``device_loss``
    the device drops off the bus at launch time and stays dead:
    :class:`~repro.errors.DeviceLostError` now and on every later launch.

Triggers compose per rule: an explicit ``nth`` call list (1-based, per
site and device), a modulus (``every``), and/or a per-call
``probability`` drawn from the plan's seeded RNG.  Two runs of the same
workload under the same plan inject the same faults.

The string syntax (CLI ``--plan``, docs/fault_injection.md)::

    site[@device][:key=value[,key=value...]][;site...]

    reserve:p=0.3                  30% of reservations fail
    launch@1:nth=2|5               device 1's 2nd and 5th launches fail
    transfer:p=0.5,stall=0.002     half the transfers stall 2 ms
    device_loss@0:nth=1            device 0 dies at its first launch
    pinned:every=4                 every 4th staging allocation fails
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import FaultPlanError

#: Every seam the injector can fail, in substrate order.
FAULT_SITES: tuple[str, ...] = (
    "reserve", "alloc", "launch", "transfer", "pinned", "device_loss",
)

# Seed chosen once so that plans without an explicit seed are stable
# across sessions (it is the paper's publication date).
DEFAULT_SEED = 20160626


@dataclass(frozen=True)
class FaultRule:
    """One site's trigger: *when* this seam fails (or stalls).

    A rule fires on a call when the call's device matches ``device_id``
    (``-1`` matches every device) and any trigger matches: the 1-based
    call index is in ``nth``, the index is a multiple of ``every``, or a
    seeded coin with ``probability`` comes up heads.  A rule with no
    trigger at all fires on every matching call.
    """

    site: str
    probability: float = 0.0
    nth: tuple[int, ...] = ()
    every: int = 0
    device_id: int = -1
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"{self.site}: probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if any(n < 1 for n in self.nth):
            raise FaultPlanError(f"{self.site}: nth indices are 1-based")
        if self.every < 0:
            raise FaultPlanError(f"{self.site}: every must be >= 0")
        if self.stall_seconds < 0:
            raise FaultPlanError(f"{self.site}: stall must be >= 0")
        if self.stall_seconds and self.site != "transfer":
            raise FaultPlanError(
                f"{self.site}: stall only applies to the transfer site"
            )

    @property
    def unconditional(self) -> bool:
        """True when the rule fires on every matching call."""
        return not self.nth and not self.every and self.probability == 0.0

    def matches_device(self, device_id: int) -> bool:
        return self.device_id < 0 or self.device_id == device_id

    def spec(self) -> str:
        """Render this rule back into the string syntax."""
        head = self.site
        if self.device_id >= 0:
            head += f"@{self.device_id}"
        params = []
        if self.probability:
            params.append(f"p={self.probability:g}")
        if self.nth:
            params.append("nth=" + "|".join(str(n) for n in self.nth))
        if self.every:
            params.append(f"every={self.every}")
        if self.stall_seconds:
            params.append(f"stall={self.stall_seconds:g}")
        return head + (":" + ",".join(params) if params else "")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered set of :class:`FaultRule` triggers.

    Plans are immutable values: hang one off
    :class:`repro.config.SystemConfig` (``faults=...``) and the engine
    arms a :class:`~repro.faults.injector.FaultInjector` over the
    substrate.  An empty plan injects nothing.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def for_site(self, site: str) -> tuple[FaultRule, ...]:
        """The rules registered for one injection site."""
        return tuple(r for r in self.rules if r.site == site)

    @property
    def active(self) -> bool:
        return bool(self.rules)

    def spec(self) -> str:
        """The plan in string syntax (round-trips through :meth:`parse`)."""
        return ";".join(rule.spec() for rule in self.rules)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    @classmethod
    def parse(cls, spec: str, seed: int = DEFAULT_SEED) -> "FaultPlan":
        """Parse the ``site[@dev][:k=v,...];...`` syntax into a plan."""
        if spec.strip() == "lossy":
            return cls.lossy().with_seed(seed)
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            rules.append(_parse_rule(chunk))
        if not rules:
            raise FaultPlanError(f"empty fault plan spec: {spec!r}")
        return cls(rules=tuple(rules), seed=seed)

    @classmethod
    def lossy(cls) -> "FaultPlan":
        """The default chaos plan: every site misbehaves, device 1 dies.

        Used by the ``chaos`` pytest marker job and ``--plan lossy`` on
        the CLI.  Probabilities are high enough that a BD Insights run
        exercises every recovery policy (retry, fallback, quarantine)
        while still offloading some work.
        """
        return cls(rules=(
            FaultRule(site="reserve", probability=0.25),
            FaultRule(site="pinned", probability=0.10),
            FaultRule(site="launch", probability=0.20),
            FaultRule(site="transfer", probability=0.30,
                      stall_seconds=2e-3),
            FaultRule(site="device_loss", device_id=1, nth=(3,)),
        ))

    @classmethod
    def total_device_loss(cls) -> "FaultPlan":
        """Every device dies at its first launch (the 100% loss case)."""
        return cls(rules=(FaultRule(site="device_loss", nth=(1,)),))


def _parse_rule(chunk: str) -> FaultRule:
    head, _, params = chunk.partition(":")
    site, _, device = head.partition("@")
    site = site.strip()
    kwargs: dict = {"site": site}
    if device:
        try:
            kwargs["device_id"] = int(device)
        except ValueError:
            raise FaultPlanError(f"bad device id in {chunk!r}") from None
    for param in filter(None, (p.strip() for p in params.split(","))):
        key, sep, value = param.partition("=")
        if not sep:
            raise FaultPlanError(f"expected key=value, got {param!r}")
        try:
            if key in ("p", "probability"):
                kwargs["probability"] = float(value)
            elif key == "nth":
                kwargs["nth"] = tuple(
                    int(v) for v in value.split("|") if v
                )
            elif key == "every":
                kwargs["every"] = int(value)
            elif key == "stall":
                kwargs["stall_seconds"] = float(value)
            else:
                raise FaultPlanError(
                    f"unknown fault parameter {key!r} in {chunk!r}"
                )
        except ValueError:
            raise FaultPlanError(
                f"bad value for {key!r} in {chunk!r}"
            ) from None
    return FaultRule(**kwargs)
