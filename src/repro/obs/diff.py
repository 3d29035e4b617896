"""Differential profiling: attribute *why* two runs differ.

``repro bench --compare`` can prove that a workload regressed; this
module answers the follow-up question — *where did the delta go* — by
structurally aligning two :class:`~repro.obs.profile.QueryProfile`
trees and attributing the end-to-end difference to
**operator x component x device**, with the same exact sum-to-total
accounting the profiler guarantees per side:

    sum over operators of (self_b - self_a)  ==  total_b - total_a

(to float rounding), because each side's per-operator self-times sum to
its own total.  Added/removed operators participate with an all-zero
missing side, so plan-shape changes are attributed too, not skipped.

Alignment is by *operator path*: each tree node gets a key of the form
``query#0/plan#0/op.groupby#0`` (name plus occurrence index among
same-named siblings), which is stable across runs of the same plan and
robust to sibling reordering of distinct operators.

Two file-level entry points feed the CLI:

- profile JSON dumps (``QueryProfile.to_dict``) diff directly;
- committed ``BENCH_<workload>.json`` baselines diff through their
  ``PROFILE_<workload>.json`` sidecars (written by ``repro bench
  --update`` next to the baseline), which carry each benched query's
  attributed profile without touching the byte-stable BENCH format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.baseline import Document, write_json
from repro.obs.profile import COMPONENTS, OperatorNode, QueryProfile

#: Sidecar file schema version (bump when the JSON shape changes).
SIDECAR_FORMAT = 1


class DiffError(Exception):
    """Malformed profile dump / missing sidecar / un-diffable input."""


# ---------------------------------------------------------------------------
# QueryProfile <-> dict round trip
# ---------------------------------------------------------------------------


def profile_to_dict(profile: QueryProfile) -> dict:
    """The JSON form of ``profile`` (alias of ``to_dict`` for symmetry)."""
    return profile.to_dict()


def profile_from_dict(data: dict) -> QueryProfile:
    """Rebuild a :class:`QueryProfile` from its ``to_dict`` form.

    The inverse is exact for everything ``to_dict`` emits:
    ``profile_from_dict(p.to_dict()).to_dict() == p.to_dict()`` — the
    invariant the round-trip tests pin — so a profile can be dumped to
    JSON, committed, reloaded, and diffed losslessly.
    """
    try:
        return QueryProfile.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise DiffError(f"not a profile dump: {exc}") from None


# ---------------------------------------------------------------------------
# Structural alignment
# ---------------------------------------------------------------------------


def operator_paths(root: OperatorNode) -> list[tuple[str, OperatorNode]]:
    """Pre-order ``(path, node)`` pairs with occurrence-indexed keys."""
    out: list[tuple[str, OperatorNode]] = []

    def visit(node: OperatorNode, prefix: str) -> None:
        out.append((prefix, node))
        seen: dict[str, int] = {}
        for child in node.children:
            occurrence = seen.get(child.name, 0)
            seen[child.name] = occurrence + 1
            visit(child, f"{prefix}/{child.name}#{occurrence}")

    visit(root, f"{root.name}#0")
    return out


# ---------------------------------------------------------------------------
# The diff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorDelta:
    """One aligned operator row of a :class:`ProfileDiff`."""

    path: str
    name: str
    status: str                 # "matched" | "added" | "removed"
    duration_a: float
    duration_b: float
    components_a: dict[str, float]
    components_b: dict[str, float]
    devices_a: dict[int, float]
    devices_b: dict[int, float]

    @property
    def self_a(self) -> float:
        return sum(self.components_a.values())

    @property
    def self_b(self) -> float:
        return sum(self.components_b.values())

    @property
    def self_delta(self) -> float:
        """Attributed seconds this operator contributes to the total delta."""
        return self.self_b - self.self_a

    def component_delta(self) -> dict[str, float]:
        """Per-component delta (B minus A), zero-components included."""
        return {
            c: self.components_b.get(c, 0.0) - self.components_a.get(c, 0.0)
            for c in COMPONENTS
        }

    def device_delta(self) -> dict[int, float]:
        """Per-device occupied-seconds delta (B minus A)."""
        devices = sorted(set(self.devices_a) | set(self.devices_b))
        return {
            d: self.devices_b.get(d, 0.0) - self.devices_a.get(d, 0.0)
            for d in devices
        }

    def top_component(self) -> tuple[str, float]:
        """The component with the largest absolute delta."""
        deltas = self.component_delta()
        name = max(deltas, key=lambda c: abs(deltas[c]))
        return name, deltas[name]


@dataclass(frozen=True)
class ProfileDiff:
    """Operator x component x device attribution of a total-time delta."""

    query_a: str
    query_b: str
    total_a: float
    total_b: float
    operators: tuple[OperatorDelta, ...] = ()

    @property
    def total_delta(self) -> float:
        return self.total_b - self.total_a

    @property
    def attributed_delta(self) -> float:
        """Sum of per-operator self deltas.

        Equals :attr:`total_delta` to float rounding — the exact
        accounting invariant inherited from the profiler.
        """
        return sum(op.self_delta for op in self.operators)

    def component_totals(self) -> dict[str, float]:
        """Delta seconds per component, summed over all operators."""
        totals = {c: 0.0 for c in COMPONENTS}
        for op in self.operators:
            for component, delta in op.component_delta().items():
                totals[component] += delta
        return totals

    def device_totals(self) -> dict[int, float]:
        """Delta occupied seconds per device, summed over operators."""
        totals: dict[int, float] = {}
        for op in self.operators:
            for device, delta in op.device_delta().items():
                totals[device] = totals.get(device, 0.0) + delta
        return totals

    def top_operators(self, limit: int = 5) -> list[OperatorDelta]:
        """Operators by absolute attributed delta, largest first."""
        ranked = sorted(self.operators,
                        key=lambda op: (-abs(op.self_delta), op.path))
        return [op for op in ranked if op.self_delta][:limit]

    def to_text(self, limit: int = 10) -> str:
        """Human-readable attribution report."""
        ms = 1e3
        lines = [
            f"profile diff  A={self.query_a or '?'}  B={self.query_b or '?'}",
            f"total: {self.total_a * ms:.3f} -> {self.total_b * ms:.3f} ms  "
            f"(delta {self.total_delta * ms:+.3f} ms)",
        ]
        components = self.component_totals()
        moved = [(c, v) for c, v in components.items() if v]
        if moved:
            lines.append(
                "by component: "
                + "  ".join(f"{c} {v * ms:+.3f}ms" for c, v in moved))
            top = max(moved, key=lambda cv: abs(cv[1]))
            lines.append(f"top component: {top[0]} ({top[1] * ms:+.3f}ms)")
        devices = {d: v for d, v in self.device_totals().items() if v}
        if devices:
            lines.append(
                "by device: "
                + "  ".join(f"GPU{d} {v * ms:+.3f}ms"
                            for d, v in sorted(devices.items())))
        top_ops = self.top_operators(limit)
        if top_ops:
            lines.append("operators (largest attributed delta first):")
            for op in top_ops:
                component, delta = op.top_component()
                marker = {"added": " [added]",
                          "removed": " [removed]"}.get(op.status, "")
                lines.append(
                    f"  {op.path:44} {op.self_delta * ms:+9.3f} ms  "
                    f"mostly {component} ({delta * ms:+.3f}ms){marker}")
        lines.append(
            f"attributed {self.attributed_delta * ms:+.3f} of "
            f"{self.total_delta * ms:+.3f} ms")
        return "\n".join(lines)


def _as_profile(source: Union[QueryProfile, dict]) -> QueryProfile:
    if isinstance(source, QueryProfile):
        return source
    if isinstance(source, dict):
        return profile_from_dict(source)
    raise DiffError(
        f"cannot diff a {type(source).__name__}; expected QueryProfile "
        "or its to_dict() form")


def diff_profiles(a: Union[QueryProfile, dict],
                  b: Union[QueryProfile, dict]) -> ProfileDiff:
    """Structurally align two profiles and attribute their delta."""
    prof_a = _as_profile(a)
    prof_b = _as_profile(b)
    paths_a = dict(operator_paths(prof_a.root))
    paths_b = dict(operator_paths(prof_b.root))
    ordered = list(paths_a)
    ordered.extend(p for p in paths_b if p not in paths_a)
    operators = []
    for path in ordered:
        node_a = paths_a.get(path)
        node_b = paths_b.get(path)
        if node_a is not None and node_b is not None:
            status = "matched"
        elif node_a is not None:
            status = "removed"
        else:
            status = "added"
        operators.append(OperatorDelta(
            path=path,
            name=(node_a or node_b).name,
            status=status,
            duration_a=node_a.duration if node_a else 0.0,
            duration_b=node_b.duration if node_b else 0.0,
            components_a=dict(node_a.self_components) if node_a else {},
            components_b=dict(node_b.self_components) if node_b else {},
            devices_a=dict(node_a.device_seconds) if node_a else {},
            devices_b=dict(node_b.device_seconds) if node_b else {},
        ))
    return ProfileDiff(
        query_a=prof_a.query_id,
        query_b=prof_b.query_id,
        total_a=prof_a.duration,
        total_b=prof_b.duration,
        operators=tuple(operators),
    )


# ---------------------------------------------------------------------------
# Slowdown scaling (the gate's attributable self-test)
# ---------------------------------------------------------------------------


def scale_profile_dict(data: dict, factor: float,
                       component: Optional[str] = None) -> dict:
    """Scale a profile dump by ``factor`` — the ``--slowdown`` hook.

    With ``component=None`` every timing scales uniformly (matching the
    historical ``--slowdown`` behaviour).  With a component named, only
    that component's attributed seconds scale, and each node's (and the
    query's) duration grows by exactly the seconds added underneath it —
    so the *entire* injected delta lands in one attribution bucket and
    ``repro bench --compare --explain`` must name it.
    """
    if component is not None and component not in COMPONENTS:
        raise DiffError(
            f"unknown component {component!r}; expected one of {COMPONENTS}")
    profile = profile_from_dict(data)

    def scale(node: OperatorNode) -> float:
        """Scale ``node``'s subtree; returns the seconds its end moved."""
        span, components = node.span, node.self_components
        if component is None:
            span.start *= factor
            span.end *= factor
            for name in components:
                components[name] *= factor
            node.device_seconds = {device: seconds * factor for device,
                                   seconds in node.device_seconds.items()}
            for child in node.children:
                scale(child)
            return 0.0
        extra = (factor - 1.0) * components[component]
        components[component] *= factor
        for child in node.children:
            extra += scale(child)
        span.end += extra
        return extra

    scale(profile.root)
    return profile.to_dict()


# ---------------------------------------------------------------------------
# PROFILE_* sidecar IO
# ---------------------------------------------------------------------------


def sidecar_path(bench_path: str) -> str:
    """``.../BENCH_x.json`` -> ``.../PROFILE_x.json`` (same directory)."""
    directory, name = os.path.split(bench_path)
    if not name.startswith("BENCH_"):
        raise DiffError(
            f"{bench_path} is not a BENCH_* baseline, cannot derive its "
            "profile sidecar path")
    return os.path.join(directory, "PROFILE_" + name[len("BENCH_"):])


def write_profile_sidecar(path: str, profiles: dict[str, dict],
                          meta: Optional[dict] = None) -> str:
    """Write per-query profile dumps as a byte-stable sidecar file."""
    return write_json(path, {
        "format": SIDECAR_FORMAT,
        **(meta or {}),
        "profiles": {qid: profiles[qid] for qid in sorted(profiles)},
    })


class ProfileSidecar(Document):
    """The ``PROFILE_*`` family (loaded, never gated)."""

    error = DiffError
    noun = "sidecar "
    missing = ("no profile sidecar at {path} — rerun "
               "`repro bench <workload> --update` (it writes the sidecar "
               "next to the baseline) and commit both files")


class ProfileFile(ProfileSidecar):
    """Any JSON file ``repro profile-diff`` is pointed at."""

    noun = ""
    missing = "no such file: {path}"
    accepts = {}


# ---------------------------------------------------------------------------
# Workload-level attribution (``repro bench --compare --explain``)
# ---------------------------------------------------------------------------


@dataclass
class BenchExplanation:
    """Aggregated attribution of a bench run's delta vs its baseline."""

    diffs: dict[str, ProfileDiff] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    @property
    def total_delta(self) -> float:
        return sum(d.total_delta for d in self.diffs.values())

    def component_totals(self) -> dict[str, float]:
        totals = {c: 0.0 for c in COMPONENTS}
        for diff in self.diffs.values():
            for component, delta in diff.component_totals().items():
                totals[component] += delta
        return totals

    def top_rows(self, limit: int = 8) -> list[tuple[str, OperatorDelta]]:
        """(query_id, operator delta) ranked by absolute delta."""
        rows = [
            (qid, op)
            for qid, diff in self.diffs.items()
            for op in diff.operators
            if op.self_delta
        ]
        rows.sort(key=lambda row: (-abs(row[1].self_delta), row[0],
                                   row[1].path))
        return rows[:limit]

    def to_text(self, limit: int = 8) -> str:
        ms = 1e3
        lines = ["== differential profile (current vs baseline) =="]
        if not self.diffs:
            lines.append("(no overlapping profiled queries)")
            return "\n".join(lines)
        lines.append(
            f"queries diffed: {len(self.diffs)}  "
            f"end-to-end delta {self.total_delta * ms:+.3f} ms")
        moved = [(c, v) for c, v in self.component_totals().items() if v]
        if moved:
            lines.append(
                "by component: "
                + "  ".join(f"{c} {v * ms:+.3f}ms" for c, v in moved))
            top = max(moved, key=lambda cv: abs(cv[1]))
            lines.append(f"top component: {top[0]} ({top[1] * ms:+.3f}ms)")
        rows = self.top_rows(limit)
        if rows:
            lines.append("top regressing operators:")
            for qid, op in rows:
                component, delta = op.top_component()
                lines.append(
                    f"  {qid:10} {op.path:40} "
                    f"{op.self_delta * ms:+9.3f} ms  "
                    f"mostly {component} ({delta * ms:+.3f}ms)")
        for note in self.skipped:
            lines.append(f"  (skipped {note})")
        return "\n".join(lines)


def explain_bench_delta(current: dict[str, dict],
                        baseline: dict[str, dict]) -> BenchExplanation:
    """Diff every overlapping query's profile dump, newest vs baseline."""
    out = BenchExplanation()
    for qid in sorted(set(current) & set(baseline)):
        out.diffs[qid] = diff_profiles(baseline[qid], current[qid])
    for qid in sorted(set(current) ^ set(baseline)):
        side = "baseline" if qid in baseline else "current"
        out.skipped.append(f"{qid}: only in {side}")
    return out


# ---------------------------------------------------------------------------
# File-level entry point (``repro profile-diff A B``)
# ---------------------------------------------------------------------------


def _load_profiles_for(path: str) -> dict[str, dict]:
    """Profile dumps keyed by query id, from either supported file kind."""
    name = os.path.basename(path)
    if name.startswith("BENCH_"):
        doc = ProfileSidecar.load(sidecar_path(path))
        return dict(doc.get("profiles", {}))
    if name.startswith("PROFILE_"):
        doc = ProfileSidecar.load(path)
        return dict(doc.get("profiles", {}))
    doc = ProfileFile.load(path)
    if "profiles" in doc:
        return dict(doc["profiles"])
    if "operators" in doc:
        return {str(doc.get("query_id", name)): doc}
    raise DiffError(
        f"{path}: expected a QueryProfile dump, a PROFILE_* sidecar, or "
        "a BENCH_* baseline with a sidecar next to it")


def diff_baselines(path_a: str, path_b: str) -> str:
    """Render the attribution report between two profile-bearing files.

    Accepts any mix of single-profile JSON dumps, ``PROFILE_*``
    sidecars, and ``BENCH_*`` baselines (resolved through their
    sidecars); B is treated as "current", A as "baseline".
    """
    profiles_a = _load_profiles_for(path_a)
    profiles_b = _load_profiles_for(path_b)
    if len(profiles_a) == 1 and len(profiles_b) == 1:
        (qa, da), = profiles_a.items()
        (qb, db), = profiles_b.items()
        return diff_profiles(da, db).to_text()
    explanation = explain_bench_delta(profiles_b, profiles_a)
    return explanation.to_text()
