"""Differential profiling: attribute *why* two runs differ.

``repro bench --compare`` can prove that a workload regressed; this
module answers the follow-up question — *where did the delta go* — by
structurally aligning two :class:`~repro.obs.profile.QueryProfile`
operator trees and attributing the end-to-end difference to
**operator x component x device**, with the same exact sum-to-total
accounting the profiler guarantees per side:

    sum over operators of (self_b - self_a)  ==  total_b - total_a

(to float rounding), because each side's per-operator self-times sum to
its own total.  Added/removed operators participate with an all-zero
missing side, so plan-shape changes are attributed too, not skipped.

The diff reads one row per operator, ``[path, start, end,
self_components, device_seconds]`` in pre-order (:func:`profile_rows`).
The path has the form ``query#0/plan#0/op.groupby#0`` (name plus
occurrence index among same-named siblings), which is stable across
runs of the same plan and robust to sibling reordering of distinct
operators.

Two file-level entry points feed the CLI:

- profile JSON dumps (``QueryProfile.to_dict``) diff directly;
- committed ``BENCH_<workload>.json`` baselines diff through their
  ``PROFILE_<workload>.json`` sidecars (written by ``repro bench
  --update`` next to the baseline), which carry each benched query's
  operator rows without touching the byte-stable BENCH format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.baseline import Document, write_json
from repro.obs.profile import COMPONENTS, QueryProfile

#: Sidecar file schema version (bump when the JSON shape changes).
SIDECAR_FORMAT = 2


class DiffError(Exception):
    """Malformed profile dump / missing sidecar / un-diffable input."""


# ---------------------------------------------------------------------------
# Operator rows
# ---------------------------------------------------------------------------


def profile_rows(source: Union[QueryProfile, dict]) -> dict:
    """``{"query_id", "operators"}``: one ``[path, start, end,
    self_components, device_seconds]`` row per operator, in pre-order.

    ``source`` is a :class:`QueryProfile`, its ``to_dict`` dump, or a
    document whose operators are rows already (a sidecar entry).  The
    row lists are always new; raises :class:`DiffError` on anything else.
    """
    if isinstance(source, QueryProfile):
        source = source.to_dict()
    try:
        tree = source["operators"]
        if isinstance(tree, list):          # a sidecar entry: check it
            rows = [[str(path), float(start), float(end), dict(components),
                     dict(devices)]
                    for path, start, end, components, devices in tree]
        else:
            rows = []
            _walk(tree, f"{tree['name']}#0", rows)
        query_id = str(source.get("query_id", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise DiffError(f"not a profile dump: {exc}") from None
    if not rows:
        raise DiffError("not a profile dump: no operator rows")
    return {"query_id": query_id, "operators": rows}


def _walk(node: dict, path: str, rows: list) -> None:
    """Append the rows of the dumped subtree ``node`` at ``path``."""
    rows.append([path, node["start"], node["end"],
                 node.get("self_components", {}),
                 node.get("device_seconds", {})])
    seen: dict[str, int] = {}
    for child in node.get("children", ()):
        name = child["name"]
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        _walk(child, f"{path}/{name}#{occurrence}", rows)


# ---------------------------------------------------------------------------
# The diff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorDelta:
    """One aligned operator row of a :class:`ProfileDiff`."""

    path: str
    status: str                 # "matched" | "added" | "removed"
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


def diff_profiles(a: Union[QueryProfile, dict],
                  b: Union[QueryProfile, dict]) -> ProfileDiff:
    """Structurally align two profiles and attribute their delta."""
    doc_a, doc_b = profile_rows(a), profile_rows(b)
    rows_a = {row[0]: row for row in doc_a["operators"]}
    rows_b = {row[0]: row for row in doc_b["operators"]}
    operators = []
    for path in {**rows_a, **rows_b}:      # A's order, then B's new rows
        row_a, row_b = rows_a.get(path), rows_b.get(path)
        status = ("removed" if row_b is None
                  else "added" if row_a is None else "matched")
        components_a, devices_a = _side(row_a)
        components_b, devices_b = _side(row_b)
        operators.append(OperatorDelta(
            path=path, status=status,
            components_a=components_a, components_b=components_b,
            devices_a=devices_a, devices_b=devices_b))
    return ProfileDiff(
        query_a=doc_a["query_id"],
        query_b=doc_b["query_id"],
        total_a=_total(doc_a),
        total_b=_total(doc_b),
        operators=tuple(operators),
    )


def _side(row: Optional[list]) -> tuple[dict[str, float], dict[int, float]]:
    """One side's components and device seconds (empty when the side
    lacks the operator; JSON spells the device ids as strings)."""
    if row is None:
        return {}, {}
    return dict(row[3]), {int(d): s for d, s in row[4].items()}


def _total(doc: dict) -> float:
    """The root row's window, as :attr:`Span.duration
    <repro.obs.tracing.Span.duration>` reads it."""
    _path, start, end, *_ = doc["operators"][0]
    return max(0.0, end - start)


# ---------------------------------------------------------------------------
# Slowdown scaling (the gate's attributable self-test)
# ---------------------------------------------------------------------------


def scale_profile_dict(data: dict, factor: float,
                       component: Optional[str] = None) -> dict:
    """Scale a profile dump's operator rows by ``factor`` — the
    ``--slowdown`` hook.

    With ``component=None`` every timing scales uniformly (matching the
    historical ``--slowdown`` behaviour).  With a component named, only
    that component's attributed seconds scale, and each row's (and the
    query's) end moves by exactly the seconds added underneath it — so
    the *entire* injected delta lands in one attribution bucket and
    ``repro bench --compare --explain`` must name it.

    Returns ``data`` with its ``operators`` as the scaled rows and
    without the totals they would contradict; every other key (the
    decisions a gate reads) is carried over as it is.
    """
    if component is not None and component not in COMPONENTS:
        raise DiffError(
            f"unknown component {component!r}; expected one of {COMPONENTS}")
    rows = profile_rows(data)["operators"]      # fresh row lists
    if component is None:
        rows = [[path, start * factor, end * factor,
                 {c: v * factor for c, v in components.items()},
                 {d: s * factor for d, s in devices.items()}]
                for path, start, end, components, devices in rows]
    else:
        _stretch(rows, 0, factor, component)
    out = {key: value for key, value in data.items()
           if key not in ("duration_seconds", "component_totals")}
    out["operators"] = rows
    return out


def _stretch(rows: list, index: int, factor: float,
             component: str) -> tuple[int, float]:
    """Scale ``component`` in the subtree rooted at ``rows[index]``;
    returns the index past the subtree and the seconds its end moved."""
    row = rows[index]
    components = row[3]
    extra = 0.0
    if component in components:
        extra = (factor - 1.0) * components[component]
        row[3] = {**components, component: components[component] * factor}
    prefix = row[0] + "/"
    end = index + 1
    while end < len(rows) and rows[end][0].startswith(prefix):
        end, moved = _stretch(rows, end, factor, component)
        extra += moved
    row[2] += extra
    return end, extra


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
    """Write each query's operator rows (:func:`profile_rows`) as a
    byte-stable sidecar file."""
    return write_json(path, {
        "format": SIDECAR_FORMAT,
        **(meta or {}),
        "profiles": {qid: profile_rows(profiles[qid])
                     for qid in sorted(profiles)},
    })


class ProfileSidecar(Document):
    """The ``PROFILE_*`` family (loaded, never gated)."""

    error = DiffError
    noun = "sidecar "
    missing = ("no profile sidecar at {path} — rerun "
               "`repro bench <workload> --update` (it writes the sidecar "
               "next to the baseline) and commit both files")
    accepts = {"format": SIDECAR_FORMAT}
    wrong = f"has format {{format!r}}, expected {SIDECAR_FORMAT}"


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
    """Diff every overlapping query's profile (dump or rows), newest vs
    baseline."""
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
    """Profiles keyed by query id, from either supported file kind."""
    name = os.path.basename(path)
    if name.startswith("BENCH_"):
        return _load_profiles_for(sidecar_path(path))
    if name.startswith("PROFILE_"):
        return dict(ProfileSidecar.load(path).get("profiles", {}))
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
