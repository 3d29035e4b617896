"""Committed baseline documents and the one gate that judges them.

Every result this repository commits has one shape — a run identity
(workload, scale, seed, degree, the execution knobs of
:data:`repro.config.KNOBS`) over a table of rows (query classes, device
counts, session counts) of metrics — and one contract: the simulation is
deterministic, so a fresh run at the same identity reproduces the file
exactly, and any drift is a real behaviour change.  This module is that
idea written once: :class:`Document` (byte-stable write, the one
loader), :class:`Comparison` (the verdict) and :func:`compare` (the
two-sided gate).  ``repro.obs.bench.BenchResult`` (class documents and
the scale-out ladder), ``repro.obs.serving.SweepResult`` (the serving
sweep) and ``repro.obs.diff.ProfileSidecar`` are the families; what
differs between them is class-level data, not code.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Optional

from repro.config import KNOBS

#: Metric directions for :attr:`Document.metrics`.
LOWER = "better-is-lower"
HIGHER = "better-is-higher"


class BenchError(Exception):
    """Unknown workload or class / malformed or missing baseline."""


@dataclass
class Comparison:
    """A verdict: what failed, what is worth a warning, and context."""

    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def absorb(self, other: "Comparison", prefix: str = "") -> None:
        """Fold another verdict's lines into this one."""
        self.failures += [prefix + line for line in other.failures]
        self.warnings += [prefix + line for line in other.warnings]
        self.notes += [prefix + line for line in other.notes]

    def to_text(self, ok: str = "within tolerance of committed baseline"
                ) -> str:
        lines = [f"FAIL  {failure}" for failure in self.failures]
        lines += [f"warn  {warning}" for warning in self.warnings]
        lines += [f"note  {note}" for note in self.notes]
        if self.ok:
            lines.append(f"OK    {ok}")
        return "\n".join(lines)


class Document:
    """One family of committed JSON documents.

    Subclasses provide :meth:`to_dict` and override the class-level data
    below: how a file of the family is named in load errors, and — for
    the gated families — which rows and metrics :func:`compare` judges
    and the exact wording of its verdict lines.
    """

    #: Raised by :meth:`load`.
    error: ClassVar[type] = BenchError
    #: How load errors call the file (with its trailing space).
    noun: ClassVar[str] = "baseline "
    #: The whole message for an absent file (``{path}`` is filled in).
    missing: ClassVar[str] = ""
    #: Top-level values a file of the family must carry, and what to say
    #: of one that does not (``{format}`` / ``{kind}`` are the file's).
    accepts: ClassVar[Mapping] = {"format": 1}
    wrong: ClassVar[str] = "has format {format!r}, expected 1"

    #: Top-level key of the judged rows, how a row is called in a
    #: verdict line, and the row key (and its noun) that must match
    #: exactly before any metric is worth comparing.
    rows: ClassVar[str] = ""
    label: ClassVar[str] = "{}"
    count: ClassVar[tuple[str, str]] = ("", "")
    #: ``{metric: LOWER | HIGHER}``, judged two-sided per row.
    metrics: ClassVar[Mapping[str, str]] = {}
    #: Verdict wording past ``"<row>: <metric> "`` (fields: pct, ref,
    #: value, tol, workload).
    regressed: ClassVar[str] = ""
    improved: ClassVar[str] = ""
    #: Identity keys checked after workload/scale/seed/degree + knobs.
    identity: ClassVar[tuple[str, ...]] = ()
    #: When set, the row set must equal the baseline's and this names it
    #: in the failure; otherwise a subset run is fine.
    ladder: ClassVar[str] = ""
    #: Whether every mismatched knob has a flag on the family's command
    #: (so the mismatch summary can spell the flags that restore it).
    knob_flags: ClassVar[bool] = False

    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, rounded floats, trailing \\n)."""
        return dump_json(self.to_dict())

    def write(self, path: str) -> str:
        return write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> dict:
        """Parse a committed file; raises :attr:`error` when unusable."""
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise cls.error(cls.missing.format(path=path)) from None
        except json.JSONDecodeError as exc:
            raise cls.error(
                f"{cls.noun}{path} is not valid JSON: {exc}") from None
        if any(doc.get(key) != value for key, value in cls.accepts.items()):
            raise cls.error(f"{cls.noun}{path} " + cls.wrong.format(
                format=doc.get("format"), kind=doc.get("kind")))
        return doc

    @staticmethod
    def row_warnings(label: str, row: dict, base: dict,
                     tolerance: float) -> list[str]:
        """Moves that explain a failure rather than constitute one."""
        return []

    def finish(self, out: Comparison, baseline: dict,
               tolerance: float) -> None:
        """Family-specific checks past the row table."""


def row_dict(stat, drop: tuple[str, ...] = ()) -> dict:
    """A stat dataclass as a committed row: floats rounded to 6 places."""
    return {key: round(value, 6) if isinstance(value, float) else value
            for key, value in dataclasses.asdict(stat).items()
            if key not in drop}


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_json(path: str, doc: dict) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_json(doc))
    return path


def _relative_delta(value: float, reference: float) -> float:
    """Signed relative change, with an epsilon floor against 0-baselines."""
    if reference <= 1e-12:
        return 0.0 if value <= 1e-12 else float("inf")
    return (value - reference) / reference


def _row_order(name: str):
    """Numeric row names (session counts) numerically, the rest by name."""
    return (int(name) if name.isdigit() else 0, name)


def compare(current: Document, baseline: dict, tolerance: float = 0.10,
            baseline_path: Optional[str] = None) -> Comparison:
    """Diff a fresh run against a committed document of its family.

    Metric moves beyond ``tolerance`` (relative, per row) are failures
    in *both* directions: a regression means the engine got slower, and
    an improvement means the committed baseline is stale — either way
    the tree no longer matches its recorded trajectory, and the fix for
    the latter is to rerun with ``--update`` and commit the refreshed
    file.  Identity mismatches (workload/scale/seed/degree, every knob
    the baseline records, the family's own keys) are failures outright:
    the simulation is deterministic, so comparing different configs is
    comparing nothing.  Knobs are only checked when the baseline records
    them, so baselines written before a knob existed stay comparable;
    where the family's command has the flags, the summary names the
    exact ones that restore each baseline value.
    """
    kind = type(current)
    cur = current.to_dict()
    out = Comparison()
    recorded = [key for key in KNOBS if key in baseline]
    keys = ["workload", "scale", "seed", "degree", *recorded, *kind.identity]
    mismatched = [key for key in keys if cur.get(key) != baseline.get(key)]
    if mismatched:
        for key in mismatched:
            out.failures.append(
                f"config mismatch: {key} is {cur.get(key)!r}, baseline has "
                f"{baseline.get(key)!r}")
        if kind.knob_flags:
            where = baseline_path or "the committed baseline"
            hints = " ".join(
                f"{KNOBS[key].flag} {KNOBS[key].render(baseline[key])}"
                for key in mismatched if key in recorded)
            out.failures.append(
                f"config identity failed on {', '.join(mismatched)} — the "
                f"simulation is deterministic per config, so this run is "
                f"not comparable to {where}; rerun with matching knobs"
                + (f" (e.g. {hints})" if hints else "")
                + " or refresh the baseline with --update")
        return out

    cur_rows = cur[kind.rows]
    base_rows = baseline.get(kind.rows, {})
    if kind.ladder and sorted(base_rows) != sorted(cur_rows):
        out.failures.append(
            f"{kind.ladder} changed: {sorted(cur_rows)} vs baseline "
            f"{sorted(base_rows)}")
        return out
    count, count_noun = kind.count
    for name in sorted(cur_rows, key=_row_order):
        if name not in base_rows:
            out.warnings.append(f"class {name!r} has no baseline entry")
            continue
        row, base = cur_rows[name], base_rows[name]
        label = kind.label.format(name)
        if row[count] != base.get(count):
            # Percentiles over different populations are not comparable.
            out.failures.append(
                f"{label}: {count_noun} count {row[count]} != baseline "
                f"{base.get(count)}")
            continue
        for metric, direction in kind.metrics.items():
            ref = float(base.get(metric, 0.0))
            value = float(row[metric])
            delta = _relative_delta(value, ref)
            if direction == HIGHER:
                delta = -delta
            if abs(delta) > tolerance:
                wording = kind.regressed if delta > 0 else kind.improved
                out.failures.append(f"{label}: {metric} " + wording.format(
                    pct=abs(delta) * 100, ref=ref, value=value,
                    tol=tolerance * 100, workload=cur["workload"]))
        out.warnings += kind.row_warnings(label, row, base, tolerance)
    current.finish(out, baseline, tolerance)
    return out
