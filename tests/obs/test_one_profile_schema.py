"""One profile schema: the structural claim, counted.

EXPLAIN ANALYZE's event sections and path-selection verdicts are rows of
two tables in :mod:`repro.obs.profile` (``SECTIONS`` and ``VERDICTS``);
building, summing, serialising and printing a section is one
loop over the table, not a hand-written block per section.  Each
assertion below failed before the change it pins.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
from pathlib import Path

from repro.obs import profile
from repro.obs.profile import SECTIONS, VERDICTS, QueryProfile

OBS = Path(profile.__file__).parent

#: Lookup maps keyed by span name for another concern than sections
#: (the attribution component, the HTML colour).
_SPAN_KEYED_MAPS = ("_SPAN_COMPONENT", "_HTML_COLORS")


def _string_literals(path: Path, skip_maps: bool = False) -> list[str]:
    """Every string constant in ``path``, minus the keys of the
    span-keyed lookup maps when ``skip_maps``."""
    tree = ast.parse(path.read_text())
    skipped: set[int] = set()
    if skip_maps:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name)
                            and t.id in _SPAN_KEYED_MAPS
                            for t in node.targets)):
                skipped.update(id(key) for key in node.value.keys)
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in skipped]


def test_query_profile_has_no_per_section_members():
    names = [f.name for f in dataclasses.fields(QueryProfile)]
    assert not [n for n in names if n.endswith("_events")], names
    methods = [n for n in dir(QueryProfile) if n.endswith("_summary")]
    assert not methods, methods


def test_each_section_span_name_is_spelled_once_in_the_table():
    literals = (_string_literals(OBS / "profile.py", skip_maps=True)
                + _string_literals(OBS / "diff.py"))
    for section in SECTIONS:
        for name in section.spans:
            assert literals.count(name) == 1, (section.key, name)


def test_diff_names_no_section_or_verdict_kind():
    kinds = {section.key for section in SECTIONS}
    kinds |= {name for section in SECTIONS for name in section.spans}
    kinds |= {gate.span for gate in VERDICTS}
    kinds |= {gate.operator for gate in VERDICTS}
    named = kinds & set(_string_literals(OBS / "diff.py"))
    assert not named, named


def test_collect_verdicts_has_no_per_gate_branch():
    tree = ast.parse(inspect.getsource(profile._collect_verdicts))
    compared = [node for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(isinstance(side, ast.Constant)
                        and isinstance(side.value, str)
                        for side in [node.left, *node.comparators])]
    assert not compared, [ast.unparse(node) for node in compared]
    source = inspect.getsource(profile._collect_verdicts)
    assert not [gate.span for gate in VERDICTS if gate.span in source]


def test_every_wave_reports():
    """No wave can opt out of its ``shard.*`` / ``partition.*`` instants
    (the segmented sort's shard wave once did, hiding it from the
    shards section)."""
    from repro.core.dispatch import Dispatcher, Wave

    assert "instants" not in inspect.signature(Wave.__init__).parameters
    assert "instants" not in inspect.signature(Dispatcher.wave).parameters


def test_no_reload_path_and_sidecar_rows_carry_five_fields():
    """Nothing rebuilds a profile from its dump, and a ``PROFILE_*`` row
    is ``[path, start, end, self_components, device_seconds]``: the
    operator x component x device attribution, nothing else."""
    for name in ("profile.py", "diff.py"):
        assert "from_dict" not in (OBS / name).read_text(), name
    sidecars = sorted((OBS.parents[2] / "benchmarks" / "baselines")
                      .glob("PROFILE_*.json"))
    assert sidecars
    for path in sidecars:
        for entry in json.loads(path.read_text())["profiles"].values():
            assert set(entry) == {"query_id", "operators"}, path
            for row in entry["operators"]:
                assert [type(v) for v in row] == [str, float, float, dict,
                                                  dict], (path, row)
