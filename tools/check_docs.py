#!/usr/bin/env python
"""Docs referential-integrity gate (CI "docs" job).

Two failure classes, both of which have bitten hand-maintained docs:

1. **Dangling intra-doc links** — ``[text](other.md)`` pointing at a
   file that does not exist (moved, renamed, never written).
2. **Phantom code references** — a dotted ``repro.*`` name in the prose
   or a code span that no longer imports (renamed module, deleted
   symbol).  Every ``repro.something[.more]`` mention must resolve to a
   real module or attribute; a trailing ``*`` is treated as a wildcard
   and only the parent is resolved.  In a ``from repro.x import a, b``
   line each imported name must resolve too (``repro.x.a``,
   ``repro.x.b``).

External links (``http...``) and pure page anchors (``#section``) are
out of scope.  Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

import importlib
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every markdown surface that links into docs/ or names repro symbols.
DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
] + sorted(
    os.path.join("docs", name)
    for name in os.listdir(os.path.join(REPO, "docs"))
    if name.endswith(".md")
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SYMBOL = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
# ``from repro.x import a, b as c`` or ``from repro.x import (a,\n b)``.
_FROM_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]+)",
    re.MULTILINE)


def check_links(doc_path: str, text: str) -> list:
    """Dangling relative links in one document."""
    errors = []
    base = os.path.dirname(os.path.join(REPO, doc_path))
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not os.path.exists(os.path.join(base, path)):
            errors.append(f"{doc_path}: dangling link -> {target}")
    return errors


def resolve_symbol(dotted: str, wildcard: bool) -> bool:
    """True when ``dotted`` is an importable module or attribute chain."""
    if wildcard:
        # "repro.gpu.kernels.groupby_*": resolve the parent, then ask
        # for any attribute/submodule matching the prefix.
        parent, _, prefix = dotted.rpartition(".")
        if not resolve_symbol(parent, wildcard=False):
            return False
        module = sys.modules.get(parent)
        if module is None:
            return True        # parent was an attribute; accept
        if any(name.startswith(prefix) for name in dir(module)):
            return True
        pkg_dir = getattr(module, "__path__", None)
        if pkg_dir:
            for entry in pkg_dir:
                for fname in os.listdir(entry):
                    if fname.startswith(prefix):
                        return True
        return False
    parts = dotted.split(".")
    # Longest importable module prefix, then getattr the remainder.
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def imported_names(text: str) -> list:
    """``repro.x.a`` for every name ``a`` a ``from repro.x import`` line
    of ``text`` imports."""
    dotted = []
    for module, names in _FROM_IMPORT.findall(text):
        for line in names.strip("()").splitlines():
            for name in line.split("#", 1)[0].split(","):
                name = name.split(" as ", 1)[0].strip()
                if name and name != "*":
                    dotted.append(f"{module}.{name}")
    return dotted


def check_symbols(doc_path: str, text: str) -> list:
    """Phantom ``repro.*`` references in one document."""
    errors = []
    seen = set()
    mentions = [(m.group(0), text[m.end():m.end() + 1] == "*")
                for m in _SYMBOL.finditer(text)]
    mentions += [(dotted, False) for dotted in imported_names(text)]
    for dotted, wildcard in mentions:
        if (dotted, wildcard) in seen:
            continue
        seen.add((dotted, wildcard))
        if not resolve_symbol(dotted, wildcard):
            errors.append(f"{doc_path}: unresolvable symbol {dotted}"
                          + ("*" if wildcard else ""))
    return errors


def main() -> int:
    """Check every doc; print each problem; non-zero exit on any."""
    errors = []
    for doc_path in DOC_FILES:
        full = os.path.join(REPO, doc_path)
        if not os.path.exists(full):
            errors.append(f"{doc_path}: listed but missing")
            continue
        with open(full) as fh:
            text = fh.read()
        errors.extend(check_links(doc_path, text))
        errors.extend(check_symbols(doc_path, text))
    for line in errors:
        print(f"FAIL {line}")
    if not errors:
        print(f"docs ok: {len(DOC_FILES)} files, links and repro.* "
              "references all resolve")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
