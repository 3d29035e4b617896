"""Docs stay runnable: execute every python snippet in the GPU docs.

Each document's ```python fences run in order inside one shared
namespace (later snippets may build on earlier ones), so a stale import,
renamed symbol, or broken claim in `docs/fusion.md` or
`docs/gpu_cache.md` fails the suite instead of silently rotting.  The
other documents' links and ``repro.*`` references go through
``tools/check_docs.py``.
"""

import importlib.util
import os
import re

import pytest


DOCS_DIR = os.path.join(os.path.dirname(__file__), "..", "docs")
CHECK_DOCS = os.path.join(os.path.dirname(__file__), "..", "tools",
                          "check_docs.py")

_FENCE = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_snippets(doc_name):
    with open(os.path.join(DOCS_DIR, doc_name)) as fh:
        return _FENCE.findall(fh.read())


@pytest.mark.parametrize("doc_name", ["fusion.md", "gpu_cache.md"])
def test_doc_has_runnable_snippets(doc_name):
    assert python_snippets(doc_name), f"{doc_name} lost its examples"


@pytest.mark.parametrize("doc_name", ["fusion.md", "gpu_cache.md"])
def test_doc_snippets_execute(doc_name):
    namespace = {}
    for i, snippet in enumerate(python_snippets(doc_name)):
        code = compile(snippet, f"{doc_name}[snippet {i}]", "exec")
        exec(code, namespace)    # noqa: S102 - executing our own docs


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", CHECK_DOCS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_doc_reference_resolves(check_docs, capsys):
    assert check_docs.main() == 0, capsys.readouterr().out


def test_names_a_from_import_line_imports_must_resolve(check_docs):
    good = ("from repro.obs.diff import diff_profiles\n"
            "from repro.obs import (FlightRecorder,  # the ring\n"
            "                       Tracer as T)\n")
    assert check_docs.check_symbols("good.md", good) == []
    bad = "from repro.obs import diff_profiles, build_postmortem\n"
    assert check_docs.check_symbols("bad.md", bad) == [
        "bad.md: unresolvable symbol repro.obs.diff_profiles",
        "bad.md: unresolvable symbol repro.obs.build_postmortem",
    ]


def test_dangling_relative_links_are_flagged(check_docs):
    text = ("[api](api.md) [gone](nowhere.md#top) [site](https://x.org) "
            "[anchor](#section) [mail](mailto:a@b.c)")
    assert check_docs.check_links(os.path.join("docs", "page.md"), text) == [
        "docs/page.md: dangling link -> nowhere.md#top"]


def test_wildcard_mentions_resolve_their_prefix(check_docs):
    assert check_docs.resolve_symbol("repro.obs.recorder.Flight", True)
    assert check_docs.resolve_symbol("repro.obs.rec", True)
    assert not check_docs.resolve_symbol("repro.obs.nothing_", True)
    assert not check_docs.resolve_symbol("repro.nowhere.x", True)


def test_imported_names_skips_aliases_comments_and_stars(check_docs):
    text = ("from repro.obs import (Tracer as T,  # tracer\n"
            "    MetricsRegistry)\n"
            "from repro.config import *\n"
            "import repro.cli\n")
    assert check_docs.imported_names(text) == [
        "repro.obs.Tracer", "repro.obs.MetricsRegistry"]
