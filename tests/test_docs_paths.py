"""README and TUTORIAL may only point at things that exist.

Every backticked repo-relative path must be on disk, and every
backticked benchmark metric (``workload/metric`` or a dotted per-layer
row) must be a name ``BENCHMARK.json`` declares — so a doc rewrite that
retires a file or a row cannot leave a dangling pointer behind. Every
``python -m repro ...`` line in a fenced block (and in the CI workflow)
must be one the CLI's own parser accepts, so retiring a subcommand or a
flag cannot leave a command line behind that no longer runs. Every
``from repro... import ...`` / ``import repro...`` line in a fenced block
must import, and every name it imports must be there, so moving a name
cannot leave a snippet importing it from where it used to live.
"""

import fnmatch
import glob
import importlib
import json
import os
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.join(os.path.dirname(__file__), "..")
DOCS = ("README.md", "docs/TUTORIAL.md")
CI = ".github/workflows/ci.yml"
PATH_ROOTS = ("src/", "tests/", "bench/", "benchmarks/", "docs/", "examples/")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
WORKLOADS = {w["name"] for w in _BENCH["workloads"]}
END_TO_END = {m["name"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in _BENCH["per_layer"]}
#: ``core.events`` for ``core.events.extract_s``: a dotted name sitting
#: in one of these is citing a benchmark row, not a Python module.
LAYERS = {name.rpartition(".")[0] for name in PER_LAYER}
LAYER_ROOTS = {name.split(".")[0] for name in PER_LAYER}


def _spans(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        return sorted(set(re.findall(r"`([^`\n]+)`", fh.read())))


def _known(name, names):
    return bool(fnmatch.filter(names, name)) if "*" in name else name in names


def _cites_layer_row(span):
    if not re.fullmatch(r"[a-z0-9_*]+(\.[a-z0-9_*]+)+", span):
        return False
    if "*" in span:
        return span.split(".")[0] in LAYER_ROOTS
    return span.rpartition(".")[0] in LAYERS


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    missing = []
    for span in _spans(doc):
        if not span.startswith(PATH_ROOTS):
            continue
        path = span.split()[0].split("::")[0].rstrip(".,;:")
        if not glob.glob(os.path.join(ROOT, path)):
            missing.append(span)
    assert not missing, f"{doc} points at paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_benchmark_metrics_are_declared(doc):
    unknown = []
    for span in _spans(doc):
        workload, slash, metric = span.partition("/")
        if slash and workload in WORKLOADS:
            if not _known(metric, END_TO_END | PER_LAYER):
                unknown.append(span)
        elif _cites_layer_row(span) and not _known(span, PER_LAYER):
            unknown.append(span)
    assert not unknown, f"{doc} cites metrics BENCHMARK.json lacks: {unknown}"


def _fenced(doc):
    """The text ``doc`` shows as code: its fenced blocks (all of a non-Markdown file)."""
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        text = fh.read()
    if doc.endswith(".md"):
        text = "\n".join(re.findall(r"^```.*?^```", text, re.S | re.M))
    return text


def _repro_command_lines(doc):
    """The argv of every ``python -m repro`` invocation ``doc`` shows:
    continuation lines joined, cut at the first shell operator."""
    text = _fenced(doc)
    text = re.sub(r"\\\n\s*", " ", text)
    for match in re.finditer(r"python3? -m repro\b([^\n]*)", text):
        argv = shlex.split(match.group(1), comments=True)
        for i, token in enumerate(argv):
            if token[0] in "|&;<>)":
                argv = argv[:i]
                break
        yield argv


@pytest.mark.parametrize("doc", DOCS + (CI,))
def test_repro_command_lines_parse(doc, capsys):
    rejected = []
    for argv in _repro_command_lines(doc):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            reason = capsys.readouterr().err.strip().splitlines()[-1]
            rejected.append((" ".join(argv), reason))
    assert not rejected, f"{doc} shows command lines the CLI rejects: {rejected}"


def _repro_imports(doc):
    """``(module, names)`` for every ``repro`` import ``doc`` shows,
    parenthesised continuations joined; ``names`` is empty for a plain
    ``import repro.x``."""
    text = re.sub(r"\(([^()]*)\)", lambda m: m.group(1).replace("\n", " "), _fenced(doc))
    for module, names in re.findall(
        r"^\s*from (repro[\w.]*) import ([^\n#]+)", text, re.M
    ):
        yield module, [n.split(" as ")[0].strip() for n in names.split(",") if n.strip()]
    for module in re.findall(r"^\s*import (repro[\w.]*)", text, re.M):
        yield module, []


@pytest.mark.parametrize("doc", DOCS)
def test_repro_imports_resolve(doc):
    broken = []
    for module, names in _repro_imports(doc):
        try:
            mod = importlib.import_module(module)
        except ImportError as err:
            broken.append((module, str(err)))
            continue
        for name in names:
            if not hasattr(mod, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    broken.append((module, name))
    assert not broken, f"{doc} shows imports that do not resolve: {broken}"
