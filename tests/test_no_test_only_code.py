"""Guard against test-only code in ``src/``.

A function, method or class of 8 or more lines in ``src/`` must be named
in code (not only in a docstring or comment) somewhere other than its own
body: elsewhere in ``src/``, or in ``bench/``, ``benchmarks/`` or
``examples/``. What only tests call goes with its tests. The exceptions
are listed below, each with the reason it stays.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPES = ("src", "bench", "benchmarks", "examples")
MIN_LINES = 8

ALLOWED = {
    # Fixtures: tests build their inputs with these, and moving them into
    # tests/ would not shrink anything.
    "FixedProcess": "deterministic arrivals that workload and scenario tests drive",
    "correlation_ids": "ControllerLog query the flight-recorder tests pin ids with",
    "to_log": "VMTraceSynthesizer output the task-mining tests learn from",
    "expected_edges": "MultiTierApp ground truth the connectivity tests compare to",
    "linear_topology": "the minimal chain topology most network tests run on",
    "_match_interval_signature": "the plain oracle the indexed interval matcher is tested against",
    # Library surface that waits for a caller.
    "OnOffProcess": "bursty arrivals; waits on the scenario work of ROADMAP item 1(e)",
    "fat_tree": "k-ary fat-tree builder for topology-sensitivity runs",
    "load_log": "read_log's twin over an already open file",
    "message_from_json": "one-object decode, the documented decode contract",
    "delete": "OpenFlow non-strict delete semantics of the flow table",
}


def _code_names(text):
    """``(name, line)`` for every identifier token: prose does not count."""
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.NAME
    ]


def unreferenced_definitions():
    """``{name: "path:line"}`` for each long ``src/`` definition that no
    code outside its own body names."""
    texts = {
        path: path.read_text(encoding="utf-8")
        for scope in SCOPES
        for path in sorted((ROOT / scope).rglob("*.py"))
    }
    names = {path: _code_names(text) for path, text in texts.items()}
    uses = Counter(name for found in names.values() for name, _ in found)
    flagged = {}
    for path, text in texts.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if node.end_lineno - start + 1 < MIN_LINES:
                continue
            own = sum(
                1 for found, line in names[path]
                if found == name and start <= line <= node.end_lineno
            )
            if uses[name] == own:
                flagged[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return flagged


def test_no_long_definition_is_named_only_by_tests():
    flagged = unreferenced_definitions()
    unexplained = {name: at for name, at in flagged.items() if name not in ALLOWED}
    assert not unexplained, (
        "definitions of >= 8 lines that nothing outside tests names; give each "
        f"a caller or delete it with its tests: {unexplained}"
    )
    stale = sorted(set(ALLOWED) - set(flagged))
    assert not stale, f"allowlisted names that now have a caller: {stale}"
