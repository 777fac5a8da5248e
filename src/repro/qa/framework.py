"""The flowlint engine: rules, pragmas, per-file dispatch, reporters.

The framework is deliberately small. A :class:`Rule` sees parsed modules
(:class:`ModuleFile` wraps path, source, and a lazily built AST) and
yields :class:`Finding` objects; the :class:`LintEngine` runs every rule,
applies ``# flowlint:`` pragma suppression, and sorts the survivors.
There is no plugin discovery and no configuration file — the rule set is
code (:func:`repro.qa.rules.default_rules`), reviewed like any other
code.

Pragmas come in two forms, both requiring an inline justification after
``--`` (an unjustified pragma is itself a finding)::

    x = time.time()  # flowlint: disable=sim-clock -- metrics, not sim state
    # flowlint: disable-file=determinism -- fuzz harness, seeded upstream

``disable`` suppresses the named rules on its own line; ``disable-file``
suppresses them for the whole file. Rule names are matched exactly.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Pragma grammar: a comment of ``flowlint: disable=rule-a,rule-b`` with
#: an optional ``-- justification`` tail (its absence is itself a finding).
_PRAGMA_RE = re.compile(
    r"#\s*flowlint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
    r"(?:\s+--\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """JSON encoding (the ``--format json`` reporter's unit)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line: [rule] message`` — editor-clickable."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# flowlint:`` suppression comment."""

    path: str
    line: int
    file_wide: bool
    rules: Tuple[str, ...]
    justification: Optional[str]


class ModuleFile:
    """One Python source file under analysis.

    The AST is parsed lazily and cached; a syntax error surfaces as a
    ``parse-error`` finding from the engine rather than an exception, so
    one broken file cannot hide findings in the rest of the tree.
    """

    def __init__(self, path: str, source: str, module: str = "") -> None:
        self.path = path
        self.source = source
        #: Dotted module name (``repro.netsim.engine``); inferred from the
        #: path when not given, empty when inference fails.
        self.module = module or _infer_module(path)
        self._tree: Optional[ast.Module] = None
        self._parse_error: Optional[SyntaxError] = None

    @classmethod
    def read(cls, path: str, module: str = "") -> "ModuleFile":
        """Load one file from disk."""
        with open(path, encoding="utf-8") as fh:
            return cls(path, fh.read(), module=module)

    @property
    def tree(self) -> Optional[ast.Module]:
        """The parsed AST, or None when the source does not parse."""
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.source, filename=self.path)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> Optional[SyntaxError]:
        """The syntax error hit while parsing, if any."""
        if self._tree is None and self._parse_error is None:
            _ = self.tree
        return self._parse_error

    def in_package(self, packages: Sequence[str]) -> bool:
        """Whether this module lives under any of the dotted ``packages``."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False

    def pragmas(self) -> List[Pragma]:
        """Every ``# flowlint:`` pragma in the file, in line order.

        Only real comment tokens are scanned — pragma-shaped text inside
        a string or docstring is documentation, not a suppression.
        """
        out: List[Pragma] = []
        reader = io.StringIO(self.source).readline
        try:
            for tok in tokenize.generate_tokens(reader):
                if tok.type != tokenize.COMMENT:
                    continue
                match = _PRAGMA_RE.search(tok.string)
                if match is None:
                    continue
                rules = tuple(
                    r.strip()
                    for r in match.group("rules").split(",")
                    if r.strip()
                )
                out.append(
                    Pragma(
                        path=self.path,
                        line=tok.start[0],
                        file_wide=match.group("scope") == "disable-file",
                        rules=rules,
                        justification=match.group("why"),
                    )
                )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Unparseable files surface as parse-error findings instead.
            pass
        return out


def _infer_module(path: str) -> str:
    """Dotted module name from a path containing a ``repro/`` component."""
    parts = os.path.normpath(path).split(os.sep)
    try:
        start = parts.index("repro")
    except ValueError:
        return ""
    dotted = parts[start:]
    if not dotted[-1].endswith(".py"):
        return ""
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


class Project:
    """The full set of modules one lint run analyzes."""

    def __init__(self, modules: Sequence[ModuleFile]) -> None:
        self.modules = list(modules)
        self._by_name = {m.module: m for m in self.modules if m.module}

    @classmethod
    def load(cls, roots: Sequence[str]) -> "Project":
        """Collect every ``.py`` file under the given roots (or files)."""
        modules: List[ModuleFile] = []
        for root in roots:
            if os.path.isfile(root):
                modules.append(ModuleFile.read(root))
                continue
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        modules.append(ModuleFile.read(os.path.join(dirpath, name)))
        return cls(modules)

    def module(self, name: str) -> Optional[ModuleFile]:
        """The module with dotted name ``name``, if loaded."""
        return self._by_name.get(name)


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`name`/:attr:`description` and override one (or
    both) of the hooks: :meth:`check_module` runs once per file and is
    where most rules live; :meth:`check_project` runs once per lint pass
    with the whole project, for cross-file invariants (schema manifests,
    class contracts).
    """

    name: str = ""
    description: str = ""

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        """Findings for one file (default: none)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Findings needing the whole project (default: none)."""
        return iter(())


@dataclass
class LintResult:
    """Outcome of one engine run: surviving findings plus pragma stats."""

    findings: List[Finding]
    pragmas: List[Pragma] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


class LintEngine:
    """Runs a rule set over a project and applies pragma suppression."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names) or "" in names:
            raise ValueError(f"rules must have unique non-empty names: {names}")
        self.rules = list(rules)

    def run(self, project: Project) -> LintResult:
        """Lint every module; returns sorted, pragma-filtered findings."""
        raw: List[Finding] = []
        pragmas: List[Pragma] = []
        file_wide: Dict[str, Set[str]] = {}
        by_line: Dict[Tuple[str, int], Set[str]] = {}

        for module in project.modules:
            if module.tree is None and module.parse_error is not None:
                err = module.parse_error
                raw.append(
                    Finding(
                        rule="parse-error",
                        path=module.path,
                        line=err.lineno or 1,
                        message=f"file does not parse: {err.msg}",
                    )
                )
                continue
            for pragma in module.pragmas():
                pragmas.append(pragma)
                if pragma.justification is None:
                    raw.append(
                        Finding(
                            rule="pragma-justification",
                            path=pragma.path,
                            line=pragma.line,
                            message=(
                                "flowlint pragma needs an inline justification "
                                "(append ' -- <why this line is exempt>')"
                            ),
                        )
                    )
                target = file_wide.setdefault(module.path, set()) if (
                    pragma.file_wide
                ) else by_line.setdefault((module.path, pragma.line), set())
                target.update(pragma.rules)
            for rule in self.rules:
                raw.extend(rule.check_module(module))
        for rule in self.rules:
            raw.extend(rule.check_project(project))

        kept: List[Finding] = []
        suppressed = 0
        for finding in raw:
            if finding.rule in file_wide.get(finding.path, ()):
                suppressed += 1
                continue
            if finding.rule in by_line.get((finding.path, finding.line), ()):
                suppressed += 1
                continue
            kept.append(finding)
        kept.sort(key=Finding.sort_key)
        return LintResult(findings=kept, pragmas=pragmas, suppressed=suppressed)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


def render_text(result: LintResult) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines = [finding.render() for finding in result.findings]
    n = len(result.findings)
    summary = (
        f"{n} finding{'s' if n != 1 else ''}, "
        f"{result.suppressed} suppressed by {len(result.pragmas)} pragma"
        f"{'s' if len(result.pragmas) != 1 else ''}"
    )
    lines.append(summary if n else f"clean: {summary}")
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """Machine-readable report (the CI artifact format)."""
    payload = {
        "ok": result.ok,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": result.suppressed,
        "pragmas": [
            {
                "path": pragma.path,
                "line": pragma.line,
                "file_wide": pragma.file_wide,
                "rules": list(pragma.rules),
                "justification": pragma.justification,
            }
            for pragma in result.pragmas
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Shared AST helpers used by the rules
# ----------------------------------------------------------------------


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import time`` -> ``{"time": "time"}``; ``from time import
    perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``. Relative
    imports are skipped (the rules only chase stdlib/absolute targets).
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    # ``import os.path`` binds the name ``os``.
                    root = alias.name.split(".")[0]
                    out[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def dotted_call_name(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The fully-resolved dotted name a call targets, or None.

    ``pc()`` with ``from time import perf_counter as pc`` resolves to
    ``time.perf_counter``; ``dt.datetime.now()`` with ``import datetime
    as dt`` resolves to ``datetime.datetime.now``. Calls on computed
    receivers (subscripts, call results) return None.
    """
    parts: List[str] = []
    target: ast.expr = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if not isinstance(target, ast.Name):
        return None
    root = aliases.get(target.id, target.id)
    parts.append(root)
    return ".".join(reversed(parts))


def iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Every call node in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def literal_str(node: ast.expr) -> Optional[str]:
    """The value of a string-literal expression, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def findings_sorted(findings: Iterable[Finding]) -> List[Finding]:
    """Stable sort order used by rules that accumulate out of order."""
    return sorted(findings, key=Finding.sort_key)
