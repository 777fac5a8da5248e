"""The flowlint domain rules.

Each rule encodes one invariant the reproduction's correctness rests on;
the module docstrings of the code under check own the *why*, the rule
docstrings here own the *what is flagged*. All rules are pure AST passes
— nothing here imports or executes the code being linted (the one
runtime dependency, the Prometheus name validator, is shared with
:mod:`repro.obs.names` so lint-time and run-time agree by construction).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.obs.names import (
    KNOWN_LABELS,
    is_known_metric,
    is_valid_label_name,
    is_valid_metric_name,
)
from repro.qa.concurrency import concurrency_rules
from repro.qa.framework import (
    Finding,
    ModuleFile,
    Project,
    Rule,
    dotted_call_name,
    import_aliases,
    iter_calls,
    literal_str,
)

#: Packages whose code must not read the wall clock directly. The first
#: four run *inside* the simulation and take time from the engine clock;
#: the monitor and the streaming service sit on the stream side and time
#: themselves through the sanctioned observability clock
#: (:func:`repro.obs.tracing.wall_now`) so their diagnosis logic stays
#: replayable — stream timestamps in, stream timestamps out.
SIM_CLOCK_PACKAGES: Tuple[str, ...] = (
    "repro.netsim",
    "repro.openflow",
    "repro.apps",
    "repro.workload",
    "repro.core.monitor",
    "repro.service",
)

#: Packages that must be deterministic under a fixed seed — the sim-clock
#: packages plus everything that drives or perturbs a simulation.
DETERMINISM_PACKAGES: Tuple[str, ...] = SIM_CLOCK_PACKAGES + (
    "repro.faults",
    "repro.ops",
    "repro.scenarios",
    "repro.chaos",
)

#: Wall-clock reads banned inside the simulation packages.
WALL_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)


class SimClockRule(Rule):
    """No wall-clock reads inside simulation packages.

    Simulated components must take time from the engine clock
    (``sim.now``); a ``time.time()`` in packet handling would couple
    model output to host load and break capture replay. Instrumentation that
    genuinely measures host cost (e.g. callback duration histograms)
    carries a justified pragma instead.
    """

    name = "sim-clock"
    description = "simulation code must use the engine clock, not the wall clock"

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if module.tree is None or not module.in_package(SIM_CLOCK_PACKAGES):
            return
        aliases = import_aliases(module.tree)
        for call in iter_calls(module.tree):
            dotted = dotted_call_name(call, aliases)
            if dotted in WALL_CLOCK_CALLS:
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=call.lineno,
                    message=(
                        f"wall-clock read {dotted}() in simulation package "
                        f"{module.module}; use the engine clock (sim.now)"
                    ),
                )


class DeterminismRule(Rule):
    """No shared-state randomness in simulation-driving packages.

    Module-level ``random.*`` calls draw from the interpreter-global RNG,
    whose state depends on import order and everything else in the
    process — two runs with the same scenario seed would diverge. Code in
    these packages must thread an explicitly seeded ``random.Random``
    instance; ``random.Random()`` *without* a seed (it seeds from the OS)
    is equally flagged.
    """

    name = "determinism"
    description = "simulation packages must use explicitly seeded RNG instances"

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if module.tree is None or not module.in_package(DETERMINISM_PACKAGES):
            return
        aliases = import_aliases(module.tree)
        for call in iter_calls(module.tree):
            dotted = dotted_call_name(call, aliases)
            if dotted is None or not (
                dotted == "random.Random" or dotted.startswith("random.")
            ):
                continue
            if dotted == "random.Random":
                if not call.args and not call.keywords:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            "unseeded random.Random() seeds from the OS; "
                            "pass an explicit seed"
                        ),
                    )
                continue
            yield Finding(
                rule=self.name,
                path=module.path,
                line=call.lineno,
                message=(
                    f"{dotted}() uses the interpreter-global RNG; thread a "
                    f"seeded random.Random instance instead"
                ),
            )


class OpenEncodingRule(Rule):
    """Every text-mode ``open()`` must pass ``encoding=``.

    Without it the platform locale decides how captures and models are
    read back — the same file can decode differently on two machines.
    Binary-mode opens (a literal mode containing ``"b"``) are exempt.
    """

    name = "open-encoding"
    description = "text-mode open() calls must pass encoding="

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        for call in iter_calls(module.tree):
            if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
                continue
            if any(kw.arg == "encoding" for kw in call.keywords):
                continue
            mode: Optional[ast.expr] = None
            if len(call.args) >= 2:
                mode = call.args[1]
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            mode_text = literal_str(mode) if mode is not None else None
            if mode_text is not None and "b" in mode_text:
                continue
            yield Finding(
                rule=self.name,
                path=module.path,
                line=call.lineno,
                message=(
                    "open() without encoding= decodes with the platform "
                    "locale; pass encoding='utf-8' (or a literal binary mode)"
                ),
            )


class SignatureContractRule(Rule):
    """Every ``Signature`` subclass implements the full contract.

    The differ compares them and the persistence layer round-trips them
    through JSON, so a direct subclass
    of :class:`repro.core.signatures.base.Signature` must define all of
    ``diff``/``to_dict``/``from_dict`` (that ``from_dict`` inverts
    ``to_dict`` exactly is checked dynamically by the property harness in
    ``tests/test_signature_contract.py``). The inverse is enforced too: a
    class in the signatures package that defines both ``diff`` and
    ``to_dict`` is a signature component and must subclass ``Signature``
    so the contract applies to it.
    """

    name = "signature-contract"
    description = "Signature subclasses define diff/to_dict/from_dict"

    REQUIRED: Tuple[str, ...] = ("diff", "to_dict", "from_dict")
    _BASE = "repro.core.signatures.base.Signature"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.tree is None:
                continue
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                defined = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if self._bases_signature(node, aliases):
                    missing = [m for m in self.REQUIRED if m not in defined]
                    if missing:
                        yield Finding(
                            rule=self.name,
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"Signature subclass {node.name} is missing "
                                f"{', '.join(missing)} (see the Signature "
                                f"base class contract)"
                            ),
                        )
                elif (
                    module.in_package(("repro.core.signatures",))
                    and "diff" in defined
                    and "to_dict" in defined
                ):
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"{node.name} defines diff and to_dict but does "
                            f"not subclass Signature; the contract (and its "
                            f"round-trip harness) must apply to it"
                        ),
                    )

    def _bases_signature(
        self, node: ast.ClassDef, aliases: Dict[str, str]
    ) -> bool:
        for base in node.bases:
            if isinstance(base, ast.Name):
                resolved = aliases.get(base.id, base.id)
                if resolved == self._BASE or resolved.endswith(".Signature"):
                    return True
                if base.id == "Signature":
                    return True
            elif isinstance(base, ast.Attribute) and base.attr == "Signature":
                return True
        return False


class MetricNamesRule(Rule):
    """Metric names are literal, valid, and declared in the manifest.

    Every ``.counter(...)``/``.gauge(...)``/``.histogram(...)`` call site
    must use a string-literal name that passes the shared Prometheus
    validator (:mod:`repro.obs.names`) *and* be declared — listed in
    :data:`~repro.obs.names.KNOWN_METRICS` or a member of the grammatical
    ``service_*`` family (see :func:`~repro.obs.names.is_known_metric`);
    label keyword names must be valid and in
    :data:`~repro.obs.names.KNOWN_LABELS`. Dynamic names are allowed only
    inside ``repro.obs`` itself (the JSONL round-trip rebuilds instruments
    from data, where the registry still validates at runtime).
    """

    name = "metric-names"
    description = "metric names must be literal, valid, and in the manifest"

    _FACTORIES: Tuple[str, ...] = ("counter", "gauge", "histogram")

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        in_obs = module.in_package(("repro.obs",))
        for call in iter_calls(module.tree):
            func = call.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in self._FACTORIES
            ):
                continue
            if not call.args:
                continue
            name = literal_str(call.args[0])
            if name is None:
                if not in_obs:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            "metric name must be a string literal outside "
                            "repro.obs so the manifest check can see it"
                        ),
                    )
                continue
            if not is_valid_metric_name(name):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=call.lineno,
                    message=(
                        f"{name!r} is not a valid Prometheus metric name"
                    ),
                )
            elif not is_known_metric(name):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=call.lineno,
                    message=(
                        f"metric {name!r} is not declared in the manifest "
                        f"(add it to KNOWN_METRICS in repro/obs/names.py, "
                        f"or follow the declared family grammar: service_*)"
                    ),
                )
            for kw in call.keywords:
                if kw.arg is None or kw.arg == "buckets":
                    continue
                if not is_valid_label_name(kw.arg):
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            f"{kw.arg!r} is not a valid Prometheus label name"
                        ),
                    )
                elif kw.arg not in KNOWN_LABELS:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            f"label {kw.arg!r} is not declared in the "
                            f"manifest (add it to KNOWN_LABELS in "
                            f"repro/obs/names.py)"
                        ),
                    )


#: Data-plane packages whose loops execute once per simulated message —
#: the paths the raw-speed campaign de-churned. Allocation here is paid
#: millions of times per capture.
HOT_LOOP_PACKAGES: Tuple[str, ...] = (
    "repro.netsim",
    "repro.openflow",
)

#: Modules under the hot packages that only run at scenario-build time
#: (graph construction, one pass per topology) — per-iteration allocation
#: there is setup cost, not per-message churn.
SETUP_TIME_MODULES: Tuple[str, ...] = (
    "repro.netsim.topology",
)


class HotLoopAllocRule(Rule):
    """No per-iteration list/dict allocation in data-plane loops.

    Loops in the netsim/openflow data plane run once per simulated
    message, so a ``[]``/``{}`` display, ``list()``/``dict()`` call, or
    list/dict comprehension in the loop body allocates (and collects) a
    fresh container per message — the allocator churn the raw-speed
    campaign removed from the ingest path. Hoist the container out of the
    loop, reuse a scratch structure, or (for genuinely cold loops) carry
    a justified pragma. Scenario-build modules (:data:`SETUP_TIME_MODULES`)
    are exempt: their loops run once per topology, not per message.
    """

    name = "hot-loop-alloc"
    description = (
        "data-plane loops must not allocate a list/dict per iteration"
    )

    _ALLOC_NODES = (ast.List, ast.Dict, ast.ListComp, ast.DictComp)

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if (
            module.tree is None
            or not module.in_package(HOT_LOOP_PACKAGES)
            or module.in_package(SETUP_TIME_MODULES)
        ):
            return
        seen: Set[int] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            # Only the parts re-evaluated each iteration count: the body,
            # plus the test of a while. The iterable of a for and the
            # orelse of either run once per loop, not per message.
            roots: List[ast.AST] = list(loop.body)
            if isinstance(loop, ast.While):
                roots.append(loop.test)
            for root in roots:
                yield from self._scan(module, root, seen)

    def _scan(
        self, module: ModuleFile, root: ast.AST, seen: Set[int]
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if id(node) in seen:
                continue
            what = self._allocation(node)
            if what is not None:
                seen.add(id(node))
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    message=(
                        f"{what} inside a data-plane loop allocates per "
                        f"message; hoist it out of the loop or reuse a "
                        f"scratch container"
                    ),
                )

    def _allocation(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.List):
            return "list display"
        if isinstance(node, ast.Dict):
            return "dict display"
        if isinstance(node, ast.ListComp):
            return "list comprehension"
        if isinstance(node, ast.DictComp):
            return "dict comprehension"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict")
        ):
            return f"{node.func.id}() call"
        return None


def default_rules() -> List[Rule]:
    """The standard rule set ``repro lint`` runs, concurrency rules included."""
    return [
        SimClockRule(),
        DeterminismRule(),
        OpenEncodingRule(),
        SignatureContractRule(),
        MetricNamesRule(),
        HotLoopAllocRule(),
        *concurrency_rules(),
    ]
