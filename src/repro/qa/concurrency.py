"""Thread-aware lint rules that look at one class at a time.

Five rules, all riding the normal :class:`~repro.qa.framework.Rule`
engine (so ``# flowlint: disable=RULE -- why`` pragmas and the pragma
budget apply unchanged):

* ``lock-discipline`` — an instance attribute written by code running on
  one thread color and read from another must hold one common lock at
  *every* non-construction access, or be declared in the owning class's
  ``_GUARDED_BY = {"attr": "why"}`` table;
* ``blocking-under-lock`` — no ``time.sleep``, ``open()``, or blocking
  ``queue.get/put``/``.join()`` while a lock is held, directly or
  through ``self`` calls;
* ``lock-order`` — the same two locks acquired in both nesting orders is
  a deadlock waiting for load;
* ``unmanaged-thread`` — every ``threading.Thread(...)`` needs a
  shutdown path: bound and ``.join()``-ed, or stoppable via an Event;
* ``lock-confinement`` — a ``threading.Lock``/``RLock`` built outside
  :data:`CONCURRENCY_PACKAGES` is a finding, so no lock can exist where
  the other four rules do not look.

Each class in :data:`CONCURRENCY_PACKAGES` is modeled on its own. Its
thread roots come from the class body: ``worker`` — a method passed as
``threading.Thread(target=self.m)``; ``http`` — ``do_*`` methods of a
``BaseHTTPRequestHandler`` subclass and methods registered as
``self.routes[...] = self.m``; ``main`` — every other public method,
plus module functions that take an instance through an annotated
parameter (``def poke(box: Box)``). Colors spread through ``self.m()``
calls. A helper whose every call site holds ``self._lock`` is analyzed
as holding it too (the greatest fixpoint of intersecting call-site
locksets), so the ``_publish_locked`` pattern needs no annotation.

One object reaching into another — the drain thread calling
``tenant.ingest``, a handler reading ``tenant.view`` — is outside any one
class. The runtime lockset sanitizer (:mod:`repro.qa.sanitizer`) checks
those reaches on a real run, in ``tests/test_service_stress.py``.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union
)

from repro.qa.framework import (
    Finding,
    ModuleFile,
    Rule,
    dotted_call_name,
    import_aliases,
    iter_calls,
    literal_str,
)

#: Where the concurrency rules report findings: the threaded service and
#: its HTTP surface.
CONCURRENCY_PACKAGES: Tuple[str, ...] = ("repro.service", "repro.obs.httpd")

#: Packages ``lock-confinement`` skips: the sanitizer's own bookkeeping
#: locks live in ``repro.qa``, which the pragma budget keeps pragma-free.
LOCK_EXEMPT_PACKAGES: Tuple[str, ...] = ("repro.qa",)

#: Thread colors.
MAIN = "main"
WORKER = "worker"
HTTP = "http"

#: Constructors whose product is a synchronization primitive. Attributes
#: built from these are exempt from lock-discipline (their whole point is
#: cross-thread use) and classified for blocking/thread analysis.
LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})
EVENT_CTORS = frozenset({"threading.Event", "threading.Condition"})
QUEUE_CTORS = frozenset(
    f"queue.{name}" for name in ("Queue", "SimpleQueue", "LifoQueue", "PriorityQueue")
)
THREAD_CTORS = frozenset({"threading.Thread"})
SYNC_CTORS = LOCK_CTORS | EVENT_CTORS | QUEUE_CTORS | THREAD_CTORS | frozenset(
    {"threading.Semaphore", "threading.BoundedSemaphore"}
)

#: Base-class names marking an HTTP handler class: every ``do_*``
#: method of a subclass is an HTTP-thread root.
HANDLER_BASES = ("BaseHTTPRequestHandler",)

#: Method names treated as in-place mutations of the receiver — a call
#: ``self.ring.append(x)`` is a *write* to ``ring`` for lock-discipline.
MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "extend", "extendleft", "insert", "add", "discard"}
    | {"remove", "pop", "popleft", "popitem", "clear", "update", "setdefault"}
    | {"sort", "reverse", "rotate"}
)

#: Functions whose body runs during object construction; accesses inside
#: them happen before the object is published to other threads.
INIT_NAMES = frozenset({"__init__", "__post_init__", "__new__", "__init_subclass__"})

_SELF = frozenset({"self"})


class Site(NamedTuple):
    """One fact at one line of function ``func``, with the locks held.

    ``what`` is the attribute (accesses), the callee qualname (calls),
    the lock id (acquisitions) or the operation (blocking ops).
    """

    func: str
    line: int
    what: str
    locks: FrozenSet[str]
    write: bool = False


def _short(qualname: str) -> str:
    """``repro.service.daemon.StreamService`` → ``StreamService``."""
    return qualname.rsplit(".", 1)[-1]


def _is_public(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return name not in INIT_NAMES
    return not name.startswith("_")


def _annotated_class(node: Optional[ast.expr]) -> Optional[str]:
    """The class an annotation names: ``Box``, ``"Box"``, ``m.Box``,
    ``Optional[Box]``."""
    text = literal_str(node) if node is not None else None
    if text is not None:
        try:
            return _annotated_class(ast.parse(text, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and _annotated_class(node.value) == "Optional":
        return _annotated_class(node.slice)
    return None


def _guarded_by(node: ast.expr) -> Dict[str, str]:
    """``_GUARDED_BY = {"attr": "why"}`` → the declared exemptions."""
    if not isinstance(node, ast.Dict):
        return {}
    pairs = [(k and literal_str(k), literal_str(v)) for k, v in zip(node.keys, node.values)]
    return {k: v for k, v in pairs if k and v is not None}


def _self_attr(node: ast.AST, selves: FrozenSet[str] = _SELF) -> Optional[str]:
    """``self.x`` (or ``box.x`` for an instance parameter) → ``"x"``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id in selves else None
    return None


class ClassModel:
    """One class's functions, thread roots, colors and lock facts.

    ``functions`` holds the class's methods plus the module functions
    that take an instance through an annotated parameter (``bound``,
    with the parameter names), keyed by qualname; ``roots`` maps each
    thread root to its color.
    """

    def __init__(self, module: ModuleFile, node: ast.ClassDef, aliases: Dict[str, str]) -> None:
        self.name = node.name
        self.qualname = f"{module.module}.{node.name}"
        self.path = module.path
        self.line = node.lineno
        self.aliases = aliases
        self.methods: Dict[str, str] = {}
        self.functions: Dict[str, ast.AST] = {}
        self.bound: Dict[str, FrozenSet[str]] = {}
        self.guarded_by: Dict[str, str] = {}
        self.ctors: Dict[str, str] = {}
        self.accesses: List[Site] = []
        self.calls: List[Site] = []
        self.acquires: List[Site] = []
        self.blocking: List[Site] = []
        self.refs: Dict[str, Set[str]] = defaultdict(set)
        self.workers: Set[str] = set()
        self.routes: Set[str] = set()
        self.stop_events: Set[str] = set()

        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[item.name] = f"{self.qualname}.{item.name}"
                self.functions[self.methods[item.name]] = item
            elif isinstance(item, ast.Assign):
                value = item.value
                for tgt in item.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == "_GUARDED_BY":
                        self.guarded_by.update(_guarded_by(value))
                    elif isinstance(tgt, ast.Name) and isinstance(value, ast.Name):
                        # ``do_POST = _refuse_write`` — a method alias.
                        if value.id in self.methods:
                            self.methods.setdefault(tgt.id, self.methods[value.id])
        assert module.tree is not None
        for fn in module.tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                selves = frozenset(
                    a.arg for a in params if _annotated_class(a.annotation) == self.name
                )
                if selves:
                    self.bound[f"{module.module}.{fn.name}"] = selves
                    self.functions[f"{module.module}.{fn.name}"] = fn

        self._collect_ctors()
        for qual, fn in self.functions.items():
            _Scanner(self, qual, self.bound.get(qual, _SELF)).visit_body(ast.iter_child_nodes(fn))
        handler = any(_annotated_class(base) in HANDLER_BASES for base in node.bases)
        self.roots = self._roots(handler)
        self.colors = self._color()
        self.inherited = self._inherit()

    def _collect_ctors(self) -> None:
        """``self.x = threading.Lock()`` in any method → ``x``'s constructor."""
        for qual, fn in self.functions.items():
            if qual in self.bound:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not isinstance(value, ast.Call):
                    continue
                dotted = dotted_call_name(value, self.aliases)
                for attr in map(_self_attr, targets):
                    if attr is not None and dotted is not None:
                        self.ctors.setdefault(attr, dotted)

    def _roots(self, handler: bool) -> Dict[str, str]:
        roots = {qual: WORKER for qual in self.workers}
        http = self.routes | {
            q for n, q in self.methods.items() if handler and n.startswith("do_")
        }
        for qual in http:
            roots.setdefault(qual, HTTP)
        for name, qual in self.methods.items():
            if _is_public(name):
                roots.setdefault(qual, MAIN)
        for qual in self.bound:
            roots.setdefault(qual, MAIN)
        return roots

    def _color(self) -> Dict[str, FrozenSet[str]]:
        """Spread each root's color through ``self`` calls and method
        references; constructors stay uncolored (exempt)."""
        edges: Dict[str, Set[str]] = defaultdict(set)
        for call in self.calls:
            edges[call.func].add(call.what)
        for func, targets in self.refs.items():
            edges[func].update(targets)
        colors: Dict[str, Set[str]] = defaultdict(set)
        for root, color in self.roots.items():
            stack = [root]
            while stack:
                cur = stack.pop()
                if color not in colors[cur] and _short(cur) not in INIT_NAMES:
                    colors[cur].add(color)
                    stack.extend(edges[cur])
        return {q: frozenset(c) for q, c in colors.items() if c}

    def _inherit(self) -> Dict[str, FrozenSet[str]]:
        """Locks held at *every* colored call site, propagated to the
        callee.

        Greatest fixpoint: a non-root callee starts at "universe" (None)
        and is repeatedly intersected with ``site.locks | inherited(caller)``
        until stable. Roots hold nothing — any thread may call them
        bare. Cycles that never touch a root resolve to the empty set:
        for guard checks, unresolved means unguarded.
        """
        sites: Dict[str, List[Site]] = defaultdict(list)
        for call in self.calls:
            if call.func in self.colors and call.what not in self.roots:
                sites[call.what].append(call)
        inh: Dict[str, Optional[FrozenSet[str]]] = {q: None for q in sites}
        changed = True
        while changed:
            changed = False
            for callee, calls in sites.items():
                acc: Optional[FrozenSet[str]] = None
                for call in calls:
                    caller = inh.get(call.func, frozenset())
                    if caller is not None:  # None = universe: no restriction yet
                        contrib = call.locks | caller
                        acc = contrib if acc is None else acc & contrib
                if acc is not None and acc != inh[callee]:
                    inh[callee] = acc
                    changed = True
        return {q: v or frozenset() for q, v in inh.items()}

    def effective(self, site: Site) -> FrozenSet[str]:
        """The locks held at ``site``, inherited ones included."""
        return site.locks | self.inherited.get(site.func, frozenset())

    def reach(self, func: str) -> Set[str]:
        """Every function ``func`` can call through ``self``, itself included."""
        seen = {func}
        stack = [func]
        while stack:
            cur = stack.pop()
            for call in self.calls:
                if call.func == cur and call.what not in seen:
                    seen.add(call.what)
                    stack.append(call.what)
        return seen

    def lock_id(self, attr: Optional[str]) -> Optional[str]:
        """``<module>.<Class>.<attr>`` for a lock attribute, else None."""
        if attr is not None and self.ctors.get(attr) in LOCK_CTORS:
            return f"{self.qualname}.{attr}"
        return None


class _Scanner:
    """One function body: accesses, ``self`` calls, locks, blocking ops."""

    def __init__(self, model: ClassModel, func: str, selves: FrozenSet[str]) -> None:
        self.m = model
        self.func = func
        self.selves = selves
        self.held: List[str] = []

    def site(self, line: int, what: str, write: bool = False) -> Site:
        return Site(self.func, line, what, frozenset(self.held), write)

    def attr(self, node: ast.AST) -> Optional[str]:
        return _self_attr(node, self.selves)

    def method(self, node: ast.AST) -> Optional[str]:
        """``self.m`` naming a method of the class → its qualname."""
        return self.m.methods.get(self.attr(node) or "")

    def access(self, attr: str, line: int, write: bool) -> None:
        if attr in self.m.methods:
            self.m.refs[self.func].add(self.m.methods[attr])  # a reference, not data
        elif self.m.ctors.get(attr) not in SYNC_CTORS:
            self.m.accesses.append(self.site(line, attr, write))

    def visit_body(self, body: Iterable[ast.AST]) -> None:
        for node in body:
            self.visit(node)

    def visit(self, node: ast.AST) -> None:
        attr = self.attr(node)
        stored = self.attr(node.value) if isinstance(node, ast.Subscript) else None
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self.visit_with(node)
        elif isinstance(node, ast.Call):
            self.visit_call(node)
        elif isinstance(node, ast.Attribute) and attr is not None:
            self.access(attr, node.lineno, not isinstance(node.ctx, ast.Load))
        elif isinstance(node, ast.Subscript) and stored and not isinstance(node.ctx, ast.Load):
            self.access(stored, node.lineno, True)  # ``self.x[k] = v`` writes ``x``
            self.visit(node.slice)
        else:
            if isinstance(node, ast.Assign):
                target = self.method(node.value)
                if target is not None and any(
                    isinstance(t, ast.Subscript) and self.attr(t.value) == "routes"
                    for t in node.targets
                ):
                    self.m.routes.add(target)
            self.visit_body(ast.iter_child_nodes(node))

    def visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        acquired = 0
        for item in node.items:
            lock = self.m.lock_id(self.attr(item.context_expr))
            if lock is None:
                self.visit(item.context_expr)
                continue
            self.m.acquires.append(self.site(item.context_expr.lineno, lock))
            self.held.append(lock)
            acquired += 1
        self.visit_body(node.body)
        del self.held[len(self.held) - acquired :]

    def visit_call(self, node: ast.Call) -> None:
        dotted = dotted_call_name(node, self.m.aliases)
        callee = self.method(node.func)
        rest: List[ast.AST] = [*node.args, *(kw.value for kw in node.keywords)]
        if dotted in THREAD_CTORS:
            # ``Thread(target=self.m)`` runs ``m`` on the *new* thread: a
            # worker root, and no call edge, so the spawner's color does
            # not leak into it.
            for kw in node.keywords:
                target = self.method(kw.value)
                if kw.arg == "target" and target is not None:
                    self.m.workers.add(target)
                    rest.remove(kw.value)
        elif callee is not None:
            self.m.calls.append(self.site(node.lineno, callee))
        else:
            what = self.blocking_op(node, dotted)
            if what is not None:
                self.m.blocking.append(self.site(node.lineno, what))
            if isinstance(node.func, ast.Attribute):
                self.note_receiver(node.func)
            rest.append(node.func)
        self.visit_body(rest)

    def note_receiver(self, func: ast.Attribute) -> None:
        """Mutator calls write; an Event's ``.set()`` marks a stop path."""
        attr = self.attr(func.value)
        if attr is None:
            return
        if func.attr in MUTATOR_METHODS:
            self.access(attr, func.lineno, True)
        elif func.attr == "set" and self.m.ctors.get(attr) in EVENT_CTORS:
            self.m.stop_events.add(attr)

    def blocking_op(self, node: ast.Call, dotted: Optional[str]) -> Optional[str]:
        if dotted == "time.sleep":
            return "time.sleep()"
        if dotted in ("open", "io.open"):
            return "open()"
        if not isinstance(node.func, ast.Attribute):
            return None
        call, attr = node.func.attr, self.attr(node.func.value)
        ctor = self.m.ctors.get(attr or "")
        nonblocking = any(
            kw.arg == "block" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in node.keywords
        )
        if ctor in QUEUE_CTORS and call in ("get", "put", "join") and not nonblocking:
            return f"queue .{call}() on self.{attr}"
        if ctor in THREAD_CTORS and call == "join":
            return f"thread .join() on self.{attr}"
        if ctor in EVENT_CTORS and call == "wait":
            return f"event .wait() on self.{attr}"
        return None


@functools.lru_cache(maxsize=1)
def class_models(module: ModuleFile) -> List[ClassModel]:
    """A :class:`ClassModel` for every top-level class of ``module``.

    Cached for the last module: the engine runs every rule over one
    module before the next, so the rules share one build.
    """
    tree = module.tree
    if tree is None:
        return []
    aliases = import_aliases(tree)
    return [ClassModel(module, n, aliases) for n in tree.body if isinstance(n, ast.ClassDef)]


class _ConcurrencyRule(Rule):
    """Base: runs :meth:`check_class` over every in-scope class."""

    def __init__(self, packages: Sequence[str]) -> None:
        self.packages = tuple(packages)

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        if module.in_package(self.packages):
            for model in class_models(module):
                yield from self.check_class(model)

    def check_class(self, model: ClassModel) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, model: ClassModel, line: int, message: str) -> Finding:
        return Finding(rule=self.name, path=model.path, line=line, message=message)


class LockDisciplineRule(_ConcurrencyRule):
    """Shared attributes need one common lock (or a _GUARDED_BY entry)."""

    name = "lock-discipline"
    description = (
        "instance attributes written on one thread and read on another "
        "must hold a common lock at every access, or be declared in the "
        "class's _GUARDED_BY table with a justification"
    )

    def check_class(self, model: ClassModel) -> Iterator[Finding]:
        grouped: Dict[str, List[Site]] = defaultdict(list)
        for access in model.accesses:
            if access.func in model.colors:  # uncolored = construction-only
                grouped[access.what].append(access)
        for attr, live in sorted(grouped.items()):
            if attr in model.guarded_by or not any(a.write for a in live):
                continue
            colors = sorted({c for a in live for c in model.colors[a.func]})
            held = {a: model.effective(a) for a in live}
            if len(colors) < 2 or frozenset.intersection(*held.values()):
                continue
            # Anchor at the least-guarded site: bare before locked,
            # writes before reads.
            _, _, line = min((bool(held[a]), not a.write, a.line) for a in live)
            sites = sorted(
                {f"{_short(a.func)}[{'+'.join(sorted(model.colors[a.func]))}]" for a in live}
            )
            yield self.finding(
                model,
                line,
                f"{model.name}.{attr} is accessed from multiple thread colors "
                f"({', '.join(colors)}) with no common lock (sites: "
                f"{', '.join(sites[:4])}); guard every access with one lock "
                f"(e.g. `with self._lock:`) or declare it in "
                f"{model.name}._GUARDED_BY with a justification",
            )
        # Empty _GUARDED_BY justifications are findings, not exemptions.
        for attr, why in sorted(model.guarded_by.items()):
            if not why.strip():
                yield self.finding(
                    model,
                    model.line,
                    f"{model.name}._GUARDED_BY[{attr!r}] has an empty "
                    "justification; say why the attribute is safe without a lock",
                )


class BlockingUnderLockRule(_ConcurrencyRule):
    """No sleeping, file I/O, or queue waits while holding a lock."""

    name = "blocking-under-lock"
    description = (
        "blocking operations (time.sleep, open(), blocking queue "
        "get/put/join, thread joins) must not run while a lock is held, "
        "directly or through self calls"
    )

    def check_class(self, model: ClassModel) -> Iterator[Finding]:
        for op in model.blocking:
            held = model.effective(op)
            if held:
                yield self.finding(
                    model,
                    op.line,
                    f"blocking {op.what} while holding {', '.join(sorted(held))}"
                    f"{'' if op.locks else ' (lock held by every caller)'}; "
                    "blocking under a lock stalls every thread contending for "
                    "it — move the work outside the locked region",
                )
        for call in model.calls:
            held = model.effective(call)
            reach = model.reach(call.what) if held else set()
            hits = [op for op in model.blocking if op.func in reach]
            if hits:
                op = min(hits, key=lambda o: o.line)
                yield self.finding(
                    model,
                    call.line,
                    f"call to {_short(call.what)}() while holding "
                    f"{', '.join(sorted(held))} can block: it reaches {op.what} "
                    f"in {_short(op.func)} ({model.path}:{op.line}); move the "
                    "call outside the locked region",
                )


class LockOrderRule(_ConcurrencyRule):
    """Two locks taken in both nesting orders deadlock under load."""

    name = "lock-order"
    description = (
        "pairwise lock acquisition order must be consistent; A-then-B "
        "somewhere and B-then-A elsewhere is a deadlock hazard"
    )

    def check_class(self, model: ClassModel) -> Iterator[Finding]:
        pairs: Dict[Tuple[str, str], int] = {}  # (held, taken) -> first line
        for acq in model.acquires:
            for held in model.effective(acq):
                pairs.setdefault((held, acq.what), acq.line)
        for call in model.calls:
            reach = model.reach(call.what)
            for acq in model.acquires:
                if acq.func in reach:
                    for held in model.effective(call):
                        pairs.setdefault((held, acq.what), call.line)
        for (a, b), line in sorted(pairs.items()):
            if a < b and (b, a) in pairs:  # one finding per unordered pair
                yield self.finding(
                    model,
                    line,
                    f"locks {_short(a)} and {_short(b)} are acquired in both "
                    f"orders ({_short(a)}→{_short(b)} here, {_short(b)}→"
                    f"{_short(a)} at {model.path}:{pairs[(b, a)]}); pick one "
                    "order to make deadlock impossible",
                )


def _bound_name(node: ast.AST) -> str:
    """Where an assignment keeps a value: ``"t"``, ``"self.t"`` or ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    attr = _self_attr(node)
    return "" if attr is None else f"self.{attr}"


class UnmanagedThreadRule(_ConcurrencyRule):
    """Every thread needs a join or stop-Event path to shutdown."""

    name = "unmanaged-thread"
    description = (
        "threading.Thread(...) must be bound and joined (or stoppable "
        "via an Event that some method sets); fire-and-forget threads "
        "leak work past shutdown"
    )

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or not module.in_package(self.packages):
            return
        owners = {m.name: m for m in class_models(module)}
        aliases = import_aliases(tree)
        for unit in tree.body:  # a class or a module function
            owner = owners.get(unit.name) if isinstance(unit, ast.ClassDef) else None
            bound: Dict[int, str] = {}  # id(value) -> where the assignment keeps it
            joined: Set[str] = set()
            threads: List[ast.Call] = []
            for node in ast.walk(unit):
                if isinstance(node, ast.Assign):
                    bound.update((id(node.value), _bound_name(t)) for t in node.targets)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    bound[id(node.value)] = _bound_name(node.target)
                elif isinstance(node, ast.Call) and dotted_call_name(node, aliases) in THREAD_CTORS:
                    threads.append(node)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "join":
                        joined.add(_bound_name(node.func.value))
            for call in threads:
                name = bound.get(id(call), "")
                if not name:
                    detail = "the thread object is discarded"
                elif name.startswith("self.") and owner is not None:
                    if name in joined or owner.stop_events:
                        continue
                    detail = f"{name} is never joined and {owner.name} sets no stop Event"
                elif name in joined:
                    continue
                else:
                    detail = f"{name!r} is never joined"
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=call.lineno,
                    message=f"thread created without a shutdown path: {detail}; join "
                    "it on stop() or guard its loop with a stop Event so work "
                    "cannot leak past exit",
                )


class LockConfinementRule(_ConcurrencyRule):
    """Locks are built only where the concurrency rules look."""

    name = "lock-confinement"
    description = (
        "threading.Lock/RLock may be built only inside the concurrency "
        "packages, where the per-class rules check how it is held"
    )

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or "Lock" not in module.source:  # no lock can be built
            return
        if module.in_package(self.packages + LOCK_EXEMPT_PACKAGES):
            return
        aliases = import_aliases(tree)
        for call in iter_calls(tree):
            dotted = dotted_call_name(call, aliases)
            if dotted in LOCK_CTORS:
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=call.lineno,
                    message=f"{dotted}() outside {', '.join(self.packages)}, where "
                    "the concurrency rules do not check how it is held; keep "
                    "shared state in the service, or hand data across threads "
                    "through a queue",
                )


def concurrency_rules(packages: Sequence[str] = CONCURRENCY_PACKAGES) -> List[Rule]:
    """The five concurrency rules, reporting inside ``packages``."""
    return [
        LockDisciplineRule(packages),
        BlockingUnderLockRule(packages),
        LockOrderRule(packages),
        UnmanagedThreadRule(packages),
        LockConfinementRule(packages),
    ]
