"""Concurrency lint rules sized to a shared-nothing daemon.

``shared-state``, in :data:`CONCURRENCY_PACKAGES`: a ``with self.<lock>:``
body calls nothing but ``len`` and a raised exception's constructor, and
nests no ``with``. In a class that builds a lock or starts a
``Thread(target=self.m)``, each attribute written after ``__init__`` is
*locked* (one lock held at every access), *worker-private* (touched only
in ``m``) or *published* (in ``_GUARDED_BY``, replaced whole, never
mutated); its other methods, and module functions, read another object
only where that object's class publishes. ``unmanaged-thread``: every
thread is joined, or its class sets a stop ``threading.Event``.
``lock-confinement``: no lock is built elsewhere.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.qa.framework import Finding, ModuleFile, Project, Rule
from repro.qa.framework import dotted_call_name, import_aliases, iter_calls

#: Where the rules report; the only place a lock may be built.
CONCURRENCY_PACKAGES: Tuple[str, ...] = ("repro.service", "repro.obs.httpd")

LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})

#: Method names that change their receiver in place.
MUTATORS = frozenset("append appendleft extend extendleft insert add discard remove pop popleft "
                     "popitem clear update setdefault sort reverse rotate".split())

#: Methods that run before the object is shared.
CONSTRUCTION = frozenset({"__init__", "__post_init__"})

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Touch(NamedTuple):
    """One ``self.attr`` access; ``lock`` is the lock held or ``""``."""

    attr: str
    method: str
    line: int
    lock: str
    kind: str  # read, write or mutate


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` → ``"x"``."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "self":
        return node.attr
    return None


def _assigned(node: ast.AST) -> List[Tuple[ast.expr, ast.expr]]:
    """``(target, value)`` for each target of an assignment with a value."""
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [(node.target, node.value)]
    return []


def _ctors(unit: ast.AST, aliases: Dict[str, str]) -> Dict[str, str]:
    """``self.x = threading.Lock()`` anywhere in ``unit`` → ``{"x": "threading.Lock"}``."""
    out: Dict[str, str] = {}
    for node in ast.walk(unit):
        for target, value in _assigned(node):
            attr = _self_attr(target)
            if attr is not None and isinstance(value, ast.Call):
                out.setdefault(attr, dotted_call_name(value, aliases) or "")
    return out


class _Class:
    """One class: its ``self`` accesses, lock-body faults and foreign readers."""

    def __init__(self, module: ModuleFile, node: ast.ClassDef, aliases: Dict[str, str]) -> None:
        self.name, self.module, self.line, self.aliases = node.name, module, node.lineno, aliases
        ctors = _ctors(node, aliases)
        self.locks = {a for a, c in ctors.items() if c in LOCK_CTORS}
        self.guarded: Dict[str, str] = {}
        for item in node.body:
            if "_GUARDED_BY" in [getattr(t, "id", "") for t in getattr(item, "targets", ())]:
                self.guarded.update(ast.literal_eval(getattr(item, "value", None)))
        methods = [n for n in node.body if isinstance(n, FUNCTIONS)]
        self.methods = {m.name for m in methods}
        self.workers = {
            _self_attr(kw.value) or ""
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and dotted_call_name(call, aliases) == "threading.Thread"
            for kw in call.keywords if kw.arg == "target"
        }
        self.threaded = bool(self.locks or self.workers - {""})
        skip = CONSTRUCTION | (self.workers if self.threaded else self.methods)
        self.readers = [m for m in methods if m.name not in skip]  # may run beside the worker
        self.touches: List[Touch] = []
        self.faults: Set[Tuple[int, str]] = set()
        for method in methods:
            self._scan(method.name, method, "")
        #: Accesses after construction, by attribute; sync objects exempt.
        self.live: Dict[str, List[Touch]] = {}
        for touch in self.touches:
            sync = ctors.get(touch.attr, "").startswith(("threading.", "queue."))
            if touch.method not in CONSTRUCTION and not sync:
                self.live.setdefault(touch.attr, []).append(touch)
        self.written = {a for a, live in self.live.items() if any(t.kind != "read" for t in live)}

    def _scan(self, method: str, node: ast.AST, lock: str) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken = [a for i in node.items if (a := _self_attr(i.context_expr) or "") in self.locks]
            if len(taken) > 1:
                self.faults.add((node.lineno, "one `with` takes two locks"))
            for stmt in node.body if taken else ():
                self._leaf(stmt)
            lock = lock or (taken[0] if taken else "")
        elif isinstance(node, ast.Attribute) and _self_attr(node) not in {None, *self.methods}:
            kind = "read" if isinstance(node.ctx, ast.Load) else "write"
            self.touches.append(Touch(node.attr, method, node.lineno, lock, kind))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            stored = _self_attr(node.value)
            if stored is not None:
                self.touches.append(Touch(stored, method, node.lineno, lock, "mutate"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = _self_attr(node.func.value)
            if receiver is not None and node.func.attr in MUTATORS:
                self.touches.append(Touch(receiver, method, node.lineno, lock, "mutate"))
            elif receiver in self.locks and node.func.attr == "acquire":
                self.faults.add((node.lineno, f"self.{receiver}.acquire() outside a `with`"))
        for child in ast.iter_child_nodes(node):
            self._scan(method, child, lock)

    def _leaf(self, stmt: ast.stmt) -> None:
        raised = {id(n.exc) for n in ast.walk(stmt) if isinstance(n, ast.Raise)}
        for node in ast.walk(stmt):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                self.faults.add((node.lineno, "a `with` nested in a lock body"))
            elif isinstance(node, ast.Call) and id(node) not in raised:
                if getattr(node.func, "id", "") != "len":
                    self.faults.add((node.lineno, f"{ast.unparse(node.func)}() in a lock body"))

    def findings(self) -> Iterator[Tuple[int, str]]:
        for line, what in sorted(self.faults):
            yield line, f"{self.name}: {what}; a lock body may only read, assign and call len()"
        for attr in sorted(a for a, why in self.guarded.items() if not str(why).strip()):
            yield self.line, f"{self.name}._GUARDED_BY[{attr!r}] has an empty justification"
        for attr, live in sorted(self.live.items()):
            mutated = [t.line for t in live if t.kind == "mutate"]
            locks = {t.lock for t in live}
            if attr in self.guarded and mutated:
                yield mutated[0], f"{self.name}.{attr} is published but mutated; assign a new value"
            elif attr in self.guarded or not self.threaded or attr not in self.written:
                continue
            elif (len(locks) > 1 or "" in locks) and {t.method for t in live} - self.workers:
                site = min(live, key=lambda t: (bool(t.lock), t.kind == "read", t.line))
                what = "under one lock, private to the worker thread, or published in _GUARDED_BY"
                yield site.line, f"{self.name}.{attr} is written after __init__ but is not {what}"


class _ScopedRule(Rule):
    def __init__(self, packages: Sequence[str] = CONCURRENCY_PACKAGES) -> None:
        self.packages = tuple(packages)


class SharedStateRule(_ScopedRule):
    """Leaf lock bodies; locked, worker-private or published state."""

    name = "shared-state"
    description = "lock bodies are leaves; shared state is locked, worker-private or published"

    def check_project(self, project: Project) -> Iterator[Finding]:
        units = [
            (m, node, aliases)
            for m in project.modules
            if m.tree is not None and m.in_package(self.packages)
            for aliases in [import_aliases(m.tree)]
            for node in m.tree.body
        ]
        classes = [_Class(m, n, a) for m, n, a in units if isinstance(n, ast.ClassDef)]
        for cls in classes:
            for line, message in cls.findings():
                yield Finding(self.name, cls.module.path, line, message)
        # Module functions may run on any thread.
        readers = [(m, f"{n.name}()", n, a) for m, n, a in units if isinstance(n, FUNCTIONS)]
        readers += [(c.module, c.name, m, c.aliases) for c in classes for m in c.readers]
        unpublished = {a: c.name for c in classes for a in c.written if a not in c.guarded}
        for module, who, fn, aliases in readers:  # x.attr, not called, of another object
            called = {id(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
            for node in ast.walk(fn):
                name = getattr(getattr(node, "value", None), "id", "self")
                if isinstance(node, ast.Attribute) and name not in {"self", *aliases}:
                    if node.attr in unpublished and id(node) not in called:
                        message = f"{who} touches unpublished {unpublished[node.attr]}.{node.attr}"
                        yield Finding(self.name, module.path, node.lineno, message)


def _bound_name(node: ast.AST) -> str:
    """Where an assignment keeps a value: ``"t"``, ``"self.t"`` or ``""``."""
    attr = _self_attr(node)
    return str(getattr(node, "id", "")) if attr is None else f"self.{attr}"


class UnmanagedThreadRule(_ScopedRule):
    """Every thread needs a join or stop-Event path to shutdown."""

    name = "unmanaged-thread"
    description = "every thread is joined, or its class sets a stop threading.Event"

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or not module.in_package(self.packages):
            return
        aliases = import_aliases(tree)
        for unit in tree.body:  # a class or a module function
            events = {a for a, c in _ctors(unit, aliases).items() if c == "threading.Event"}
            # id(value) -> where an assignment keeps it
            kept = {id(v): _bound_name(t) for n in ast.walk(unit) for t, v in _assigned(n)}
            calls = [n for n in ast.walk(unit) if isinstance(n, ast.Call)]
            on = [(c.func.attr, c.func.value) for c in calls if isinstance(c.func, ast.Attribute)]
            joined = {_bound_name(receiver) for method, receiver in on if method == "join"}
            stoppable = any(m == "set" and _self_attr(r) in events for m, r in on)
            for call in (c for c in calls if dotted_call_name(c, aliases) == "threading.Thread"):
                name = kept.get(id(call), "")  # "" (discarded) is never managed
                if name and (name in joined or stoppable and name.startswith("self.")):
                    continue
                detail = f"{name!r} is never joined" if name else "the thread object is discarded"
                message = f"thread without a shutdown path: {detail}; join it or set a stop Event"
                yield Finding(self.name, module.path, call.lineno, message)


class LockConfinementRule(_ScopedRule):
    """Locks are built only where ``shared-state`` looks."""

    name = "lock-confinement"
    description = "threading.Lock/RLock may be built only where shared-state checks it"

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or "Lock" not in module.source or module.in_package(self.packages):
            return
        aliases = import_aliases(tree)
        for call in iter_calls(tree):
            if (dotted := dotted_call_name(call, aliases)) in LOCK_CTORS:
                message = f"{dotted}() outside {', '.join(self.packages)}, unseen by shared-state"
                yield Finding(self.name, module.path, call.lineno, message)


def concurrency_rules(packages: Sequence[str] = CONCURRENCY_PACKAGES) -> List[Rule]:
    """The three concurrency rules, reporting inside ``packages``."""
    return [SharedStateRule(packages), UnmanagedThreadRule(packages), LockConfinementRule(packages)]
