"""Runtime lockset race sanitizer (the Eraser algorithm, opt-in).

The static rules (:mod:`repro.qa.concurrency`) reason about one class
at a time; this module watches an actual run, so it also sees one object
reaching into another (the drain thread into a tenant, an HTTP handler
into a tenant's view). It implements the classic Eraser lockset
discipline: for every shared instance attribute, track the set of locks
held at each access; the *candidate lockset* is the intersection across
accesses, and when it goes empty on a write after the attribute has been
seen from a second thread, no lock consistently protects it — a data
race candidate, reported with both access sites.

Pieces:

* :class:`TrackedLock` — wraps a ``threading.Lock``/``RLock`` so
  acquisitions land in a per-thread held-lock set;
* :func:`instrument_class` — patches ``__setattr__``/``__getattribute__``
  on a class so instance-attribute accesses report to the active
  checker (returns an undo callable);
* :func:`wrap_locks` — replaces every plain lock attribute on an
  *instance* with a :class:`TrackedLock`;
* :class:`LocksetChecker` — the state machine + report.

Instrumentation is process-global but inert unless a checker is
``activate()``-d (a context manager), so production code paths never pay
for it. The checker honours ``_GUARDED_BY`` class tables — attributes
the static layer sanctioned are skipped at runtime too.

Known limitation: container *mutations* (``list.append`` on an
already-read attribute) look like reads here, because only the attribute
fetch is visible to ``__getattribute__``. The static mutator-call
analysis covers that side within a class.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Type

__all__ = [
    "LocksetChecker",
    "RaceReport",
    "TrackedLock",
    "instrument_class",
    "wrap_locks",
]

#: The per-thread set of TrackedLock names currently held.
_HELD = threading.local()

#: The active checker, if any. Module-global so instrumented classes
#: need no back-reference; None means instrumentation is inert.
_ACTIVE: Optional["LocksetChecker"] = None
_ACTIVE_LOCK = threading.Lock()

#: Attribute names never tracked: dunders, and the instrumentation's own
#: bookkeeping would recurse otherwise.
_SKIP_PREFIX = "__"


def _sync_types() -> Tuple[type, ...]:
    """Value types exempt from tracking: synchronization primitives are
    *how* you protect data, not data — reading ``self._lock`` before
    acquiring it is the whole point and must not be flagged."""
    return (
        TrackedLock,
        type(threading.Lock()),
        type(threading.RLock()),
        threading.Event,
        threading.Condition,
        threading.Semaphore,
        threading.Thread,
        queue.Queue,
        queue.SimpleQueue,
    )


def _held_names() -> Set[str]:
    names = getattr(_HELD, "names", None)
    if names is None:
        names = set()
        _HELD.names = names
    return names


#: Monotonic per-thread tokens. ``threading.get_ident()`` is recycled
#: once a thread exits, so a short-lived worker's successor could be
#: mistaken for the attribute's existing owner and mask a race; these
#: tokens are never reused within a process.
_TOKEN_LOCK = threading.Lock()
_TOKEN_NEXT = [0]


def _thread_token() -> int:
    token = getattr(_HELD, "token", None)
    if token is None:
        with _TOKEN_LOCK:
            token = _TOKEN_NEXT[0]
            _TOKEN_NEXT[0] += 1
        _HELD.token = token
    return token


class TrackedLock:
    """A lock wrapper whose acquisitions are visible to the checker.

    Context-manager and ``acquire``/``release`` compatible, so it can
    replace a ``threading.Lock`` attribute transparently.
    """

    def __init__(self, name: str, inner: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._inner = inner if inner is not None else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            _held_names().add(self.name)
        return ok

    def release(self) -> None:
        _held_names().discard(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


@dataclass(frozen=True)
class _Access:
    """One witnessed access, kept for the report."""

    thread: str
    write: bool
    locks: FrozenSet[str]


@dataclass
class RaceReport:
    """One attribute whose candidate lockset went empty."""

    cls: str
    attr: str
    first: _Access
    second: _Access

    def render(self) -> str:
        return (
            f"{self.cls}.{self.attr}: lockset went empty — "
            f"{'write' if self.second.write else 'read'} on thread "
            f"{self.second.thread} held {sorted(self.second.locks) or '{}'} "
            f"vs earlier {'write' if self.first.write else 'read'} on "
            f"{self.first.thread} holding {sorted(self.first.locks) or '{}'}"
        )


@dataclass
class _AttrState:
    """Eraser state for one (instance id, attribute)."""

    owner: int
    exclusive: bool = True
    transferred: bool = False
    lockset: Optional[FrozenSet[str]] = None
    written_shared: bool = False
    witness: Optional[_Access] = None


class LocksetChecker:
    """The Eraser state machine over instrumented attribute accesses.

    Usage (or use the ``lockset_checker`` pytest fixture)::

        checker = LocksetChecker()
        undo = instrument_class(StreamService)
        try:
            with checker.activate():
                ... run threads ...
        finally:
            undo()
        checker.assert_clean()

    States per (object, attr): *exclusive* while a single thread owns it
    (initialization writes are free), with one free ownership handoff —
    main-thread construction followed by worker-only use is benign and
    ordered by ``Thread.start``. Once a third party touches the
    attribute it is *shared*: the candidate lockset is seeded from that
    access and each later access intersects its held set in. A write
    while shared with an empty candidate lockset is a race candidate.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: Dict[Tuple[int, str], _AttrState] = {}
        self._races: Dict[Tuple[str, str], RaceReport] = {}
        self.accesses = 0

    # -- lifecycle -------------------------------------------------------

    def activate(self) -> "_Activation":
        return _Activation(self)

    # -- the state machine ----------------------------------------------

    def note(self, obj_id: int, cls_name: str, attr: str, write: bool) -> None:
        """Record one access. Called from instrumented dunders — must not
        touch ``obj`` itself (any attribute access would recurse)."""
        thread = _thread_token()
        locks = frozenset(_held_names())
        key = (obj_id, attr)
        with self._lock:
            self.accesses += 1
            state = self._states.get(key)
            if state is None:
                self._states[key] = _AttrState(
                    owner=thread,
                    witness=_Access(_thread_name(), write, locks),
                )
                return
            if state.exclusive:
                if thread == state.owner:
                    state.witness = _Access(_thread_name(), write, locks)
                    return
                if not state.transferred:
                    # One ownership handoff is free: the common benign
                    # pattern is construction on the main thread followed
                    # by exclusive use on a worker (handed off through a
                    # queue or Thread.start happens-before edge).
                    state.owner = thread
                    state.transferred = True
                    state.witness = _Access(_thread_name(), write, locks)
                    return
                # Third party: genuinely shared from here on; seed the
                # candidate lockset from this access.
                state.exclusive = False
                state.lockset = locks
            else:
                assert state.lockset is not None
                state.lockset = state.lockset & locks
            if write:
                state.written_shared = True
            if state.written_shared and not state.lockset:
                race_key = (cls_name, attr)
                if race_key not in self._races:
                    first = state.witness or _Access("?", False, frozenset())
                    self._races[race_key] = RaceReport(
                        cls=cls_name,
                        attr=attr,
                        first=first,
                        second=_Access(_thread_name(), write, locks),
                    )
            state.witness = _Access(_thread_name(), write, locks)

    # -- results ---------------------------------------------------------

    @property
    def races(self) -> List[RaceReport]:
        with self._lock:
            return sorted(
                self._races.values(), key=lambda r: (r.cls, r.attr)
            )

    def assert_clean(self) -> None:
        races = self.races
        if races:
            lines = "\n  ".join(r.render() for r in races)
            raise AssertionError(
                f"lockset sanitizer found {len(races)} race candidate(s):\n"
                f"  {lines}"
            )


class _Activation:
    def __init__(self, checker: LocksetChecker) -> None:
        self._checker = checker
        self._previous: Optional[LocksetChecker] = None

    def __enter__(self) -> LocksetChecker:
        global _ACTIVE
        with _ACTIVE_LOCK:
            self._previous = _ACTIVE
            _ACTIVE = self._checker
        return self._checker

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        with _ACTIVE_LOCK:
            _ACTIVE = self._previous


def _thread_name() -> str:
    return threading.current_thread().name


# ----------------------------------------------------------------------
# Class instrumentation
# ----------------------------------------------------------------------


def _guarded_attrs(cls: type) -> FrozenSet[str]:
    """Attributes sanctioned by ``_GUARDED_BY`` anywhere in the MRO."""
    out: Set[str] = set()
    for base in cls.__mro__:
        table = base.__dict__.get("_GUARDED_BY")
        if isinstance(table, dict):
            out.update(str(k) for k in table)
    return frozenset(out)


def instrument_class(cls: Type[Any]) -> Callable[[], None]:
    """Patch ``cls`` so instance-attribute accesses report to the active
    checker; returns an undo callable restoring the originals.

    Only attributes living in the instance ``__dict__`` are tracked —
    methods, properties, and class attributes resolve through the class
    and are skipped, so the overhead stays on data, not dispatch.
    """
    if getattr(cls, "_lockset_instrumented", False):
        return lambda: None
    orig_setattr = cls.__setattr__
    orig_getattribute = cls.__getattribute__
    skip = _guarded_attrs(cls)
    sync = _sync_types()

    def tracked_setattr(self: Any, name: str, value: Any) -> None:
        checker = _ACTIVE
        if (
            checker is not None
            and not name.startswith(_SKIP_PREFIX)
            and name not in skip
            and not isinstance(value, sync)
        ):
            checker.note(id(self), cls.__name__, name, write=True)
        orig_setattr(self, name, value)

    def tracked_getattribute(self: Any, name: str) -> Any:
        checker = _ACTIVE
        if checker is not None and not name.startswith(_SKIP_PREFIX) and name not in skip:
            # Only instance data: class-level lookups are dispatch, and
            # synchronization primitives are the protection mechanism,
            # not protected data.
            d = orig_getattribute(self, "__dict__")
            if name in d and not isinstance(d[name], sync):
                checker.note(id(self), cls.__name__, name, write=False)
        return orig_getattribute(self, name)

    cls.__setattr__ = tracked_setattr  # type: ignore[method-assign, assignment]
    cls.__getattribute__ = tracked_getattribute  # type: ignore[method-assign, assignment]
    cls._lockset_instrumented = True  # type: ignore[attr-defined]

    def undo() -> None:
        cls.__setattr__ = orig_setattr  # type: ignore[method-assign, assignment]
        cls.__getattribute__ = orig_getattribute  # type: ignore[method-assign, assignment]
        if "_lockset_instrumented" in cls.__dict__:
            del cls._lockset_instrumented  # type: ignore[attr-defined]

    return undo


def wrap_locks(obj: Any, prefix: str = "") -> List[str]:
    """Replace every plain lock attribute on ``obj`` with a
    :class:`TrackedLock`; returns the wrapped lock names.

    Call *after* construction and *before* threads start. The name is
    ``ClassName.attr`` so reports line up with the static rule's ids.
    """
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    wrapped: List[str] = []
    label = prefix or type(obj).__name__
    for name, value in list(vars(obj).items()):
        if isinstance(value, lock_types):
            lock_name = f"{label}.{name}"
            object.__setattr__(obj, name, TrackedLock(lock_name, value))
            wrapped.append(lock_name)
        elif isinstance(value, TrackedLock):
            wrapped.append(value.name)
    return wrapped
