"""Execution-exploring race detector for the C subset.

A deterministic interpreter runs the program one shared operation at a
time; a depth-first scheduler enumerates thread interleavings up to a
configurable bound of schedules.  By default it uses dynamic
partial-order reduction (Flanagan & Godefroid, POPL 2005) with sleep
sets: after each schedule it computes happens-before over the executed
trace and branches only where two dependent operations of different
threads could run in the other order.  Operations are dependent when they
touch the same variable (reads included), the same mutex, or are both
thread creations.  Schedules that differ only in the order of
independent operations give the same races, lockset results, deadlocks
and diagnostics, so one of them is enough; the bound therefore counts
reduced schedules.  ``reduction="none"`` branches at every operation and
is kept as the test oracle for the reduction.  Along each schedule the
detector keeps:

* vector clocks, advanced over lock/unlock/create/join edges, for the
  precise happens-before race check;
* a per-variable lockset intersection (the classic locking-discipline
  check, kept deliberately simple, false positives and all);
* the set of stuck states, where some thread is unfinished but nothing
  can run: deadlocks.

Exploration restarts the program from scratch for every schedule, so a
schedule is just the list of thread choices taken at each decision
point; any prefix can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .reports import DataRace, Diagnostic, RaceSet, SourceCoord, merge_runs
from . import cst
from .cst import CstNode

DEFAULT_BOUND = 100_000
DEFAULT_STEP_BUDGET = 10_000
MAX_THREADS = 5  # main plus four spawned threads

MODE_HB = "HappensBefore"
MODE_LOCKSET = "Lockset"


class UnsupportedConstruct(Exception):
    """The program uses something outside the modeled subset."""


# ---------------------------------------------------------------------------
# Vector clocks and synchronization edges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorClock:
    """Per-thread logical counters; missing components read as zero."""

    counts: tuple[int, ...] = ()

    def get(self, tid: int) -> int:
        return self.counts[tid] if tid < len(self.counts) else 0

    def tick(self, tid: int) -> "VectorClock":
        size = max(len(self.counts), tid + 1)
        values = [self.get(i) for i in range(size)]
        values[tid] += 1
        return VectorClock(tuple(values))

    def join(self, other: "VectorClock") -> "VectorClock":
        size = max(len(self.counts), len(other.counts))
        return VectorClock(tuple(max(self.get(i), other.get(i)) for i in range(size)))

    def leq(self, other: "VectorClock") -> bool:
        size = max(len(self.counts), len(other.counts))
        return all(self.get(i) <= other.get(i) for i in range(size))

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)


def sync_lock(acquirer: VectorClock, tid: int, mutex_clock: VectorClock) -> VectorClock:
    """Acquiring joins the mutex's published clock, then ticks."""
    return acquirer.join(mutex_clock).tick(tid)


def sync_unlock(releaser: VectorClock, tid: int) -> tuple[VectorClock, VectorClock]:
    """Release publishes the current clock, then ticks.

    Returns (clock published to the mutex, releaser's clock afterwards).
    """
    return releaser, releaser.tick(tid)


def sync_create(parent: VectorClock, parent_tid: int, child_tid: int) -> tuple[VectorClock, VectorClock]:
    """Creation hands the parent's clock to the child; each side ticks.

    Returns (child's starting clock, parent's clock afterwards).  The
    child's own component starts at one so its very first access is
    already distinguishable from the parent's later work.
    """
    return parent.tick(child_tid), parent.tick(parent_tid)


def sync_join(parent: VectorClock, tid: int, child_final: VectorClock) -> VectorClock:
    """Joining folds the finished child's whole history into the parent."""
    return parent.join(child_final).tick(tid)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessRecord:
    variable: str
    kind: str  # "read" | "write"
    thread: int
    clock: VectorClock
    lockset: frozenset
    coord: SourceCoord
    function: str


@dataclass(frozen=True)
class DetectedRace:
    variable: str
    current: AccessRecord
    previous: AccessRecord
    mode: str

    def key(self) -> tuple:
        a, b = sorted((self.current.coord, self.previous.coord))
        return (self.variable, a, b)

    def to_data_race(self, file: str | None = None) -> DataRace:
        return DataRace(self.variable, self.current.coord, self.previous.coord, file)


@dataclass(frozen=True)
class BlockedThread:
    tid: int
    waiting_on: str  # "mutex:<name>" or "join:<tid>"
    held: tuple[str, ...]


@dataclass(frozen=True)
class DeadlockRecord:
    """A reachable stuck state plus the schedule prefix that reaches it."""

    threads: tuple[BlockedThread, ...]
    schedule: tuple[int, ...]

    def involved_mutexes(self) -> frozenset:
        names = set()
        for t in self.threads:
            if t.waiting_on.startswith("mutex:"):
                names.add(t.waiting_on.split(":", 1)[1])
            names.update(t.held)
        return frozenset(names)

    def involves(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self.involved_mutexes())


@dataclass
class Verdict:
    hb_races: tuple[DetectedRace, ...]
    lockset_races: tuple[DetectedRace, ...]
    deadlocks: tuple[DeadlockRecord, ...]
    explored: int
    truncated: bool
    diagnostics: tuple[Diagnostic, ...]
    traces: tuple = ()

    @property
    def clean(self) -> bool:
        return not self.hb_races and not self.deadlocks


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def hb_check(current: AccessRecord, history) -> list[DetectedRace]:
    """Races between `current` and prior accesses with incomparable clocks."""
    races = []
    for prior in history:
        if prior.thread == current.thread:
            continue
        if prior.kind == "read" and current.kind == "read":
            continue
        if current.clock.concurrent_with(prior.clock):
            races.append(DetectedRace(current.variable, current, prior, MODE_HB))
    return races


class LocksetState:
    """Running intersection of locks held at each access to one variable."""

    __slots__ = ("candidates", "last")

    def __init__(self):
        self.candidates: frozenset | None = None  # None means "universal"
        self.last: AccessRecord | None = None


def lockset_check(current: AccessRecord, state: LocksetState) -> DetectedRace | None:
    """Intersect the candidate set; empty plus a write means trouble.

    No ownership state machine is modeled, so single-threaded code and
    fork/join-ordered code get flagged too; the hybrid verdict keeps
    these as advisories rather than reports.
    """
    if state.candidates is None:
        state.candidates = current.lockset
    else:
        state.candidates = state.candidates & current.lockset
    race = None
    if (
        state.last is not None
        and not state.candidates
        and (current.kind == "write" or state.last.kind == "write")
    ):
        race = DetectedRace(current.variable, current, state.last, MODE_LOCKSET)
    state.last = current
    return race


def hybrid_verdict(
    hb_races, lockset_races, mode: str = "hb", file: str | None = None
) -> tuple[RaceSet, tuple[Diagnostic, ...]]:
    """Pick the reported race set for a mode; demote the rest to advisories.

    The default reports only happens-before races (no false positives);
    lockset-only findings become advisory diagnostics.  "lockset" and
    "union" modes are available for comparison.
    """
    hb_set = RaceSet.of([r.to_data_race(file) for r in hb_races])
    ls_set = RaceSet.of([r.to_data_race(file) for r in lockset_races])
    if mode == "hb":
        known = {r.key() for r in hb_set}
        advisories = tuple(
            Diagnostic(
                "advisory",
                f"lockset-only race (possible false positive): {r.summary_line()}",
            )
            for r in ls_set
            if r.key() not in known
        )
        return hb_set, advisories
    if mode == "lockset":
        return ls_set, ()
    if mode == "union":
        return merge_runs([hb_set, ls_set]), ()
    raise ValueError(f"unknown lockset mode: {mode!r}")


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------


class _ProgramFault(Exception):
    """Runtime fault inside one schedule (bad call shape, div by zero...)."""


@dataclass
class _Model:
    globals_: dict
    mutexes: frozenset
    functions: dict
    main: CstNode


def _const_eval(expr: CstNode) -> int:
    if expr.kind == cst.INT_LITERAL:
        return expr.value
    if expr.kind == cst.UNARY_EXPR:
        value = _const_eval(expr.operand)
        return -value if expr.op == "-" else (1 if value == 0 else 0)
    if expr.kind == cst.BINARY_EXPR:
        return _apply_binary(expr.op, _const_eval(expr.lhs), _const_eval(expr.rhs))
    raise UnsupportedConstruct("global initializers must be constant expressions")


def _c_div(a: int, b: int) -> int:
    q = a // b
    if (a % b != 0) and ((a < 0) != (b < 0)):
        q += 1
    return q


def _apply_binary(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise _ProgramFault("division by zero")
        return _c_div(a, b)
    if op == "%":
        if b == 0:
            raise _ProgramFault("modulo by zero")
        return a - _c_div(a, b) * b
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    raise _ProgramFault(f"unknown operator {op!r}")


def build_model(tree: CstNode) -> _Model:
    """Static validation of the translation unit before exploration."""
    globals_: dict = {}
    mutexes: set = set()
    functions: dict = {}
    for node in tree.child_nodes():
        if node.kind == cst.VAR_DECL:
            globals_[node.name] = _const_eval(node.init) if node.init is not None else 0
        elif node.kind == cst.MUTEX_DECL:
            mutexes.add(node.name)
        elif node.kind == cst.FUNC_DEF:
            functions[node.name] = node
    if "main" not in functions:
        raise UnsupportedConstruct("program has no main function")
    for node in tree.walk():
        if node.kind == cst.CALL_EXPR and node.callee.name == "pthread_create":
            if len(node.args) != 4 or node.args[2].kind != cst.IDENTIFIER:
                raise UnsupportedConstruct(
                    "pthread_create must be called as pthread_create(&t, 0, fn, 0)"
                )
            target = node.args[2].name
            if target not in functions or target == "main":
                raise UnsupportedConstruct(f"pthread_create targets unknown function '{target}'")
    return _Model(globals_, frozenset(mutexes), functions, functions["main"])


# ---------------------------------------------------------------------------
# Interpreter (generators yielding shared-operation intents)
# ---------------------------------------------------------------------------


class _Return(Exception):
    def __init__(self, value: int):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _coord(node: CstNode) -> SourceCoord:
    return node.span.start


def _eval(model: _Model, expr: CstNode, env: dict):
    kind = expr.kind
    if kind == cst.INT_LITERAL:
        return expr.value
    if kind == cst.IDENTIFIER:
        if expr.name in env:
            return env[expr.name]
        if expr.name in model.globals_:
            value = yield ("read", expr.name, _coord(expr))
            return value
        raise _ProgramFault(f"unknown identifier '{expr.name}'")
    if kind == cst.UNARY_EXPR:
        value = yield from _eval(model, expr.operand, env)
        return -value if expr.op == "-" else (1 if value == 0 else 0)
    if kind == cst.BINARY_EXPR:
        left = yield from _eval(model, expr.lhs, env)
        if expr.op == "&&":
            if left == 0:
                return 0
            right = yield from _eval(model, expr.rhs, env)
            return 1 if right != 0 else 0
        if expr.op == "||":
            if left != 0:
                return 1
            right = yield from _eval(model, expr.rhs, env)
            return 1 if right != 0 else 0
        right = yield from _eval(model, expr.rhs, env)
        return _apply_binary(expr.op, left, right)
    if kind == cst.ASSIGN_EXPR:
        name = expr.target.name
        if expr.op == "+=":
            if name in env:
                base = env[name]
            elif name in model.globals_:
                base = yield ("read", name, _coord(expr.target))
            else:
                raise _ProgramFault(f"unknown identifier '{name}'")
            rhs = yield from _eval(model, expr.value, env)
            value = base + rhs
        else:
            value = yield from _eval(model, expr.value, env)
        if name in env:
            env[name] = value
        elif name in model.globals_:
            yield ("write", name, value, _coord(expr.target))
        else:
            raise _ProgramFault(f"unknown identifier '{name}'")
        return value
    if kind == cst.CALL_EXPR:
        result = yield from _eval_call(model, expr, env)
        return result
    if kind == cst.ADDR_OF:
        raise _ProgramFault("address-of is only meaningful as a pthread call argument")
    raise _ProgramFault(f"cannot evaluate {kind}")


def _eval_call(model: _Model, call: CstNode, env: dict):
    name = call.callee.name
    if name in ("pthread_mutex_lock", "pthread_mutex_unlock"):
        if len(call.args) != 1 or call.args[0].kind != cst.ADDR_OF:
            raise _ProgramFault(f"{name} expects one argument of the form &mutex")
        mutex = call.args[0].operand.name
        if mutex not in model.mutexes:
            raise _ProgramFault(f"'{mutex}' is not a declared mutex")
        op = "lock" if name == "pthread_mutex_lock" else "unlock"
        yield (op, mutex, _coord(call))
        return 0
    if name == "pthread_create":
        handle = call.args[0]
        if handle.kind != cst.ADDR_OF:
            raise _ProgramFault("pthread_create expects &handle as its first argument")
        handle_name = handle.operand.name
        if handle_name not in env:
            raise _ProgramFault(f"'{handle_name}' is not a declared pthread_t")
        yield from _eval(model, call.args[1], env)
        target = call.args[2].name
        yield from _eval(model, call.args[3], env)
        child = yield ("create", target, _coord(call))
        env[handle_name] = child
        return 0
    if name == "pthread_join":
        if len(call.args) != 2 or call.args[0].kind != cst.IDENTIFIER:
            raise _ProgramFault("pthread_join expects (handle, 0)")
        handle_name = call.args[0].name
        if handle_name not in env:
            raise _ProgramFault(f"'{handle_name}' is not a declared pthread_t")
        yield from _eval(model, call.args[1], env)
        yield ("join", env[handle_name], _coord(call))
        return 0
    raise _ProgramFault(f"call to unsupported function '{name}'")


def _exec_stmt(model: _Model, stmt: CstNode, env: dict):
    kind = stmt.kind
    if kind == cst.EXPR_STMT:
        yield from _eval(model, stmt.expr, env)
        return
    if kind == cst.DECL_STMT:
        value = 0
        if stmt.init is not None:
            value = yield from _eval(model, stmt.init, env)
        env[stmt.name] = value
        return
    if kind == cst.COMPOUND_STMT:
        for sub in stmt.statements:
            yield from _exec_stmt(model, sub, env)
        return
    if kind == cst.IF_STMT:
        cond = yield from _eval(model, stmt.cond, env)
        if cond != 0:
            yield from _exec_stmt(model, stmt.then, env)
        elif stmt.els is not None:
            yield from _exec_stmt(model, stmt.els, env)
        return
    if kind == cst.WHILE_STMT:
        while True:
            cond = yield from _eval(model, stmt.cond, env)
            if cond == 0:
                return
            try:
                yield from _exec_stmt(model, stmt.body, env)
            except _Break:
                return
            except _Continue:
                pass
    if kind == cst.RETURN_STMT:
        value = 0
        if stmt.expr is not None:
            value = yield from _eval(model, stmt.expr, env)
        raise _Return(value)
    if kind == cst.BREAK_STMT:
        raise _Break  # the parser accepts it only inside a while
    if kind == cst.CONTINUE_STMT:
        raise _Continue
    raise _ProgramFault(f"cannot execute {kind}")


def _thread_main(model: _Model, func: CstNode, arg: int):
    env = {}
    if func.param is not None:
        env[func.param] = arg
    try:
        yield from _exec_stmt(model, func.body, env)
    except _Return:
        pass


# ---------------------------------------------------------------------------
# One deterministic execution
# ---------------------------------------------------------------------------

_RUNNABLE = "runnable"
_FINISHED = "finished"

# Operations of one class on the same object are dependent; a join has no
# class, since its happens-before edge from the target already orders it.
_CONFLICT_CLASS = {"read": "var", "write": "var", "lock": "mutex", "unlock": "mutex",
                   "create": "create"}


def _conflict_key(op: tuple):
    """What `op` = (kind, object) conflicts on; None if nothing.

    Every create conflicts with every other, because thread ids are
    assigned in creation order.
    """
    cls = _CONFLICT_CLASS.get(op[0])
    if cls is None or cls == "create":
        return cls
    return (cls, op[1])


class _Step:
    """One scheduling decision: who could run, who ran, and what each
    live thread was about to do, as (kind, object) pairs."""

    __slots__ = ("enabled", "choice", "pending")

    def __init__(self, enabled: tuple, choice: int, pending: dict):
        self.enabled = enabled
        self.choice = choice
        self.pending = pending  # tid -> (kind, object)

    @property
    def op(self) -> tuple:
        return self.pending[self.choice]


@dataclass
class _ThreadState:
    tid: int
    function: str
    gen: object
    clock: VectorClock
    held: set = field(default_factory=set)
    pending: tuple | None = None
    status: str = _RUNNABLE
    steps: int = 0
    final_clock: VectorClock | None = None
    self_blocked: bool = False


class _Run:
    """Execute the program once; `choose(index, enabled, pending)` picks
    the thread for each decision, or None to stop the run there."""

    def __init__(self, model: _Model, choose, step_budget: int, record_trace: bool):
        self.model = model
        self.choose = choose
        self.step_budget = step_budget
        self.record_trace = record_trace

        self.globals_ = dict(model.globals_)
        self.mutex_owner: dict = {}
        self.mutex_clock: dict = {}
        self.threads: list[_ThreadState] = []
        # Full access history per variable.  A last-access-per-thread
        # frontier looks sufficient but misses racy coordinate pairs when
        # control flow is data-dependent (a branch reachable only after
        # the other thread's later access hides its earlier one).
        self.histories: dict = {}  # var -> [AccessRecord, ...]
        self.lockset_states: dict = {}  # var -> LocksetState

        self.hb_races: list[DetectedRace] = []
        self.ls_races: list[DetectedRace] = []
        self.deadlock: DeadlockRecord | None = None
        self.diagnostics: list[Diagnostic] = []
        self.decisions: list[_Step] = []
        self.trace: list[tuple] = []
        self.aborted = False
        self.budget_exceeded = False

        main = _ThreadState(0, "main", _thread_main(model, model.main, 0), VectorClock())
        self.threads.append(main)
        self._advance(main, None)

    # -- bookkeeping ---------------------------------------------------

    def _diag(self, severity: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(severity, message))

    def _advance(self, thread: _ThreadState, send_value) -> None:
        try:
            thread.pending = thread.gen.send(send_value)
        except StopIteration:
            thread.pending = None
            thread.status = _FINISHED
            thread.final_clock = thread.clock
            if thread.held:
                held = ", ".join(sorted(thread.held))
                self._diag("warning", f"thread {thread.tid} finished still holding {held}")
        except _ProgramFault as fault:
            self._diag("error", f"thread {thread.tid}: {fault}")
            self.aborted = True
            thread.pending = None
            thread.status = _FINISHED
            thread.final_clock = thread.clock

    def _enabled(self, thread: _ThreadState) -> bool:
        intent = thread.pending
        if intent is None:
            return False
        op = intent[0]
        if op == "lock":
            owner = self.mutex_owner.get(intent[1])
            if owner is None:
                return True
            if owner == thread.tid and not thread.self_blocked:
                thread.self_blocked = True
                self._diag(
                    "error",
                    f"thread {thread.tid} locks '{intent[1]}' which it already "
                    "holds (self-deadlock)",
                )
            return False
        if op == "join":
            target = intent[1]
            if isinstance(target, int) and 0 <= target < len(self.threads):
                return self.threads[target].status == _FINISHED
            return True  # invalid handle: fault when executed
        return True

    def _note_access(self, record: AccessRecord) -> None:
        history = self.histories.setdefault(record.variable, [])
        self.hb_races.extend(hb_check(record, history))
        history.append(record)

        state = self.lockset_states.setdefault(record.variable, LocksetState())
        race = lockset_check(record, state)
        if race is not None:
            self.ls_races.append(race)

    # -- one scheduling step -------------------------------------------

    def _execute(self, thread: _ThreadState) -> None:
        intent = thread.pending
        op = intent[0]
        thread.steps += 1
        if thread.steps > self.step_budget:
            self._diag(
                "warning",
                f"thread {thread.tid} exceeded the step budget of {self.step_budget}; "
                "schedule truncated",
            )
            self.aborted = True
            self.budget_exceeded = True
            return

        if op == "read":
            _, var, coord = intent
            record = AccessRecord(var, "read", thread.tid, thread.clock,
                                  frozenset(thread.held), coord, thread.function)
            self._note_access(record)
            self._trace(("read", thread.tid, var, coord))
            self._advance(thread, self.globals_[var])
            return
        if op == "write":
            _, var, value, coord = intent
            record = AccessRecord(var, "write", thread.tid, thread.clock,
                                  frozenset(thread.held), coord, thread.function)
            self._note_access(record)
            self.globals_[var] = value
            self._trace(("write", thread.tid, var, coord))
            self._advance(thread, None)
            return
        if op == "lock":
            _, mutex, coord = intent
            self.mutex_owner[mutex] = thread.tid
            thread.held.add(mutex)
            thread.clock = sync_lock(thread.clock, thread.tid,
                                     self.mutex_clock.get(mutex, VectorClock()))
            self._trace(("lock", thread.tid, mutex, coord))
            self._advance(thread, None)
            return
        if op == "unlock":
            _, mutex, coord = intent
            if self.mutex_owner.get(mutex) != thread.tid:
                self._diag(
                    "error",
                    f"thread {thread.tid} unlocks '{mutex}' which it does not hold",
                )
                self.aborted = True
                return
            published, after = sync_unlock(thread.clock, thread.tid)
            self.mutex_clock[mutex] = published
            self.mutex_owner[mutex] = None
            thread.held.discard(mutex)
            thread.clock = after
            self._trace(("unlock", thread.tid, mutex, coord))
            self._advance(thread, None)
            return
        if op == "create":
            _, target, coord = intent
            if len(self.threads) >= MAX_THREADS:
                self._diag("error", f"thread limit of {MAX_THREADS} exceeded")
                self.aborted = True
                return
            child_tid = len(self.threads)
            child_clock, parent_clock = sync_create(thread.clock, thread.tid, child_tid)
            thread.clock = parent_clock
            child = _ThreadState(child_tid, target,
                                 _thread_main(self.model, self.model.functions[target], 0),
                                 child_clock)
            self.threads.append(child)
            self._advance(child, None)
            self._trace(("create", thread.tid, child_tid, coord))
            self._advance(thread, child_tid)
            return
        if op == "join":
            _, target, coord = intent
            if not (isinstance(target, int) and 0 <= target < len(self.threads)):
                self._diag("error", f"thread {thread.tid} joins an invalid handle")
                self.aborted = True
                return
            thread.clock = sync_join(thread.clock, thread.tid,
                                     self.threads[target].final_clock)
            self._trace(("join", thread.tid, target, coord))
            self._advance(thread, None)
            return
        raise AssertionError(f"unknown intent {op}")

    def _trace(self, event: tuple) -> None:
        if self.record_trace:
            self.trace.append(event)

    # -- main loop ------------------------------------------------------

    def execute(self) -> None:
        while not self.aborted:
            alive = [t for t in self.threads if t.status != _FINISHED]
            if not alive:
                return
            enabled = tuple(t.tid for t in alive if self._enabled(t))
            if not enabled:
                self._record_deadlock(alive)
                return
            pending = {t.tid: t.pending[:2] for t in alive}
            choice = self.choose(len(self.decisions), enabled, pending)
            if choice is None:
                return
            self.decisions.append(_Step(enabled, choice, pending))
            self._execute(self.threads[choice])

    def _record_deadlock(self, alive: list) -> None:
        blocked = []
        for t in sorted(alive, key=lambda t: t.tid):
            intent = t.pending
            if intent is None:
                continue
            if intent[0] == "lock":
                waiting = f"mutex:{intent[1]}"
            elif intent[0] == "join":
                waiting = f"join:{intent[1]}"
            else:  # unreachable for a stuck thread
                waiting = intent[0]
            blocked.append(BlockedThread(t.tid, waiting, tuple(sorted(t.held))))
        self.deadlock = DeadlockRecord(tuple(blocked), tuple(s.choice for s in self.decisions))


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _Exhaustive:
    """Every interleaving: each alternative at each decision is a new prefix.

    Follows `prefix`, then lets the lowest enabled thread run.
    """

    def __init__(self, prefix: tuple = ()):
        self.prefix = prefix
        self.pending: list[tuple] = []

    def choose(self, index: int, enabled: tuple, pending: dict):
        return self.prefix[index] if index < len(self.prefix) else enabled[0]

    def advance(self, run: _Run) -> bool:
        choices = tuple(step.choice for step in run.decisions)
        for i in range(len(choices) - 1, len(self.prefix) - 1, -1):
            step = run.decisions[i]
            for alt in reversed(step.enabled):
                if alt != step.choice:
                    self.pending.append(choices[:i] + (alt,))
        if not self.pending:
            return False
        self.prefix = self.pending.pop()
        return True


class _Node:
    """A state on the current DPOR path."""

    __slots__ = ("enabled", "pending", "chosen", "backtrack", "sleep")

    def __init__(self, enabled: tuple, pending: dict, chosen: int, sleep: dict):
        self.enabled = enabled
        self.pending = pending  # tid -> (kind, object), as in _Step
        self.chosen = chosen
        self.backtrack = {chosen}
        # tid -> (kind, object): threads whose next step from here only
        # leads to schedules equivalent to explored ones
        self.sleep = sleep


class _Dpor:
    """Stateless DPOR with sleep sets (Flanagan & Godefroid, POPL 2005).

    `stack` holds the states of the current schedule.  After each run the
    races of its trace add threads to the backtrack sets of earlier
    states; the next run replays the path up to the deepest state with a
    backtrack thread left to try and not asleep, then takes it.
    """

    def __init__(self):
        self.stack: list[_Node] = []

    def choose(self, index: int, enabled: tuple, pending: dict):
        if index < len(self.stack):
            return self.stack[index].chosen
        sleep = {}
        if index:
            parent = self.stack[index - 1]
            key = _conflict_key(parent.pending[parent.chosen])
            sleep = {tid: op for tid, op in parent.sleep.items()
                     if key is None or _conflict_key(op) != key}
        awake = [tid for tid in enabled if tid not in sleep]
        if not awake:
            return None  # every schedule from here is one already explored
        self.stack.append(_Node(enabled, pending, awake[0], sleep))
        return awake[0]

    def advance(self, run: _Run) -> bool:
        for state, tid in _reversals(run):
            node = self.stack[state]
            if tid in node.enabled:
                node.backtrack.add(tid)
            else:
                node.backtrack.update(node.enabled)
        while self.stack:
            node = self.stack[-1]
            node.sleep[node.chosen] = node.pending[node.chosen]
            options = node.backtrack.difference(node.sleep)
            if options:
                node.chosen = min(options)
                return True
            self.stack.pop()
        return False


def _reversals(run: _Run) -> list[tuple[int, int]]:
    """(state, thread) pairs where DPOR must also try running `thread`.

    Happens-before over the run's trace is program order, create and join
    edges, and the trace order of dependent operations.  A thread's next
    operation races with every dependent operation of another thread
    from the state where it became pending until it ran or the run
    ended, and with the last dependent operation before that state, if
    that one does not already happen before the thread.  Checking only
    where the operation ran would miss a lock that waited on another
    thread's critical section.  A run that aborted on a fault ends in an
    operation that stops every other thread, so it depends on all of
    their pending operations.
    """
    steps = run.decisions
    n = len(steps)
    if not n:
        return []
    final = {t.tid: t.pending[:2] for t in run.threads if t.status != _FINISHED}
    if run.aborted:
        final.pop(steps[-1].choice, None)  # its next operation never runs
    pendings = [step.pending for step in steps] + [final]

    # clocks[tid][u] is one more than the index of the latest event of
    # thread u that happens before thread tid's next operation.
    clocks: list[list[int]] = [[0] * MAX_THREADS]
    event_clocks: list[list[int]] = []
    last: dict = {}  # conflict key -> index of the latest event on it
    waiting: dict = {}  # tid -> (conflict key, state it became pending)
    found: list[tuple[int, int]] = []

    def pend(tid: int, state: int) -> None:
        key = _conflict_key(pendings[state][tid])
        waiting[tid] = (key, state)
        i = last.get(key)
        if i is not None and clocks[tid][steps[i].choice] <= i:
            found.append((i, tid))

    pend(0, 0)
    for k, step in enumerate(steps):
        tid = step.choice
        op = step.op
        key = _conflict_key(op)
        if key is not None:
            found.extend((k, other) for other, (wkey, _) in waiting.items()
                         if wkey == key and other != tid)
        clock = clocks[tid][:]
        sources = []
        if key in last:
            sources.append(event_clocks[last[key]])
        if op[0] == "join" and isinstance(op[1], int) and op[1] < len(clocks):
            sources.append(clocks[op[1]])
        for other in sources:
            clock = [max(a, b) for a, b in zip(clock, other)]
        clock[tid] = k + 1
        event_clocks.append(clock)
        clocks[tid] = clock
        if key is not None:
            last[key] = k
        if op[0] == "create":
            child = len(clocks)
            clocks.append(clock)
            if child in pendings[k + 1]:
                pend(child, k + 1)
        if tid in pendings[k + 1]:
            pend(tid, k + 1)
        else:
            waiting.pop(tid, None)
    if run.aborted:
        found.extend((n - 1, tid) for tid, (_, since) in waiting.items() if since < n)
    return found


def explore(
    tree: CstNode,
    bound: int = DEFAULT_BOUND,
    step_budget: int = DEFAULT_STEP_BUDGET,
    record_traces: bool = False,
    reduction: str = "dpor",
) -> Verdict:
    """Depth-first search of schedules, up to `bound` executions.

    With ``reduction="dpor"`` (the default) only schedules that reorder
    dependent operations are explored; ``"none"`` branches at every
    shared-variable access and synchronization operation and serves as
    the oracle the reduction is tested against.  Results are aggregated
    across schedules and deduplicated.
    """
    if reduction == "dpor":
        search = _Dpor()
    elif reduction == "none":
        search = _Exhaustive()
    else:
        raise ValueError(f"unknown reduction: {reduction!r}")
    model = build_model(tree)

    hb: dict = {}
    ls: dict = {}
    deadlocks: dict = {}
    diags: dict = {}
    traces: list = []
    explored = 0
    truncated = False

    more = True
    while more:
        if explored >= bound:
            truncated = True
            break
        run = _Run(model, search.choose, step_budget, record_traces)
        run.execute()
        explored += 1

        for race in run.hb_races:
            hb.setdefault(race.key(), race)
        for race in run.ls_races:
            ls.setdefault(race.key(), race)
        if run.deadlock is not None:
            deadlocks.setdefault(run.deadlock.threads, run.deadlock)
        for diag in run.diagnostics:
            diags.setdefault(diag, None)
        if run.budget_exceeded:
            truncated = True
        if record_traces:
            traces.append(tuple(run.trace))
        more = search.advance(run)

    return Verdict(
        hb_races=tuple(sorted(hb.values(), key=DetectedRace.key)),
        lockset_races=tuple(sorted(ls.values(), key=DetectedRace.key)),
        deadlocks=tuple(deadlocks.values()),
        explored=explored,
        truncated=truncated,
        diagnostics=tuple(diags.keys()),
        traces=tuple(traces),
    )


def replay(tree: CstNode, schedule: tuple, step_budget: int = DEFAULT_STEP_BUDGET) -> _Run:
    """Re-execute one recorded schedule prefix; used to confirm deadlocks."""
    search = _Exhaustive(tuple(schedule))
    run = _Run(build_model(tree), search.choose, step_budget, record_trace=True)
    run.execute()
    return run


# ---------------------------------------------------------------------------
# Sanitizer-log rendering (round-trips through the report parser)
# ---------------------------------------------------------------------------

_FAKE_PID = 4242
_ADDR_BASE = 0x0000000F2000
_MODULE_BASE = 0x4C7000


def _thread_label(tid: int) -> str:
    return "main thread" if tid == 0 else f"thread T{tid}"


def render_tsan_log(races, file: str) -> str:
    """Render detected races in the sanitizer's textual log dialect."""
    races = list(races)
    addresses: dict = {}
    lines: list[str] = []
    for race in races:
        addr = addresses.setdefault(race.variable, _ADDR_BASE + 0x40 * len(addresses))
        cur, prev = race.current, race.previous
        lines.append(f"WARNING: ThreadSanitizer: data race (pid={_FAKE_PID})")
        lines.append(
            f"  {cur.kind.capitalize()} of size 4 at 0x{addr:012x} by {_thread_label(cur.thread)}:"
        )
        lines.append(
            f"    #0 {cur.function} {file}:{cur.coord.line}:{cur.coord.column}"
            f" (a.out+0x{_MODULE_BASE + cur.coord.line:x})"
        )
        lines.append(
            f"  Previous {prev.kind} of size 4 at 0x{addr:012x} by {_thread_label(prev.thread)}:"
        )
        lines.append(
            f"    #0 {prev.function} {file}:{prev.coord.line}:{prev.coord.column}"
            f" (a.out+0x{_MODULE_BASE + prev.coord.line:x})"
        )
        lines.append(
            f"  Location is global '{race.variable}' of size 4 at 0x{addr:012x}"
            f" (a.out+0x{addr:012x})"
        )
        lines.append(
            f"SUMMARY: ThreadSanitizer: data race {file}:{cur.coord.line}:{cur.coord.column}"
            f" in {cur.function}"
        )
        lines.append("=====")
    lines.append(f"ThreadSanitizer: reported {len(races)} warnings")
    return "\n".join(lines) + "\n"
