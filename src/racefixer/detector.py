"""Execution-exploring race detector for the C subset.

Each function is compiled once into a flat list of instructions, and a
deterministic interpreter runs every thread up to its next shared
operation; a depth-first scheduler enumerates thread interleavings up to a
configurable bound of schedules.  By default it uses dynamic
partial-order reduction (Flanagan & Godefroid, POPL 2005) with sleep
sets: as each operation runs it extends happens-before over the current
schedule, and the search branches only where two dependent operations
of different threads could run in the other order.  Operations are
dependent when they touch the same variable (reads included), the same
mutex, or are both thread creations.  Schedules that differ only in the order of
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

A thread's state is its position in its code, its operand stack and its
variables, so it can be copied.  DPOR saves the state at each decision
with more than one enabled thread, logs every later change to shared
state for undoing, and starts the next schedule from the deepest saved
decision instead of from the beginning.  Its own bookkeeping (clocks and
the latest operation on each object) is rolled back with that state, so
a schedule costs only the steps it does not share with the previous
one, and ``explore`` reads only the results those steps add.  A
schedule is still just the list of thread choices taken at each
decision point, and ``replay`` re-runs a prefix exactly from the initial
state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .reports import DataRace, Diagnostic, RaceSet, SourceCoord
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
        counts = self.counts
        if tid < len(counts):
            return VectorClock(counts[:tid] + (counts[tid] + 1,) + counts[tid + 1:])
        return VectorClock(counts + (0,) * (tid - len(counts)) + (1,))

    def join(self, other: "VectorClock") -> "VectorClock":
        a, b = self.counts, other.counts
        if len(a) < len(b):
            a, b = b, a
        return VectorClock(tuple(map(max, a, b)) + a[len(b):])

    def leq(self, other: "VectorClock") -> bool:
        # counts are never negative, so only a nonzero count past the end
        # of `other` can exceed its missing zeros
        a, b = self.counts, other.counts
        return all(map(operator.le, a, b)) and not any(a[len(b):])

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


def select_races(hb_races, lockset_races, mode: str) -> tuple[DetectedRace, ...]:
    """The races a lockset mode reports: the happens-before ones ("hb"),
    the lockset ones ("lockset"), or both, one race per key ("union")."""
    if mode == "hb":
        return tuple(hb_races)
    if mode == "lockset":
        return tuple(lockset_races)
    if mode == "union":
        by_key: dict = {}
        for race in (*hb_races, *lockset_races):
            by_key.setdefault(race.key(), race)
        return tuple(by_key.values())
    raise ValueError(f"unknown lockset mode: {mode!r}")


def hybrid_verdict(
    hb_races, lockset_races, mode: str = "hb", file: str | None = None
) -> tuple[RaceSet, tuple[Diagnostic, ...]]:
    """Pick the reported race set for a mode; demote the rest to advisories.

    The default reports only happens-before races (no false positives);
    lockset-only findings become advisory diagnostics.  "lockset" and
    "union" modes are available for comparison.
    """
    selected = select_races(hb_races, lockset_races, mode)
    races = RaceSet.of([r.to_data_race(file) for r in selected])
    if mode != "hb":
        return races, ()
    known = {r.key() for r in races}
    advisories = tuple(
        Diagnostic(
            "advisory",
            f"lockset-only race (possible false positive): {r.summary_line()}",
        )
        for r in RaceSet.of([r.to_data_race(file) for r in lockset_races])
        if r.key() not in known
    )
    return races, advisories


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------


class _ProgramFault(Exception):
    """Runtime fault inside one schedule (bad call shape, div by zero...)."""


@dataclass
class _Model:
    globals_: dict
    mutexes: frozenset
    functions: dict  # name -> instruction list, see _Compiler


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise _ProgramFault("division by zero")
    q = a // b
    if (a % b != 0) and ((a < 0) != (b < 0)):
        q += 1
    return q


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise _ProgramFault("modulo by zero")
    return a - _c_div(a, b) * b


_UNARY = {"-": operator.neg, "!": lambda v: 1 if v == 0 else 0}


def _truth(value: int) -> int:
    """The value of a && or || that its right side decides."""
    return 1 if value != 0 else 0


# Every binary operator but the short-circuiting && and ||.
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _c_div,
    "%": _c_mod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


def _const_eval(expr: CstNode) -> int:
    if expr.kind == cst.INT_LITERAL:
        return expr.value
    if expr.kind == cst.UNARY_EXPR:
        return _UNARY[expr.op](_const_eval(expr.operand))
    if expr.kind == cst.BINARY_EXPR and expr.op in _BINARY:
        lhs, rhs = _const_eval(expr.lhs), _const_eval(expr.rhs)
        try:
            return _BINARY[expr.op](lhs, rhs)
        except _ProgramFault as fault:
            raise UnsupportedConstruct(f"global initializer: {fault}") from None
    raise UnsupportedConstruct("global initializers must be constant expressions")


def _coord(ident: CstNode) -> SourceCoord:
    """Where an identifier, or a call through it, starts."""
    return SourceCoord(ident.token.line, ident.token.column)


def _access(ins: str, name: str, coord: SourceCoord) -> tuple:
    """A "read" or "store" of `name`, with its op should `name` be a global."""
    kind = "write" if ins == "store" else "read"
    return (ins, name, coord, (kind, name, ("var", name)))


class _Compiler:
    """Compiles one function into a flat list of instructions.

    An instruction is a tuple whose first item names it.  Local ones work
    on the thread's operand stack and variables: ``("const", n)``,
    ``("unary", function)``, ``("binary", function)``, ``("pop",)``,
    ``("decl", name)``,
    ``("jump", pc)``, ``("branch", pc, if_nonzero)``, ``("loop", pc)`` (a
    jump back to a loop's condition), ``("check_handle", name)``,
    ``("fault", message)`` and ``("return",)``.  ``("read", name, coord,
    op)`` and ``("store", name, coord, op)`` use the function's variable if
    it has been declared by then, and otherwise the global: a shared
    operation.  ``("lock", mutex, coord, op)``, ``("unlock", mutex, coord,
    op)``, ``("create", function, coord, handle, op)`` and ``("join",
    handle, coord)`` are always shared.  `op` is what the scheduler sees of
    the operation, (kind, object, conflict key); see `_Step`.  Shapes the
    interpreter cannot run compile to a fault at the point where they
    would run, so a schedule that never reaches them is unaffected.
    """

    def __init__(self, mutexes: frozenset, functions: dict):
        self.mutexes = mutexes
        self.functions = functions
        self.code: list = []
        self.loops: list = []  # (condition pc, [pcs of the jumps out]) per open while

    def function(self, func: CstNode) -> list:
        self.code = []
        if func.param is not None:
            self.code += [("const", 0), ("decl", func.param)]
        self.stmt(func.body)
        self.code.append(("return",))
        return self.code

    def forward(self, *ins) -> int:
        """Emit a jump whose target `land` fills in later."""
        self.code.append(ins)
        return len(self.code) - 1

    def land(self, *sites: int) -> None:
        """Point the forward jumps at `sites` to the next instruction."""
        for site in sites:
            op, _, *rest = self.code[site]
            self.code[site] = (op, len(self.code), *rest)

    def stmt(self, stmt: CstNode) -> None:
        kind = stmt.kind
        emit = self.code.append
        if kind == cst.EXPR_STMT:
            self.expr(stmt.expr)
            emit(("pop",))
        elif kind == cst.DECL_STMT:
            if stmt.init is not None:
                self.expr(stmt.init)
            else:
                emit(("const", 0))
            emit(("decl", stmt.name))
        elif kind == cst.COMPOUND_STMT:
            for sub in stmt.statements:
                self.stmt(sub)
        elif kind == cst.IF_STMT:
            self.expr(stmt.cond)
            to_else = self.forward("branch", None, False)
            self.stmt(stmt.then)
            if stmt.els is None:
                self.land(to_else)
            else:
                to_end = self.forward("jump", None)
                self.land(to_else)
                self.stmt(stmt.els)
                self.land(to_end)
        elif kind == cst.WHILE_STMT:
            head = len(self.code)
            self.expr(stmt.cond)
            self.loops.append((head, [self.forward("branch", None, False)]))
            self.stmt(stmt.body)
            emit(("loop", head))
            self.land(*self.loops.pop()[1])
        elif kind == cst.RETURN_STMT:
            if stmt.expr is not None:
                self.expr(stmt.expr)
            emit(("return",))
        elif kind == cst.BREAK_STMT:  # the parser accepts it only inside a while
            self.loops[-1][1].append(self.forward("jump", None))
        elif kind == cst.CONTINUE_STMT:
            emit(("loop", self.loops[-1][0]))
        else:
            emit(("fault", f"cannot execute {kind}"))

    def expr(self, expr: CstNode) -> None:
        kind = expr.kind
        emit = self.code.append
        if kind == cst.INT_LITERAL:
            emit(("const", expr.value))
        elif kind == cst.IDENTIFIER:
            emit(_access("read", expr.name, _coord(expr)))
        elif kind == cst.UNARY_EXPR:
            self.expr(expr.operand)
            emit(("unary", _UNARY[expr.op]))
        elif kind == cst.BINARY_EXPR and expr.op in ("&&", "||"):
            # the right side runs only when the left one does not decide
            self.expr(expr.lhs)
            decided = self.forward("branch", None, expr.op == "||")
            self.expr(expr.rhs)
            emit(("unary", _truth))
            to_end = self.forward("jump", None)
            self.land(decided)
            emit(("const", 1 if expr.op == "||" else 0))
            self.land(to_end)
        elif kind == cst.BINARY_EXPR:
            self.expr(expr.lhs)
            self.expr(expr.rhs)
            emit(("binary", _BINARY[expr.op]))
        elif kind == cst.ASSIGN_EXPR:
            name, coord = expr.target.name, _coord(expr.target)
            if expr.op == "+=":
                emit(_access("read", name, coord))
                self.expr(expr.value)
                emit(("binary", operator.add))
            else:
                self.expr(expr.value)
            emit(_access("store", name, coord))
        elif kind == cst.CALL_EXPR:
            self.call(expr)
        elif kind == cst.ADDR_OF:
            emit(("fault", "address-of is only meaningful as a pthread call argument"))
        else:
            emit(("fault", f"cannot evaluate {kind}"))

    def call(self, call: CstNode) -> None:
        name = call.callee.name
        args = call.args
        emit = self.code.append
        fault = None
        if name in ("pthread_mutex_lock", "pthread_mutex_unlock"):
            if len(args) != 1 or args[0].kind != cst.ADDR_OF:
                fault = f"{name} expects one argument of the form &mutex"
            elif args[0].operand.name not in self.mutexes:
                fault = f"'{args[0].operand.name}' is not a declared mutex"
            else:
                op = "lock" if name == "pthread_mutex_lock" else "unlock"
                mutex = args[0].operand.name
                emit((op, mutex, _coord(call.callee), (op, mutex, ("mutex", mutex))))
        elif name == "pthread_create":
            if len(args) != 4 or args[2].kind != cst.IDENTIFIER:
                raise UnsupportedConstruct(
                    "pthread_create must be called as pthread_create(&t, 0, fn, 0)"
                )
            target = args[2].name
            if target not in self.functions or target == "main":
                raise UnsupportedConstruct(f"pthread_create targets unknown function '{target}'")
            if args[0].kind != cst.ADDR_OF:
                fault = "pthread_create expects &handle as its first argument"
            else:
                handle = args[0].operand.name
                emit(("check_handle", handle))
                for arg in (args[1], args[3]):
                    self.expr(arg)
                    emit(("pop",))
                emit(("create", target, _coord(call.callee), handle,
                      ("create", target, "create")))
        elif name == "pthread_join":
            if len(args) != 2 or args[0].kind != cst.IDENTIFIER:
                fault = "pthread_join expects (handle, 0)"
            else:
                emit(("check_handle", args[0].name))
                self.expr(args[1])
                emit(("pop",))
                emit(("join", args[0].name, _coord(call.callee)))
        else:
            fault = f"call to unsupported function '{name}'"
        if fault is not None:
            emit(("fault", fault))
            for arg in args:  # never run; compiled so that every pthread_create is checked
                self.expr(arg)


def build_model(tree: CstNode) -> _Model:
    """Static validation of the translation unit, and its compiled code."""
    globals_: dict = {}
    mutexes: set = set()
    bodies: dict = {}
    for node in tree.child_nodes():
        if node.kind == cst.VAR_DECL:
            globals_[node.name] = _const_eval(node.init) if node.init is not None else 0
        elif node.kind == cst.MUTEX_DECL:
            mutexes.add(node.name)
        elif node.kind == cst.FUNC_DEF:
            bodies[node.name] = node
    if "main" not in bodies:
        raise UnsupportedConstruct("program has no main function")
    compiler = _Compiler(frozenset(mutexes), bodies)
    functions = {name: compiler.function(func) for name, func in bodies.items()}
    return _Model(globals_, frozenset(mutexes), functions)


# ---------------------------------------------------------------------------
# One deterministic execution
# ---------------------------------------------------------------------------

class _Step:
    """One scheduling decision on the current path: who could run, who
    ran, and what each live thread was about to do, as (kind, object,
    conflict key) triples.  Two operations are dependent when their
    conflict keys are equal and not None: ("var", name) for a read or
    write, ("mutex", name) for a lock or unlock, and "create" for every
    create, since thread ids are assigned in creation order.  A join has
    no key, since its happens-before edge from the target orders it.

    DPOR also keeps the threads still to try from here (`backtrack`),
    those that need not be (`sleep`, tid -> triple), what restores the
    state before this step (`saved`), and the vector clock of the event
    once it has been ordered (`clock`, see `_Dpor`)."""

    __slots__ = ("enabled", "choice", "pending", "backtrack", "sleep", "saved", "clock")

    def __init__(self, enabled: tuple, choice: int, pending: dict, sleep=None):
        self.enabled = enabled
        self.choice = choice
        self.pending = pending  # tid -> (kind, object, conflict key)
        self.backtrack = {choice}
        self.sleep = sleep
        self.saved = None
        self.clock = None

    @property
    def op(self) -> tuple:
        return self.pending[self.choice]


class _Thread:
    """One thread: where it is in its function's code, its operand stack
    and variables, and its scheduling state.  `pending` is the shared
    operation it waits to run, None once it has finished, and `op` what
    the scheduler sees of it.  `dpor` and `since` are DPOR's clock for the
    thread and the step at which its operation became pending; `dpor` is
    None until DPOR has started or ordered the step that created the
    thread.
    `saved` caches `save()` until the thread next changes."""

    __slots__ = ("tid", "function", "code", "pc", "stack", "env", "clock", "held",
                 "pending", "op", "steps", "self_blocked", "dpor", "since", "saved")

    def __init__(self, tid: int, function: str, code: list, clock: VectorClock):
        self.tid = tid
        self.function = function
        self.code = code
        self.pc = 0
        self.stack: list = []
        self.env: dict = {}
        self.clock = clock
        self.held = frozenset()
        self.pending: tuple | None = None
        self.op: tuple | None = None
        self.steps = 0
        self.self_blocked = False
        self.dpor: list | None = None
        self.since = 0
        self.saved = None

    def save(self) -> tuple:
        if self.saved is None:
            self.saved = (self.pc, tuple(self.stack), self.env.copy(), self.clock, self.held,
                          self.pending, self.op, self.steps, self.self_blocked, self.dpor,
                          self.since)
        return self.saved

    def restore(self, saved: tuple) -> None:
        (self.pc, stack, env, self.clock, self.held, self.pending, self.op,
         self.steps, self.self_blocked, self.dpor, self.since) = saved
        self.stack = list(stack)
        self.env = env.copy()
        self.saved = saved


def _undo_access(history: list, state: LocksetState, candidates, last) -> None:
    history.pop()
    state.candidates, state.last = candidates, last


class _Run:
    """The program's state along one schedule.

    `execute(choose)` runs it to the end of the schedule, where
    `choose(run, enabled, pending)` returns the `_Step` to take at each
    decision, or None to stop there.  `save()` records what `restore()`
    needs to bring the run back to that point: the threads' own states,
    and the lengths of `trail`, which holds an undo entry for every change
    to shared state, and of the append-only results.  `results_from` are
    the lengths of `hb_races`, `ls_races` and `diagnostics` that the last
    restore kept: what a caller has seen already if it read them after
    every schedule.
    """

    def __init__(self, model: _Model, step_budget: int, record_trace: bool):
        self.model = model
        self.step_budget = step_budget
        self.record_trace = record_trace

        self.globals_ = dict(model.globals_)
        self.mutex_owner = dict.fromkeys(model.mutexes)
        self.mutex_clock = dict.fromkeys(model.mutexes, VectorClock())
        self.threads: list[_Thread] = []
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
        self.path: list[_Step] = []
        self.trace: list[tuple] = []
        self.trail: list[tuple] = []  # (undo function, *its arguments)
        self.results_from = (0, 0, 0)
        self.aborted = False
        self.budget_exceeded = False

        main = _Thread(0, "main", model.functions["main"], VectorClock())
        self.threads.append(main)
        self._advance(main)

    def save(self) -> tuple:
        return (len(self.trail), len(self.trace), len(self.diagnostics),
                len(self.hb_races), len(self.ls_races),
                [(t, t.save()) for t in self.threads])

    def restore(self, saved: tuple) -> None:
        trail_len, trace_len, diag_len, hb_len, ls_len, threads = saved
        trail = self.trail
        while len(trail) > trail_len:
            undo = trail.pop()
            undo[0](*undo[1:])
        del self.trace[trace_len:]
        del self.diagnostics[diag_len:]
        del self.hb_races[hb_len:]
        del self.ls_races[ls_len:]
        self.results_from = (hb_len, ls_len, diag_len)
        self.threads = [t for t, _ in threads]
        for t, state in threads:
            t.restore(state)
        self.deadlock = None
        self.aborted = self.budget_exceeded = False

    # -- bookkeeping ---------------------------------------------------

    def _diag(self, severity: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(severity, message))

    def _over_budget(self, thread: _Thread) -> None:
        self._diag(
            "warning",
            f"thread {thread.tid} exceeded the step budget of {self.step_budget}; "
            "schedule truncated",
        )
        self.aborted = True
        self.budget_exceeded = True

    def _advance(self, thread: _Thread, result: int | None = None) -> None:
        """Run `thread`'s local instructions up to its next shared
        operation, after pushing `result`, the value of the one it ran.

        Loop iterations since the last shared operation count against the
        step budget, so a loop that never touches shared state ends too.
        """
        code, stack, env, globals_ = thread.code, thread.stack, thread.env, self.globals_
        if result is not None:
            stack.append(result)
        pc = thread.pc
        iterations = 0
        try:
            while True:
                ins = code[pc]
                op = ins[0]
                pc += 1
                if op == "read":
                    if ins[1] in env:
                        stack.append(env[ins[1]])
                    elif ins[1] in globals_:
                        thread.pending = ins
                        thread.op = ins[-1]
                        break
                    else:
                        raise _ProgramFault(f"unknown identifier '{ins[1]}'")
                elif op == "const":
                    stack.append(ins[1])
                elif op == "store":
                    if ins[1] in env:
                        env[ins[1]] = stack[-1]
                    elif ins[1] in globals_:
                        thread.pending = ("write", ins[1], stack[-1], ins[2])
                        thread.op = ins[-1]
                        break
                    else:
                        raise _ProgramFault(f"unknown identifier '{ins[1]}'")
                elif op == "binary":
                    rhs = stack.pop()
                    stack[-1] = ins[1](stack[-1], rhs)
                elif op == "pop":
                    stack.pop()
                elif op == "branch":
                    if (stack.pop() != 0) == ins[2]:
                        pc = ins[1]
                elif op == "jump":
                    pc = ins[1]
                elif op == "loop":
                    iterations += 1
                    if iterations > self.step_budget:
                        self._over_budget(thread)
                        thread.pending = None
                        return
                    pc = ins[1]
                elif op == "decl":
                    env[ins[1]] = stack.pop()
                elif op == "unary":
                    stack[-1] = ins[1](stack[-1])
                elif op == "check_handle":
                    if ins[1] not in env:
                        raise _ProgramFault(f"'{ins[1]}' is not a declared pthread_t")
                elif op == "join":
                    target = env[ins[1]]
                    thread.pending = ("join", target, ins[2])
                    thread.op = ("join", target, None)
                    break
                elif op == "return":
                    thread.pending = None
                    if thread.held:
                        held = ", ".join(sorted(thread.held))
                        self._diag("warning", f"thread {thread.tid} finished still holding {held}")
                    return
                elif op == "fault":
                    raise _ProgramFault(ins[1])
                else:  # lock, unlock, create
                    thread.pending = ins
                    thread.op = ins[-1]
                    break
        except _ProgramFault as fault:
            self._diag("error", f"thread {thread.tid}: {fault}")
            self.aborted = True
            thread.pending = None
            return
        thread.pc = pc

    def _enabled(self, thread: _Thread) -> bool:
        intent = thread.pending
        op = intent[0]
        if op == "lock":
            owner = self.mutex_owner[intent[1]]
            if owner is None:
                return True
            if owner == thread.tid and not thread.self_blocked:
                thread.self_blocked = True
                thread.saved = None
                self._diag(
                    "error",
                    f"thread {thread.tid} locks '{intent[1]}' which it already "
                    "holds (self-deadlock)",
                )
            return False
        if op == "join":
            target = intent[1]
            if isinstance(target, int) and 0 <= target < len(self.threads):
                return self.threads[target].pending is None
            return True  # invalid handle: fault when executed
        return True

    def _note_access(self, record: AccessRecord) -> None:
        history = self.histories.setdefault(record.variable, [])
        self.hb_races.extend(hb_check(record, history))
        history.append(record)

        state = self.lockset_states.setdefault(record.variable, LocksetState())
        self.trail.append((_undo_access, history, state, state.candidates, state.last))
        race = lockset_check(record, state)
        if race is not None:
            self.ls_races.append(race)

    # -- one scheduling step -------------------------------------------

    def _execute(self, thread: _Thread) -> None:
        intent = thread.pending
        op = intent[0]
        thread.saved = None
        thread.steps += 1
        if thread.steps > self.step_budget:
            self._over_budget(thread)
            return

        if op == "read":
            _, var, coord, _ = intent
            self._note_access(AccessRecord(var, "read", thread.tid, thread.clock,
                                           thread.held, coord, thread.function))
            self._trace(("read", thread.tid, var, coord))
            self._advance(thread, self.globals_[var])
            return
        if op == "write":
            _, var, value, coord = intent
            self._note_access(AccessRecord(var, "write", thread.tid, thread.clock,
                                           thread.held, coord, thread.function))
            self.trail.append((self.globals_.__setitem__, var, self.globals_[var]))
            self.globals_[var] = value
            self._trace(("write", thread.tid, var, coord))
            self._advance(thread)
            return
        if op == "lock":
            _, mutex, coord, _ = intent
            self.trail.append((self.mutex_owner.__setitem__, mutex, None))
            self.mutex_owner[mutex] = thread.tid
            thread.held = thread.held | {mutex}
            thread.clock = sync_lock(thread.clock, thread.tid, self.mutex_clock[mutex])
            self._trace(("lock", thread.tid, mutex, coord))
            self._advance(thread, 0)
            return
        if op == "unlock":
            _, mutex, coord, _ = intent
            if self.mutex_owner[mutex] != thread.tid:
                self._diag(
                    "error",
                    f"thread {thread.tid} unlocks '{mutex}' which it does not hold",
                )
                self.aborted = True
                return
            published, after = sync_unlock(thread.clock, thread.tid)
            self.trail.append((self.mutex_owner.__setitem__, mutex, thread.tid))
            self.trail.append((self.mutex_clock.__setitem__, mutex, self.mutex_clock[mutex]))
            self.mutex_clock[mutex] = published
            self.mutex_owner[mutex] = None
            thread.held = thread.held - {mutex}
            thread.clock = after
            self._trace(("unlock", thread.tid, mutex, coord))
            self._advance(thread, 0)
            return
        if op == "create":
            _, target, coord, handle, _ = intent
            if len(self.threads) >= MAX_THREADS:
                self._diag("error", f"thread limit of {MAX_THREADS} exceeded")
                self.aborted = True
                return
            child_tid = len(self.threads)
            child_clock, parent_clock = sync_create(thread.clock, thread.tid, child_tid)
            thread.clock = parent_clock
            child = _Thread(child_tid, target, self.model.functions[target], child_clock)
            self.threads.append(child)
            self._advance(child)
            self._trace(("create", thread.tid, child_tid, coord))
            thread.env[handle] = child_tid
            self._advance(thread, 0)
            return
        if op == "join":
            _, target, coord = intent
            if not (isinstance(target, int) and 0 <= target < len(self.threads)):
                self._diag("error", f"thread {thread.tid} joins an invalid handle")
                self.aborted = True
                return
            thread.clock = sync_join(thread.clock, thread.tid, self.threads[target].clock)
            self._trace(("join", thread.tid, target, coord))
            self._advance(thread, 0)
            return
        raise AssertionError(f"unknown intent {op}")

    def _trace(self, event: tuple) -> None:
        if self.record_trace:
            self.trace.append(event)

    # -- main loop ------------------------------------------------------

    def execute(self, choose) -> None:
        while not self.aborted:
            pending = {}  # tid -> (kind, object, conflict key) of every live thread
            enabled = []
            for t in self.threads:
                if t.pending is not None:
                    pending[t.tid] = t.op
                    if self._enabled(t):
                        enabled.append(t.tid)
            if not pending:
                return
            if not enabled:
                self._record_deadlock()
                return
            step = choose(self, tuple(enabled), pending)
            if step is None:
                return
            self.path.append(step)
            self._execute(self.threads[step.choice])

    def _record_deadlock(self) -> None:
        blocked = []
        for t in self.threads:
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
        self.deadlock = DeadlockRecord(tuple(blocked), tuple(s.choice for s in self.path))


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _Exhaustive:
    """Every interleaving: each alternative at each decision is a new prefix.

    Follows `prefix`, then lets the lowest enabled thread run.  Every
    schedule starts from the initial state, so this search is also the
    reference for DPOR's restore.
    """

    def __init__(self, prefix: tuple = ()):
        self.prefix = prefix
        self.pending: list[tuple] = []

    def choose(self, run: _Run, enabled: tuple, pending: dict) -> _Step:
        index = len(run.path)
        choice = self.prefix[index] if index < len(self.prefix) else enabled[0]
        return _Step(enabled, choice, pending)

    def advance(self, run: _Run) -> _Run | None:
        """The run for the next schedule, or None when all are done."""
        choices = tuple(step.choice for step in run.path)
        for i in range(len(choices) - 1, len(self.prefix) - 1, -1):
            step = run.path[i]
            for alt in reversed(step.enabled):
                if alt != step.choice:
                    self.pending.append(choices[:i] + (alt,))
        if not self.pending:
            return None
        self.prefix = self.pending.pop()
        return _Run(run.model, run.step_budget, run.record_trace)


class _Dpor:
    """DPOR with sleep sets (Flanagan & Godefroid, POPL 2005).

    Happens-before is program order, create and join edges, and the order
    of dependent operations; it is computed online, one step at a time.
    Step k is ordered when the state after it is known: by `choose` at
    the next decision, or by `advance` at the end of the run.  A thread's
    next operation races with every dependent operation of another thread
    from the state where it became pending until it runs or the run ends,
    and with the last dependent operation before that state, if that one
    does not already happen before the thread.  Checking only where the
    operation ran would miss a lock that waited on another thread's
    critical section.  A run that aborted on a fault ends in an operation
    that stops every other thread, so it depends on all of their pending
    operations.  Each race adds the other thread to the backtrack set of
    the earlier step; the thread itself if it was enabled there, else
    every enabled thread.

    A clock is a list over thread ids whose entry u is one more than the
    index of the latest step of thread u that happens before.  The search
    state lives where the run's restore rolls it back: each thread's clock
    and pending-since step on `_Thread`, each event's clock on its
    `_Step`, and `last` (conflict key -> index of the latest step on it),
    whose changes are undone through the run's trail.

    After each run the state is restored to the deepest step with a
    backtrack thread left to try and not asleep, and goes on from there
    with that thread.  Only a step with more than one enabled thread can
    have one, so only those save state.
    """

    def __init__(self):
        self.resume: _Step | None = None
        self.last: dict = {}

    def choose(self, run: _Run, enabled: tuple, pending: dict) -> _Step | None:
        if self.resume is not None:  # `advance` restored the state this step was saved in
            step, self.resume = self.resume, None
            return step
        sleep = {}
        if not run.path:
            run.threads[0].dpor = [0] * MAX_THREADS
        else:
            parent = run.path[-1]
            self._order(run, len(run.path) - 1)
            if parent.sleep:
                key = parent.op[2]
                sleep = {tid: op for tid, op in parent.sleep.items()
                         if key is None or op[2] != key}
        awake = [tid for tid in enabled if tid not in sleep]
        if not awake:
            return None  # every schedule from here is one already explored
        step = _Step(enabled, awake[0], pending, sleep)
        if len(enabled) > 1:
            step.saved = run.save()
        return step

    def advance(self, run: _Run) -> _Run | None:
        """`run`, restored for the next schedule, or None when all are done."""
        path = run.path
        if path:
            last = path[-1]
            if last.clock is None:  # else `choose` ordered it and then stopped the run
                self._order(run, len(path) - 1)
            if run.aborted:  # the fault stops every thread waiting before the last step
                for t in run.threads:
                    if t.pending is not None and t.tid != last.choice and t.since < len(path):
                        _reverse(last, t.tid)
        while path:
            node = path.pop()
            node.sleep[node.choice] = node.op
            options = node.backtrack.difference(node.sleep)
            if options:
                node.choice = min(options)
                node.clock = None
                run.restore(node.saved)
                self.resume = node
                return run
        return None

    def _order(self, run: _Run, k: int) -> None:
        """Add step `k`, the last one run, to happens-before."""
        path, last = run.path, self.last
        step = path[k]
        tid = step.choice
        kind, target, key = step.pending[tid]
        thread = run.threads[tid]
        clock = thread.dpor
        if key is not None:
            for other, op in step.pending.items():
                if op[2] == key and other != tid:
                    _reverse(step, other)
            i = last.get(key)
            if i is not None:
                clock = list(map(max, clock, path[i].clock))
            # unbound methods: a bound one in every entry would add to the peak
            run.trail.append((dict.__setitem__, last, key, i) if i is not None
                             else (dict.pop, last, key))
            last[key] = k
        elif kind == "join" and 0 <= target < len(run.threads):
            clock = list(map(max, clock, run.threads[target].dpor))
        if clock is thread.dpor:
            clock = clock[:]
        clock[tid] = k + 1
        step.clock = thread.dpor = clock
        if kind == "create":
            child = run.threads[-1]
            if child.dpor is None:  # else the thread limit stopped the create
                child.dpor = clock
                if child.pending is not None:
                    self._pend(run, child, k + 1)
        if thread.pending is not None and not run.aborted:  # else it never runs again
            self._pend(run, thread, k + 1)

    def _pend(self, run: _Run, thread: _Thread, state: int) -> None:
        """`thread`'s operation became pending at `state`."""
        thread.since = state
        i = self.last.get(thread.op[2])
        if i is not None:
            step = run.path[i]
            if thread.dpor[step.choice] <= i:
                _reverse(step, thread.tid)


def _reverse(step: _Step, tid: int) -> None:
    """DPOR must also try running `tid` at `step`."""
    if tid in step.enabled:
        step.backtrack.add(tid)
    else:
        step.backtrack.update(step.enabled)


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

    run = _Run(model, step_budget, record_traces)
    while run is not None:
        if explored >= bound:
            truncated = True
            break
        run.execute(search.choose)
        explored += 1

        hb_from, ls_from, diag_from = run.results_from
        for race in run.hb_races[hb_from:]:
            hb.setdefault(race.key(), race)
        for race in run.ls_races[ls_from:]:
            ls.setdefault(race.key(), race)
        if run.deadlock is not None:
            deadlocks.setdefault(run.deadlock.threads, run.deadlock)
        for diag in run.diagnostics[diag_from:]:
            diags.setdefault(diag, None)
        if run.budget_exceeded:
            truncated = True
        if record_traces:
            traces.append(tuple(run.trace))
        run = search.advance(run)

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
    """Re-execute one recorded schedule prefix from the initial state."""
    run = _Run(build_model(tree), step_budget, record_trace=True)
    run.execute(_Exhaustive(tuple(schedule)).choose)
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
