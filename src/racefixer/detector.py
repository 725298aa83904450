"""Execution-exploring race detector for the C subset.

Each function is compiled once into a flat list of instructions, and a
deterministic interpreter runs every thread up to its next visible
operation, one that another thread can observe; a depth-first scheduler
enumerates interleavings of those up to a configurable bound of
schedules.  Compiling resolves each name, with C block scoping, and
checks each call: what the interpreter does not model is an
`UnsupportedConstruct` before any schedule runs.  By default the search
uses dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005)
with sleep sets: as each operation runs it extends happens-before over
the current schedule, and the search branches only where two dependent
operations of different threads could run in the other order.
Operations are dependent when they touch the same variable and not both
only read it, the same mutex, or are both thread creations.  Schedules
that differ only in the order of independent operations give the same
races, lockset results, deadlocks and diagnostics, so one of them is
enough; the bound therefore counts reduced schedules.  An access to a
global that only one thread can touch is not visible (VeriSoft,
Godefroid, POPL 1997), so under DPOR it runs as local code: such a global
is named in one function only, and that function runs at most once.
``reduction="none"`` branches at every operation, every access to a
global included, and is kept as the test oracle for both.  A fault in
local code (a division or modulo by zero, a thread past its step budget)
is the thread's pending operation: it ends the run when that thread is
scheduled, and the other threads run until then.  Along each schedule the
detector keeps:

* a vector clock per thread, advanced over lock/unlock/create/join
  edges, for the precise happens-before race check: a prior access races
  unless the current thread has seen the prior's own clock component
  (FastTrack's epoch test).  Per variable only the latest access of each
  thread at each site is kept, the only one that can race first, and a
  race is built only when its key is new;
* a per-variable lockset intersection (Eraser's locking-discipline
  check, kept deliberately simple, false positives and all), with the
  last write and the reads since it, so that it flags what Eraser flags
  in any order of those reads, the order DPOR does not fix;
* the set of stuck states, where some thread is unfinished but nothing
  can run: deadlocks.

A thread's state is its position in its code, its operand stack, its
variables, its pending operation and the mutexes it holds; nothing else
keeps a copy of them, and the state can be copied.  DPOR saves the state
at each decision with more than one enabled thread, logs every later
change to shared state for undoing, and starts the next schedule from
the deepest saved decision instead of from the beginning.  Its own
bookkeeping (clocks and the latest operation on each object) is rolled
back with that state, so a schedule costs only the steps it does not
share with the previous one.  Races and diagnostics are not state: they
are kept by key as they are found and never rolled back.  Both kinds of
clock, the race check's and DPOR's, are tuples of ``MAX_THREADS``
counts, so saving one is sharing it.  A schedule is still just the list
of thread choices taken at each decision point, and ``replay`` re-runs a
prefix exactly from the initial state.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .reports import DataRace, Diagnostic, RaceSet, SourceCoord
from . import cst
from .cst import CstNode

DEFAULT_BOUND = 100_000
DEFAULT_STEP_BUDGET = 10_000
MAX_THREADS = 5  # main plus four spawned threads


class UnsupportedConstruct(Exception):
    """The program uses something outside the modeled subset."""


# ---------------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------------

# A clock is a tuple of MAX_THREADS counts, one per thread id.
_ZERO = (0,) * MAX_THREADS


def _join(a: tuple, b: tuple) -> tuple:
    """Componentwise max: everything either clock has seen."""
    return tuple(map(max, a, b))


def _with(clock: tuple, tid: int, count: int) -> tuple:
    """`clock` with thread `tid`'s own component set to `count`."""
    return clock[:tid] + (count,) + clock[tid + 1:]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class AccessRecord(namedtuple("AccessRecord", "kind thread clock lockset coord function")):
    """One side of a race; `kind` is "read" or "write"."""

    __slots__ = ()


class DetectedRace(namedtuple("DetectedRace", "variable current previous")):
    __slots__ = ()

    def key(self) -> tuple:
        a, b = sorted((self.current.coord, self.previous.coord))
        return (self.variable, a, b)

    def to_data_race(self, file: str | None = None) -> DataRace:
        return DataRace(self.variable, self.current.coord, self.previous.coord, file)


class BlockedThread(namedtuple("BlockedThread", "tid waiting_on held")):
    """`waiting_on` is "mutex:<name>" or "join:<tid>"; `held` is a tuple of
    mutex names."""

    __slots__ = ()


class DeadlockRecord(namedtuple("DeadlockRecord", "threads schedule")):
    """A reachable stuck state (a tuple of `BlockedThread`) plus the
    schedule prefix that reaches it."""

    __slots__ = ()

    def involved_mutexes(self) -> frozenset:
        names = set()
        for t in self.threads:
            if t.waiting_on.startswith("mutex:"):
                names.add(t.waiting_on.split(":", 1)[1])
            names.update(t.held)
        return frozenset(names)

    def involves(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self.involved_mutexes())


class Verdict(namedtuple("Verdict", "hb_races lockset_races deadlocks explored truncated "
                                   "diagnostics traces")):
    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.hb_races and not self.deadlocks


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


# An access is the tuple (thread, clock, lockset, site): the id of the
# thread that ran it, that thread's clock and the mutexes it held then, and
# the `_site` of the instruction that made it.  An `AccessRecord` is built
# from one only for a race not found before.


def _site(kind: str, place: tuple, function: str, number: int) -> tuple:
    """What every access a read or store instruction makes shares: its
    kind ("read" | "write"), `place`, the (line, column) pair of the
    variable's name, the function it is in, and a key base: that plus a
    thread id keys the thread's latest access here in `_Variable.accesses`.
    `number` is the instruction's own among the program's reads and
    stores, so each (thread, coordinate, kind) gets one small int.  A
    plain pair hashes and orders quickly; the `SourceCoord` is made only
    for a race or a trace event."""
    return (kind, place, function, number * MAX_THREADS)


def _record(access: tuple) -> AccessRecord:
    thread, clock, lockset, (kind, place, function, _) = access
    return AccessRecord(kind, thread, clock, lockset, SourceCoord(*place), function)


def hb_check(current: tuple, priors) -> list:
    """The accesses among `priors` that race with `current`: those of
    another thread that do not happen before it, unless both are reads.

    A prior access of thread t happens before `current` iff `current` has
    seen t's clock at least up to the prior's own component: FastTrack's
    epoch test (Flanagan & Freund, PLDI 2009).  Every prior access ran
    earlier in the schedule, so `current` never happens before it.  A
    thread's own component only grows, so of its accesses at one site the
    latest races with whatever an earlier one races with.
    """
    tid, clock, _, site = current
    reading = site[0] == "read"
    return [prior for prior in priors
            if prior[0] != tid and prior[1][prior[0]] > clock[prior[0]]
            and not (reading and prior[3][0] == "read")]


_NEVER = math.inf  # the epoch of a read that has not happened
_UNREAD = (_NEVER,) * MAX_THREADS


def lockset_check(current: tuple, state: tuple | None) -> tuple:
    """Eraser's lockset refinement for one access to a variable, over
    every order of the reads since its last write at once.  Returns the
    variable's new state and the accesses `current` races with.

    Eraser keeps the candidates, the locks held at every access so far,
    and flags an empty set plus a write, in the current access or the one
    just before it.  Reads of one variable commute, so which access comes
    just before depends on the order of the reads since the last write
    (the run), and a schedule stands for every such order.  Hence:

    * a read races with the last write when it can come first in the run
      (no earlier read of the run happens before it) and no lock is held
      at the write, at every access before it and at the read;
    * a write with an empty candidate set races with each read of the run
      that can come last (no other read of the run happens after it), or,
      with no read since, with the last write.

    Happens-before is program order within a thread and the epoch test
    across threads.  `state` is None before the first access, else the
    tuple (candidates through the last write, candidates through every
    access, the last write or None, the latest read of each thread that
    has read since it, in the order they ran, and the epoch of each
    thread's first read since it, inf for none).  Only a thread's latest
    read can come last, and its first comes first if any does.

    No ownership state machine is modeled, so single-threaded code and
    fork/join-ordered code get flagged too; the hybrid verdict keeps
    these as advisories rather than reports.
    """
    tid, clock, lockset, site = current
    if state is None:
        through_write, candidates, write, reads, firsts = None, lockset, None, (), _UNREAD
    else:
        through_write, candidates, write, reads, firsts = state
        candidates = candidates & lockset
    races = []
    if site[0] == "read":
        if not reads:
            if write is not None and not through_write & lockset:
                races = [write]
            reads = (current,)
            firsts = _with(_UNREAD, tid, clock[tid])
        else:
            if (write is not None and not any(map(operator.le, firsts, clock))
                    and not through_write & lockset):
                races = [write]
            if reads[-1][0] == tid:
                reads = reads[:-1] + (current,)
            else:
                reads = tuple([read for read in reads if read[0] != tid]) + (current,)
            if firsts[tid] == _NEVER:
                firsts = _with(firsts, tid, clock[tid])
        return (through_write, candidates, write, reads, firsts), races
    if not candidates:
        if len(reads) > 1:
            races = [read for read in reads
                     if all(other is read or other[1][read[0]] < read[1][read[0]]
                            for other in reads)]
        elif reads:
            races = [reads[0]]
        elif write is not None:
            races = [write]
    return (candidates, candidates, current, (), _UNREAD), races


LOCKSET_MODES = ("hb", "lockset", "union")  # see select_races; "hb" is the default


def select_races(hb_races, lockset_races, mode: str) -> tuple[DetectedRace, ...]:
    """The races a lockset mode reports: the happens-before ones ("hb"),
    the lockset ones ("lockset"), or both, one race per key ("union")."""
    if mode not in LOCKSET_MODES:
        raise ValueError(f"unknown lockset mode: {mode!r}")
    if mode == "hb":
        return tuple(hb_races)
    if mode == "lockset":
        return tuple(lockset_races)
    by_key: dict = {}
    for race in (*hb_races, *lockset_races):
        by_key.setdefault(race.key(), race)
    return tuple(by_key.values())


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
    """A division or modulo by zero inside one schedule."""


# What the scheduler sees of a pending fault: it touches nothing that
# another thread does, so it has no conflict key.
_FAULT = ("fault", None, None)
# A thread's pending fault is ("fault", message, _FAULT); a message of
# None means the thread is past the step budget.
_OVERRUN = ("fault", None, _FAULT)


class _Model(namedtuple("_Model", "globals_ mutexes functions")):
    """`functions` maps a name to its instruction list, see _Compiler."""

    __slots__ = ()


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


def _reject(token, message: str) -> UnsupportedConstruct:
    return UnsupportedConstruct(f"{token.line}:{token.column}: {message}")


class _Compiler:
    """Compiles one function into a flat list of instructions.

    Names follow C's block scoping, an if's branches and a while's body
    included: `names` maps each local in scope to its slot in the thread's
    variables, a fresh one per declaration, which its block's end frees.
    Any other name must be a global.  A name, call or ``&x`` that the
    interpreter does not model is an `UnsupportedConstruct`.

    An instruction is a tuple whose first item names it.  Local ones work
    on the thread's operand stack and variables: ``("const", n)``,
    ``("unary", function)``, ``("binary", function)``, ``("pop",)``,
    ``("load", slot)``, ``("set", slot)``, ``("decl", slot)``,
    ``("jump", pc)``, ``("branch", pc, if_nonzero)``, ``("loop", pc)`` (a
    jump back to a loop's condition) and ``("return",)``; so are
    ``("local_read", global, site)`` and ``("local_store", global, site)``,
    which `localize` makes of the accesses to a global no other thread
    can touch.  The shared ones, the scheduling points, are ``("read",
    global, site, op)``, ``("store", global, site, op)`` (see `_site`),
    ``("lock", mutex, coord, op)``, ``("unlock", mutex, coord, op)``,
    ``("create", function, coord, slot, op)`` and ``("join", slot,
    coord)``.  `op` is what the scheduler sees of the operation, (kind,
    object, conflict key); see `_Step`.  A join's op needs the thread id
    its handle holds, so it is made when the join becomes pending.

    Compiling also notes which functions name each global (`users`) and
    every ``pthread_create`` as (target, creator, inside a while).
    """

    def __init__(self, globals_: dict, mutexes: frozenset, functions: dict):
        self.globals_ = globals_
        self.mutexes = mutexes
        self.functions = functions
        self.name = ""  # of the function being compiled
        self.sites = 0  # reads and stores compiled so far
        self.users: dict = {}  # global -> the functions that name it
        self.creates: list = []  # (target, creator, inside a while) per pthread_create
        self.code: list = []
        self.loops: list = []  # (condition pc, [pcs of the jumps out]) per open while
        self.names: dict = {}
        self.slots = 0  # taken by the declarations in scope
        self.declared: set = set()  # the names declared in the innermost block

    def function(self, func: CstNode) -> list:
        self.name = func.name
        self.code = []
        self.names = {} if func.param is None else {func.param: 0}  # see _Thread.env
        self.slots = len(self.names)
        self.block(func.body.statements, self.names)  # the parameter is in the body's block
        self.code.append(("return",))
        return self.code

    def variable(self, ident: CstNode, ins: str) -> tuple:
        """The "read" or "store" (`ins`) of the variable `ident` names."""
        name = ident.name
        if name in self.names:
            return ("load" if ins == "read" else "set", self.names[name])
        if name not in self.globals_:
            raise _reject(ident.token, f"unknown identifier '{name}'")
        self.users.setdefault(name, set()).add(self.name)
        kind = "write" if ins == "store" else "read"
        self.sites += 1
        place = (ident.token.line, ident.token.column)
        return (ins, name, _site(kind, place, self.name, self.sites),
                (kind, name, ("var", name)))

    def handle(self, ident: CstNode) -> int:
        if ident.name not in self.names:
            raise _reject(ident.token, f"'{ident.name}' is not a declared pthread_t")
        return self.names[ident.name]

    def forward(self, *ins) -> int:
        """Emit a jump whose target `land` fills in later."""
        self.code.append(ins)
        return len(self.code) - 1

    def land(self, *sites: int) -> None:
        """Point the forward jumps at `sites` to the next instruction."""
        for site in sites:
            op, _, *rest = self.code[site]
            self.code[site] = (op, len(self.code), *rest)

    def block(self, statements: list, declared=()) -> None:
        """Statements whose declarations end with them, in a block where
        the names in `declared` already are."""
        outer = self.names.copy(), self.slots, self.declared
        self.declared = set(declared)
        for sub in statements:
            self.stmt(sub)
        self.names, self.slots, self.declared = outer

    def stmt(self, stmt: CstNode) -> None:
        kind = stmt.kind
        emit = self.code.append
        if kind == cst.EXPR_STMT:
            self.expr(stmt.expr)
            emit(("pop",))
        elif kind == cst.DECL_STMT:
            if stmt.name in self.declared:
                raise _reject(stmt.name_token, f"'{stmt.name}' is already declared in this block")
            self.declared.add(stmt.name)
            if stmt.init is not None:
                self.expr(stmt.init)
            else:
                emit(("const", 0))
            self.names[stmt.name] = self.slots
            emit(("decl", self.slots))
            self.slots += 1
        elif kind == cst.COMPOUND_STMT:
            self.block(stmt.statements)
        elif kind == cst.IF_STMT:
            self.expr(stmt.cond)
            to_else = self.forward("branch", None, False)
            self.block([stmt.then])
            if stmt.els is None:
                self.land(to_else)
            else:
                to_end = self.forward("jump", None)
                self.land(to_else)
                self.block([stmt.els])
                self.land(to_end)
        elif kind == cst.WHILE_STMT:
            head = len(self.code)
            self.expr(stmt.cond)
            self.loops.append((head, [self.forward("branch", None, False)]))
            self.block([stmt.body])
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

    def expr(self, expr: CstNode) -> None:
        kind = expr.kind
        emit = self.code.append
        if kind == cst.INT_LITERAL:
            emit(("const", expr.value))
        elif kind == cst.IDENTIFIER:
            emit(self.variable(expr, "read"))
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
            if expr.op == "+=":
                emit(self.variable(expr.target, "read"))
                self.expr(expr.value)
                emit(("binary", operator.add))
            else:
                self.expr(expr.value)
            emit(self.variable(expr.target, "store"))
        elif kind == cst.CALL_EXPR:
            self.call(expr)
        elif kind == cst.ADDR_OF:
            raise _reject(expr.children[0],
                          "address-of is only meaningful as a pthread call argument")

    def call(self, call: CstNode) -> None:
        name = call.callee.name
        args = call.args
        emit = self.code.append
        where = call.callee.token
        if name in ("pthread_mutex_lock", "pthread_mutex_unlock"):
            if len(args) != 1 or args[0].kind != cst.ADDR_OF:
                raise _reject(where, f"{name} expects one argument of the form &mutex")
            mutex = args[0].operand.name
            if mutex not in self.mutexes:
                raise _reject(where, f"'{mutex}' is not a declared mutex")
            op = "lock" if name == "pthread_mutex_lock" else "unlock"
            emit((op, mutex, _coord(call.callee), (op, mutex, ("mutex", mutex))))
        elif name == "pthread_create":
            if len(args) != 4 or args[2].kind != cst.IDENTIFIER:
                raise _reject(where, "pthread_create must be called as "
                                     "pthread_create(&t, 0, fn, 0)")
            target = args[2].name
            if target not in self.functions or target == "main":
                raise _reject(where, f"pthread_create targets unknown function '{target}'")
            if args[0].kind != cst.ADDR_OF:
                raise _reject(where, "pthread_create expects &handle as its first argument")
            handle = self.handle(args[0].operand)
            self.creates.append((target, self.name, bool(self.loops)))
            for arg in (args[1], args[3]):
                self.expr(arg)
                emit(("pop",))
            emit(("create", target, _coord(call.callee), handle,
                  ("create", target, "create")))
        elif name == "pthread_join":
            if len(args) != 2 or args[0].kind != cst.IDENTIFIER:
                raise _reject(where, "pthread_join expects (handle, 0)")
            handle = self.handle(args[0])
            self.expr(args[1])
            emit(("pop",))
            emit(("join", handle, _coord(call.callee)))
        else:
            raise _reject(where, f"call to unsupported function '{name}'")

    def localize(self, functions: dict) -> None:
        """Make each access to a thread-local global in the compiled
        `functions` a local instruction.  A global is thread-local when it
        is named in one function only and that function runs at most once:
        `main` does, and so does the target of exactly one
        ``pthread_create`` that is outside every while and in a function
        that runs at most once (a least fixed point from `main`).  A
        function created once by a function that runs twice runs twice."""
        targets = [target for target, _, _ in self.creates]
        creator = {target: by for target, by, looped in self.creates
                   if not looped and targets.count(target) == 1}
        once = {"main"}
        while more := {target for target, by in creator.items() if by in once} - once:
            once |= more
        private = {name for name, users in self.users.items() if len(users) == 1 and users <= once}
        for code in functions.values():
            for pc, ins in enumerate(code):
                if ins[0] in ("read", "store") and ins[1] in private:
                    code[pc] = ("local_" + ins[0], ins[1], ins[2])


def build_model(tree: CstNode, local: bool = True) -> _Model:
    """Static validation of the translation unit, and its compiled code.
    With `local`, an access to a global that only one thread can touch is
    local code, not a scheduling point (`_Compiler.localize`)."""
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
    clash = sorted(mutexes & globals_.keys())
    if clash:
        raise UnsupportedConstruct(f"'{clash[0]}' is declared both as an int and as a mutex")
    compiler = _Compiler(globals_, frozenset(mutexes), bodies)
    functions = {name: compiler.function(func) for name, func in bodies.items()}
    if local:
        compiler.localize(functions)
    return _Model(globals_, frozenset(mutexes), functions)


# ---------------------------------------------------------------------------
# One deterministic execution
# ---------------------------------------------------------------------------

class _Step:
    """One scheduling decision on the current path: who could run, who
    ran (`choice`), and what it ran (`op`), as a (kind, object, conflict
    key) triple; the others' operations stay on their threads.  Two
    operations are dependent (`_dependent`) when their conflict keys are
    equal and not None and they are not both reads: ("var", name) for a
    read or write, ("mutex", name) for a lock or unlock, and "create" for
    every create, since thread ids are assigned in creation order.  A join
    has no key, since its happens-before edge from the target orders it,
    and neither has a fault, which `_Dpor`'s rule for an aborted run
    covers.

    DPOR also keeps the threads a race says to try from here
    (`backtrack`, None for none), those that need not be (`sleep`, tid ->
    triple, None for none), what restores the state before this step
    (`saved`), and the clock of the event once it has been ordered
    (`clock`, see `_Dpor`).  Most steps never get either set, so neither
    is made until needed."""

    __slots__ = ("enabled", "choice", "op", "backtrack", "sleep", "saved", "clock")

    def __init__(self, enabled: tuple, choice: int, op: tuple, sleep=None):
        self.enabled = enabled
        self.choice = choice
        self.op = op
        self.backtrack: set | None = None
        self.sleep = sleep
        self.saved = None
        self.clock = None


class _Thread:
    """One thread: where it is in its function's code, its operand stack
    and variables, and its scheduling state.  `pending` is the visible
    operation or the fault it waits to run, None once it has finished;
    its last item is what the scheduler sees of it, (kind, object,
    conflict key).  `held`, the mutexes it holds (for good once it has
    finished), is the only record of their owner.  `clock` orders its
    accesses for the race check, and `dpor` is DPOR's clock for it, None
    until DPOR has started or ordered the step that created the thread.
    `saved` caches `save()` until the thread next changes."""

    __slots__ = ("tid", "code", "pc", "stack", "env", "clock", "held",
                 "pending", "steps", "dpor", "saved")

    def __init__(self, tid: int, code: list, clock: tuple):
        self.tid = tid
        self.code = code
        self.pc = 0
        self.stack: list = []
        self.env = {0: 0}  # slot -> value; slot 0 is the parameter, if any, passed 0
        self.clock = clock
        self.held = frozenset()
        self.pending: tuple | None = None
        self.steps = 0
        self.dpor: tuple | None = None
        self.saved = None

    def save(self) -> tuple:
        if self.saved is None:
            self.saved = (self.pc, tuple(self.stack), self.env.copy(), self.clock, self.held,
                          self.pending, self.steps, self.dpor)
        return self.saved

    def restore(self, saved: tuple) -> None:
        (self.pc, stack, env, self.clock, self.held, self.pending,
         self.steps, self.dpor) = saved
        self.stack = list(stack)
        self.env = env.copy()
        self.saved = saved


def _found(races: dict, var: str, current: tuple, prior: tuple) -> None:
    """Keep the race between two accesses to `var` unless its key is known."""
    a, b = current[3][1], prior[3][1]
    key = (var, a, b) if a <= b else (var, b, a)
    if key not in races:
        races[key] = DetectedRace(var, _record(current), _record(prior))


class _Variable:
    """What the race checks keep of the accesses to one global along the
    schedule: the latest access per (thread, coordinate, kind), keyed as
    `_site` says, and the `lockset_check` state."""

    __slots__ = ("accesses", "lockset")

    def __init__(self):
        self.accesses: dict = {}
        self.lockset: tuple | None = None


def _undo_access(variable: _Variable, key: int, old, lockset) -> None:
    if old is None:
        del variable.accesses[key]
    else:
        variable.accesses[key] = old
    variable.lockset = lockset


class _Run:
    """The program's state along one schedule.

    `execute(choose)` runs it to the end of the schedule, where
    `choose(run, enabled)` returns the `_Step` to take at each decision,
    or None to stop there.  `save()` records what `restore()` needs to
    bring the run back to that point: the threads' own states,
    the length of the trace, and that of `trail`, which holds an undo
    entry for every change to shared state.  An access changes its
    variable's `_Variable`: the latest access at its key, updated in place
    so that undoing it keeps the order, and the `lockset_check` state; one
    undo entry restores both.  Results are not state: the races
    (`hb_races`, `ls_races`, by key) and `diagnostics` are the caller's
    maps, which keep the first of each found by any schedule and are never
    rolled back.  A race's key is tested before the race is built.
    """

    def __init__(self, model: _Model, step_budget: int, record_trace: bool,
                 hb_races: dict, ls_races: dict, diagnostics: dict):
        self.model = model
        self.step_budget = step_budget
        self.record_trace = record_trace

        self.globals_ = dict(model.globals_)
        self.mutex_clock = dict.fromkeys(model.mutexes, _ZERO)
        self.threads: list[_Thread] = []
        # The latest access per thread and site, not per thread: a
        # last-access-per-thread frontier misses racy coordinate pairs when
        # control flow is data-dependent (a branch reachable only after
        # the other thread's later access hides its earlier one).
        self.variables = {var: _Variable() for var in model.globals_}

        # (variable, place, place) in order -> the first DetectedRace found with it
        self.hb_races = hb_races
        self.ls_races = ls_races
        self.diagnostics = diagnostics  # Diagnostic -> None, in the order found
        self.deadlock: DeadlockRecord | None = None
        self.path: list[_Step] = []
        self.trace: list[tuple] = []
        self.trail: list[tuple] = []  # (undo function, *its arguments)
        self.aborted = False
        self.budget_exceeded = False

        main = _Thread(0, model.functions["main"], _ZERO)
        self.threads.append(main)
        self._advance(main)

    def save(self) -> tuple:
        return (len(self.trail), len(self.trace), [(t, t.save()) for t in self.threads])

    def restore(self, saved: tuple) -> None:
        trail_len, trace_len, threads = saved
        trail = self.trail
        while len(trail) > trail_len:
            undo = trail.pop()
            undo[0](*undo[1:])
        del self.trace[trace_len:]
        self.threads = [t for t, _ in threads]
        for t, state in threads:
            t.restore(state)
        self.deadlock = None
        self.aborted = self.budget_exceeded = False

    # -- bookkeeping ---------------------------------------------------

    def _diag(self, severity: str, message: str) -> None:
        self.diagnostics.setdefault(Diagnostic(severity, message))

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

        Names and calls were checked when compiled.  A local access to a
        global counts one step against the step budget, as a shared one
        does, and ends a run of loop iterations as a shared one does.
        Loop iterations since the last access to a global count against
        the budget too, so a loop that touches no global ends.
        A division or modulo by zero, or a thread past its budget, becomes
        the thread's pending fault, which ends the run when it is
        scheduled: until then the other threads run on.
        """
        code, stack, env = thread.code, thread.stack, thread.env
        if result is not None:
            stack.append(result)
        pc = thread.pc
        iterations = 0
        try:
            while True:
                ins = code[pc]
                op = ins[0]
                pc += 1
                if op == "load":
                    stack.append(env[ins[1]])
                elif op == "const":
                    stack.append(ins[1])
                elif op == "read":
                    thread.pending = ins
                    break
                elif op == "set":
                    env[ins[1]] = stack[-1]
                elif op == "store":
                    thread.pending = ("write", ins[1], stack[-1], ins[2], ins[3])
                    break
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
                elif op == "local_read" or op == "local_store":
                    thread.steps += 1
                    if thread.steps > self.step_budget:
                        thread.pending = _OVERRUN
                        break
                    iterations = 0
                    var = ins[1]
                    if op == "local_read":
                        stack.append(self.globals_[var])
                    else:
                        self.trail.append((dict.__setitem__, self.globals_, var,
                                           self.globals_[var]))
                        self.globals_[var] = stack[-1]
                    self._note_local(thread, var, ins[2])
                elif op == "loop":
                    iterations += 1
                    if iterations > self.step_budget:
                        thread.pending = _OVERRUN
                        break
                    pc = ins[1]
                elif op == "decl":
                    env[ins[1]] = stack.pop()
                elif op == "unary":
                    stack[-1] = ins[1](stack[-1])
                elif op == "join":
                    target = env[ins[1]]
                    thread.pending = ("join", target, ins[2], ("join", target, None))
                    break
                elif op == "return":
                    thread.pending = None
                    if thread.held:
                        held = ", ".join(sorted(thread.held))
                        self._diag("warning", f"thread {thread.tid} finished still holding {held}")
                    return
                else:  # lock, unlock, create
                    thread.pending = ins
                    if op == "lock" and ins[1] in thread.held:
                        # stuck for good: only this thread could unlock it
                        self._diag("error", f"thread {thread.tid} locks '{ins[1]}' which it "
                                            "already holds (self-deadlock)")
                    break
        except _ProgramFault as fault:
            thread.pending = ("fault", str(fault), _FAULT)
        thread.pc = pc

    def _enabled(self, thread: _Thread) -> bool:
        intent = thread.pending
        op = intent[0]
        if op == "lock":  # a finished thread keeps what it held
            return not any(intent[1] in t.held for t in self.threads)
        if op == "join":
            target = intent[1]
            if 0 <= target < len(self.threads):
                return self.threads[target].pending is None
            return True  # invalid handle: fault when executed
        return True

    def _note_local(self, thread: _Thread, var: str, site: tuple) -> None:
        """The lockset check of a thread-local access.  No other thread
        touches the global, so it has no happens-before race and keeps no
        access for one, and as local code it is not traced."""
        access = (thread.tid, thread.clock, thread.held, site)
        variable = self.variables[var]
        before = variable.lockset
        variable.lockset, races = lockset_check(access, before)
        for prior in races:
            _found(self.ls_races, var, access, prior)
        self.trail.append((setattr, variable, "lockset", before))

    def _note_access(self, thread: _Thread, var: str, site: tuple) -> None:
        access = (thread.tid, thread.clock, thread.held, site)
        variable = self.variables[var]
        accesses = variable.accesses
        for prior in hb_check(access, accesses.values()):
            _found(self.hb_races, var, access, prior)
        before = variable.lockset
        variable.lockset, races = lockset_check(access, before)
        for prior in races:
            _found(self.ls_races, var, access, prior)
        key = site[3] + thread.tid
        self.trail.append((_undo_access, variable, key, accesses.get(key), before))
        accesses[key] = access
        if self.record_trace:
            self.trace.append((site[0], thread.tid, var, SourceCoord(*site[1])))

    # -- one scheduling step -------------------------------------------

    def _execute(self, thread: _Thread) -> None:
        intent = thread.pending
        op = intent[0]
        if op == "fault":
            if intent[1] is None:
                self._over_budget(thread)
            else:
                self._diag("error", f"thread {thread.tid}: {intent[1]}")
                self.aborted = True
            return
        thread.saved = None
        thread.steps += 1
        if thread.steps > self.step_budget:
            self._over_budget(thread)
            return

        if op == "read":
            _, var, site, _ = intent
            self._note_access(thread, var, site)
            self._advance(thread, self.globals_[var])
        elif op == "write":
            _, var, value, site, _ = intent
            self._note_access(thread, var, site)
            self.trail.append((dict.__setitem__, self.globals_, var, self.globals_[var]))
            self.globals_[var] = value
            self._advance(thread)
        elif op == "lock":
            _, mutex, coord, _ = intent
            thread.held = thread.held | {mutex}
            # acquire: join the clock the last release published, then tick
            clock = _join(thread.clock, self.mutex_clock[mutex])
            thread.clock = _with(clock, thread.tid, clock[thread.tid] + 1)
            self._trace(("lock", thread.tid, mutex, coord))
            self._advance(thread, 0)
        elif op == "unlock":
            _, mutex, coord, _ = intent
            if mutex not in thread.held:
                self._diag(
                    "error",
                    f"thread {thread.tid} unlocks '{mutex}' which it does not hold",
                )
                self.aborted = True
                return
            self.trail.append((dict.__setitem__, self.mutex_clock, mutex,
                               self.mutex_clock[mutex]))
            thread.held = thread.held - {mutex}
            # release: publish the clock, then tick
            clock = self.mutex_clock[mutex] = thread.clock
            thread.clock = _with(clock, thread.tid, clock[thread.tid] + 1)
            self._trace(("unlock", thread.tid, mutex, coord))
            self._advance(thread, 0)
        elif op == "create":
            _, target, coord, handle, _ = intent
            if len(self.threads) >= MAX_THREADS:
                self._diag("error", f"thread limit of {MAX_THREADS} exceeded")
                self.aborted = True
                return
            child_tid = len(self.threads)
            # the child starts from the parent's clock, its own component at
            # one; the parent ticks, so its later work is not ordered before
            clock = thread.clock
            thread.clock = _with(clock, thread.tid, clock[thread.tid] + 1)
            child = _Thread(child_tid, self.model.functions[target], _with(clock, child_tid, 1))
            self.threads.append(child)
            self._advance(child)
            self._trace(("create", thread.tid, child_tid, coord))
            thread.env[handle] = child_tid
            self._advance(thread, 0)
        elif op == "join":
            _, target, coord, _ = intent
            if not 0 <= target < len(self.threads):
                self._diag("error", f"thread {thread.tid} joins an invalid handle")
                self.aborted = True
                return
            # fold the finished child's whole history in, then tick
            clock = _join(thread.clock, self.threads[target].clock)
            thread.clock = _with(clock, thread.tid, clock[thread.tid] + 1)
            self._trace(("join", thread.tid, target, coord))
            self._advance(thread, 0)

    def _trace(self, event: tuple) -> None:
        if self.record_trace:
            self.trace.append(event)

    # -- main loop ------------------------------------------------------

    def execute(self, choose) -> None:
        while not self.aborted:
            enabled = []
            for t in self.threads:
                if t.pending is not None and self._enabled(t):
                    enabled.append(t.tid)
            if not enabled:  # every thread has finished, or the rest are stuck
                if any(t.pending is not None for t in self.threads):
                    self._record_deadlock()
                return
            step = choose(self, tuple(enabled))
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
            # a stuck thread waits on a lock or a join
            waiting = f"{'mutex' if intent[0] == 'lock' else 'join'}:{intent[1]}"
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

    def choose(self, run: _Run, enabled: tuple) -> _Step:
        index = len(run.path)
        choice = self.prefix[index] if index < len(self.prefix) else enabled[0]
        return _Step(enabled, choice, run.threads[choice].pending[-1])

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
        return _Run(run.model, run.step_budget, run.record_trace,
                    run.hb_races, run.ls_races, run.diagnostics)


class _Dpor:
    """DPOR with sleep sets (Flanagan & Godefroid, POPL 2005).

    Happens-before is program order, create and join edges, and the order
    of dependent operations; it is computed online, one step at a time.
    Step k is ordered when the state after it is known: by `choose` at
    the next decision, or by `advance` at the end of the run.  Only the
    step's thread has moved by then, so the others' pending operations
    are read from the run, as each process's next transition is read from
    the state.  A thread's next operation races with every dependent
    operation of another thread from the state where it became pending
    until it runs or the run ends, and with the last dependent operation
    before that state, if that one does not already happen before the
    thread.  Checking only where the operation ran would miss a lock that
    waited on another thread's critical section.  A run that aborted on a
    fault ends in an operation that stops every other thread (a step that
    aborts creates none), so it depends on all of their pending
    operations.  Each race adds the other thread to the backtrack set of
    the earlier step; the thread itself if it was enabled there, else
    every enabled thread.

    A clock's entry u is one more than the index of the latest step of
    thread u that happens before.  The search state lives where the run's
    restore rolls it back: each thread's clock on `_Thread`, each event's
    clock on its `_Step`, and `last`, whose changes are undone through the
    run's trail.  `last` maps a conflict key to the latest write on it,
    then the latest read of each thread since that write (the steps; a
    lock, unlock or create counts as a write).  Reads commute, so a read
    is ordered after the write only, and a write after the write and every
    read since; a thread's earlier reads happen before its latest one.
    These are also the operations a newly pending one is checked against.

    After each run the state is restored to the deepest step with a
    backtrack thread left to try and not asleep, and goes on from there
    with that thread.  Only a step with more than one enabled thread can
    have one, so only those save state.
    """

    def __init__(self):
        self.resume: _Step | None = None
        self.last: dict = {}

    def choose(self, run: _Run, enabled: tuple) -> _Step | None:
        if self.resume is not None:  # `advance` restored the state this step was saved in
            step, self.resume = self.resume, None
            return step
        sleep = None
        if not run.path:
            run.threads[0].dpor = _ZERO
        else:
            parent = run.path[-1]
            self._order(run, len(run.path) - 1)
            if parent.sleep:
                ran = parent.op
                sleep = {tid: op for tid, op in parent.sleep.items()
                         if not _dependent(ran, op)} or None
        awake = [tid for tid in enabled if tid not in sleep] if sleep else enabled
        if not awake:
            return None  # every schedule from here is one already explored
        step = _Step(enabled, awake[0], run.threads[awake[0]].pending[-1], sleep)
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
            if run.aborted:  # the fault stops every other thread still waiting
                for t in run.threads:
                    if t.pending is not None and t.tid != last.choice:
                        _reverse(last, t.tid)
        while path:
            node = path.pop()
            if node.backtrack is None:  # nothing to try here
                continue
            if node.sleep is None:
                node.sleep = {}
            node.sleep[node.choice] = node.op
            options = node.backtrack.difference(node.sleep)
            if options:
                node.choice = min(options)
                node.clock = None
                run.restore(node.saved)
                node.op = run.threads[node.choice].pending[-1]
                self.resume = node
                return run
        return None

    def _order(self, run: _Run, k: int) -> None:
        """Add step `k`, the last one run, to happens-before."""
        path, last = run.path, self.last
        step = path[k]
        tid = step.choice
        op = step.op
        kind, target, key = op
        thread = run.threads[tid]
        clock = thread.dpor
        if key is not None:
            for other in run.threads:  # a child this step made has no clock yet
                if (other is not thread and other.pending is not None
                        and other.dpor is not None and _dependent(op, other.pending[-1])):
                    _reverse(step, other.tid)
            prior = last.get(key, ())
            # unbound methods: a bound one in every entry would add to the peak
            run.trail.append((dict.__setitem__, last, key, prior) if prior
                             else (dict.pop, last, key))
            if kind != "read":  # after the latest write and every read since
                for before in prior:
                    clock = _join(clock, before.clock)
                last[key] = (step,)
            else:  # after the latest write; its latest read stands for the thread's earlier ones
                if prior and prior[0].op[0] != "read":
                    clock = _join(clock, prior[0].clock)
                last[key] = tuple([before for before in prior if before.choice != tid
                                   or before.op[0] != "read"]) + (step,)
        elif kind == "join" and 0 <= target < len(run.threads):
            clock = _join(clock, run.threads[target].dpor)
        step.clock = thread.dpor = clock = _with(clock, tid, k + 1)
        if kind == "create":
            child = run.threads[-1]
            if child.dpor is None:  # else the thread limit stopped the create
                child.dpor = clock
                if child.pending is not None:
                    self._pend(child)
        if thread.pending is not None and not run.aborted:  # else it never runs again
            self._pend(thread)

    def _pend(self, thread: _Thread) -> None:
        """Check `thread`'s operation, pending from now on, against the
        dependent ones already ordered."""
        op = thread.pending[-1]
        for step in self.last.get(op[2], ()):
            u = step.choice
            if _dependent(op, step.op) and thread.dpor[u] < step.clock[u]:  # not seen
                _reverse(step, thread.tid)


def _dependent(a: tuple, b: tuple) -> bool:
    """Whether two operations, (kind, object, conflict key) triples, do
    not commute: their keys are equal and not None, and not both are
    reads."""
    return a[2] is not None and a[2] == b[2] and (a[0] != "read" or b[0] != "read")


def _reverse(step: _Step, tid: int) -> None:
    """DPOR must also try running `tid` at `step`."""
    if step.backtrack is None:
        step.backtrack = set()
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
    dependent operations are explored, and an access to a thread-local
    global is no scheduling point; ``"none"`` branches at every access to
    a global and every synchronization operation and serves as the oracle
    both are tested against.  Results are aggregated
    across schedules and deduplicated.  A `bound` below one is a
    ValueError.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, not {bound}")
    if reduction == "dpor":
        search = _Dpor()
    elif reduction == "none":
        search = _Exhaustive()
    else:
        raise ValueError(f"unknown reduction: {reduction!r}")
    model = build_model(tree, local=reduction == "dpor")

    hb: dict = {}
    ls: dict = {}
    deadlocks: dict = {}
    diags: dict = {}
    traces: list = []
    explored = 0
    truncated = False

    run = _Run(model, step_budget, record_traces, hb, ls, diags)
    while run is not None:
        if explored >= bound:
            truncated = True
            break
        run.execute(search.choose)
        explored += 1
        if run.deadlock is not None:
            deadlocks.setdefault(run.deadlock.threads, run.deadlock)
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
    """Re-execute from the initial state one schedule prefix that `explore`
    recorded with its default reduction."""
    run = _Run(build_model(tree), step_budget, True, {}, {}, {})
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
