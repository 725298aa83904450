"""Mutex synthesis and the five lock-insertion templates.

Given a located statement and the racy variable, the engine plans a
per-variable mutex (declared right after the variable) and emits text
edits that wrap the statement:

* plain statement        -> lock the line above, unlock the line below
* if with else           -> lock above the ``if``, unlock first in both branches
* if without else        -> same, with an unlocking ``else`` synthesized
* else-if                -> split the chain, then treat the new ``if`` as above
* while condition        -> lock above, unlock at body start, re-lock at
                            body end, unlock after the loop

Every inserted line carries a marker comment so patches are auditable
and re-running the engine on its own output is a no-op.  ``coalesce``
merges patches: one mutex declaration per variable, and an unlock
immediately followed by a lock of the same mutex (nothing but blank
space or comments between) cancels out, fusing adjacent critical
sections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .reports import DataRace
from .cst import (
    ADDR_OF,
    BREAK_STMT,
    CALL_EXPR,
    COMPOUND_STMT,
    CONTINUE_STMT,
    EXPR_STMT,
    FUNC_DEF,
    IF_STMT,
    MUTEX_DECL,
    RETURN_STMT,
    VAR_DECL,
    WHILE_STMT,
    CstNode,
    StatementHandle,
    TextEdit,
    check_overlaps,
)

MUTEX_PREFIX = "__rf_mutex_"
LOCK_MARKER = "// lock added by RaceFixer"
UNLOCK_MARKER = "// unlock added by RaceFixer"
ISOLATED_MARKER = "// isolated if statement"
SPLIT_MARKER = "// new if statement generated from else if"

TEMPLATE_PLAIN = "PlainStatement"
TEMPLATE_IF_WITH_ELSE = "IfWithElse"
TEMPLATE_IF_WITHOUT_ELSE = "IfWithoutElse"
TEMPLATE_ELSE_IF = "ElseIfSplit"
TEMPLATE_WHILE = "WhileCondition"

SEMANTICS_CHANGED = (
    "splitting the else-if changes behavior when the preceding condition holds"
)


class UnknownVariable(Exception):
    """The racy variable has no global declaration in this file."""


class UnsupportedControlFlow(Exception):
    """The template would leave the lock state wrong on some path."""


@dataclass
class MutexPlan:
    variable: str
    mutex_name: str
    decl_insertion: TextEdit | None
    already_declared: bool

    @property
    def lock_call(self) -> str:
        return f"pthread_mutex_lock(&{self.mutex_name});"

    @property
    def unlock_call(self) -> str:
        return f"pthread_mutex_unlock(&{self.mutex_name});"


@dataclass
class Patch:
    race: DataRace | None
    template: str
    mutex: MutexPlan
    edits: list[TextEdit] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    region: tuple[int, int] = (0, 0)  # source span the template reshapes

    @property
    def empty(self) -> bool:
        return not self.edits


@dataclass
class CoalesceResult:
    patches: list[Patch]
    deferred: list[tuple[Patch, str]]
    edits: list[TextEdit]


# ---------------------------------------------------------------------------
# Layout helpers
# ---------------------------------------------------------------------------


def _line_start(text: str, offset: int) -> int:
    return text.rfind("\n", 0, offset) + 1


def _line_indent(text: str, offset: int) -> str:
    start = _line_start(text, offset)
    i = start
    while i < len(text) and text[i] in " \t":
        i += 1
    return text[start:i]


def _starts_its_line(text: str, offset: int) -> bool:
    return text[_line_start(text, offset) : offset].strip() == ""


def indent_unit(text: str) -> str:
    """First positive indentation found in the file, else four spaces."""
    for line in text.splitlines():
        stripped = line.lstrip(" \t")
        if stripped and len(stripped) < len(line):
            return line[: len(line) - len(stripped)]
    return "    "


def _after_stmt_point(text: str, end: int) -> tuple[int, bool]:
    """Insertion point for a line after the statement ending at `end`.

    Returns (offset, midline).  When the rest of the line holds only
    whitespace or a trailing comment, insertion happens at the start of
    the next line; otherwise directly after the statement (midline).
    """
    i = end
    n = len(text)
    while i < n and text[i] in " \t":
        i += 1
    if i < n and text[i : i + 2] == "//":
        j = text.find("\n", i)
        i = n if j < 0 else j
    if i >= n:
        return n, False
    if text[i] == "\n":
        return i + 1, False
    return end, True


# ---------------------------------------------------------------------------
# Tree predicates
# ---------------------------------------------------------------------------


def _is_lock_stmt(node: CstNode, call_name: str, mutex_name: str) -> bool:
    if node.kind != EXPR_STMT or node.expr.kind != CALL_EXPR:
        return False
    call = node.expr
    if call.callee.name != call_name or len(call.args) != 1:
        return False
    arg = call.args[0]
    return arg.kind == ADDR_OF and arg.operand.name == mutex_name


def _sibling_statements(stmt: CstNode) -> tuple[CstNode | None, CstNode | None]:
    parent = stmt.parent
    if parent is None or parent.kind != COMPOUND_STMT:
        return None, None
    stmts = parent.statements
    idx = stmts.index(stmt)
    before = stmts[idx - 1] if idx > 0 else None
    after = stmts[idx + 1] if idx + 1 < len(stmts) else None
    return before, after


def _already_wrapped(stmt: CstNode, plan: MutexPlan) -> bool:
    before, after = _sibling_statements(stmt)
    locked = before is not None and _is_lock_stmt(before, "pthread_mutex_lock", plan.mutex_name)
    if not locked:
        return False
    if stmt.kind in (IF_STMT, WHILE_STMT):
        return True  # our templates always put the lock directly above
    return after is not None and _is_lock_stmt(after, "pthread_mutex_unlock", plan.mutex_name)


_ESCAPES = {RETURN_STMT: "return", BREAK_STMT: "break", CONTINUE_STMT: "continue"}


def _contains_escape(node: CstNode) -> str | None:
    """Name of a control-flow escape inside `node`, if any."""
    for sub in node.walk():
        if sub.kind in _ESCAPES:
            return _ESCAPES[sub.kind]
    return None


# ---------------------------------------------------------------------------
# Mutex planning
# ---------------------------------------------------------------------------


def plan_mutex(variable: str, tree: CstNode) -> MutexPlan:
    """Plan the guard for `variable`: one declaration per file, ever."""
    mutex_name = MUTEX_PREFIX + variable
    decl = None
    for child in tree.child_nodes():
        if child.kind == MUTEX_DECL and child.name == mutex_name:
            return MutexPlan(variable, mutex_name, None, already_declared=True)
        if child.kind == VAR_DECL and child.name == variable:
            decl = child
    if decl is None:
        raise UnknownVariable(f"no global declaration of '{variable}'")

    text = tree.text
    newline = text.find("\n", decl.span.end_offset)
    line = f"pthread_mutex_t {mutex_name} = PTHREAD_MUTEX_INITIALIZER;"
    if newline < 0:
        edit = TextEdit(len(text), len(text), f"\n{line}\n", kind="decl", mutex=mutex_name)
    else:
        edit = TextEdit(newline + 1, newline + 1, f"{line}\n", kind="decl", mutex=mutex_name)
    return MutexPlan(variable, mutex_name, edit, already_declared=False)


# ---------------------------------------------------------------------------
# Edit builders
# ---------------------------------------------------------------------------


def _lock_before(text: str, stmt: CstNode, plan: MutexPlan, order_col: int) -> TextEdit:
    start = stmt.span.start_offset
    ind = _line_indent(text, start)
    if _starts_its_line(text, start):
        pos = _line_start(text, start)
        block = f"{ind}{LOCK_MARKER}\n{ind}{plan.lock_call}\n"
    else:
        pos = start
        block = f"{LOCK_MARKER}\n{ind}{plan.lock_call}\n{ind}"
    return TextEdit(pos, pos, block, kind="lock", mutex=plan.mutex_name,
                    anchor=start, order_col=order_col)


def _unlock_after(text: str, stmt: CstNode, plan: MutexPlan, order_col: int) -> TextEdit:
    end = stmt.span.end_offset
    ind = _line_indent(text, stmt.span.start_offset)
    pos, midline = _after_stmt_point(text, end)
    if pos >= len(text) and not midline:
        block = f"\n{ind}{UNLOCK_MARKER}\n{ind}{plan.unlock_call}\n"
    elif midline:
        block = f"\n{ind}{UNLOCK_MARKER}\n{ind}{plan.unlock_call}\n{ind}"
    else:
        block = f"{ind}{UNLOCK_MARKER}\n{ind}{plan.unlock_call}\n"
    return TextEdit(pos, pos, block, kind="unlock", mutex=plan.mutex_name,
                    anchor=end, order_col=order_col)


def _branch_entry_unlock(text: str, branch: CstNode, plan: MutexPlan,
                         anchor_ind: str, unit: str, order_col: int) -> list[TextEdit]:
    """Unlock as the first statement of a branch, bracing it if needed."""
    body_ind = anchor_ind + unit
    if branch.kind == COMPOUND_STMT:
        pos = branch.lbrace.end
        block = f"\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{plan.unlock_call}"
        return [TextEdit(pos, pos, block, kind="unlock", mutex=plan.mutex_name,
                         anchor=pos, order_col=order_col)]
    open_block = f"{{\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{plan.unlock_call}\n{body_ind}"
    close_block = f"\n{anchor_ind}}}"
    return [
        TextEdit(branch.span.start_offset, branch.span.start_offset, open_block,
                 kind="brace_unlock", mutex=plan.mutex_name,
                 anchor=branch.span.start_offset, order_col=order_col),
        TextEdit(branch.span.end_offset, branch.span.end_offset, close_block,
                 kind="brace", anchor=branch.span.end_offset, order_col=order_col),
    ]


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def fix_plain(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock/unlock wrapped around one statement."""
    stmt = handle.node
    escape = _contains_escape(stmt)
    if escape is not None:
        raise UnsupportedControlFlow(
            f"statement contains '{escape}'; an unlock after it would be skipped"
        )
    patch = Patch(None, TEMPLATE_PLAIN, mutex,
                  region=(stmt.span.start_offset, stmt.span.end_offset))
    if _already_wrapped(stmt, mutex):
        patch.notes.append("already wrapped; no edits")
        return patch
    text = stmt.root().text
    col = handle.identifier.span.start.column
    patch.edits.append(_lock_before(text, stmt, mutex, col))
    patch.edits.append(_unlock_after(text, stmt, mutex, col))
    return patch


def _fix_if(handle: StatementHandle, mutex: MutexPlan, template: str) -> Patch:
    ifnode = handle.node
    patch = Patch(None, template, mutex,
                  region=(ifnode.span.start_offset, ifnode.span.end_offset))
    if _already_wrapped(ifnode, mutex):
        patch.notes.append("already wrapped; no edits")
        return patch
    text = ifnode.root().text
    unit = indent_unit(text)
    ind = _line_indent(text, ifnode.span.start_offset)
    body_ind = ind + unit
    col = handle.identifier.span.start.column

    patch.edits.append(_lock_before(text, ifnode, mutex, col))
    patch.edits.extend(_branch_entry_unlock(text, ifnode.then, mutex, ind, unit, col))
    if ifnode.els is not None:
        patch.edits.extend(_branch_entry_unlock(text, ifnode.els, mutex, ind, unit, col))
    else:
        _synthesize_else(patch, text, ifnode, mutex, ind, body_ind, col)
    return patch


def _synthesize_else(patch: Patch, text: str, ifnode: CstNode, mutex: MutexPlan,
                     ind: str, body_ind: str, col: int) -> None:
    """Append an else branch whose only job is to release the lock."""
    synth = f" else {{\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{mutex.unlock_call}\n{ind}}}"
    if ifnode.then.kind == COMPOUND_STMT:
        pos = ifnode.then.rbrace.end
        patch.edits.append(TextEdit(pos, pos, synth, kind="else_synth",
                                    mutex=mutex.mutex_name, anchor=pos, order_col=col))
    else:
        # The then branch was just braced by _branch_entry_unlock; fold its
        # closing brace and the new else into one insertion.
        close = patch.edits.pop()
        assert close.kind == "brace"
        patch.edits.append(TextEdit(close.start, close.end, f"\n{ind}}}" + synth,
                                    kind="else_synth", mutex=mutex.mutex_name,
                                    anchor=close.start, order_col=col))


def fix_if_with_else(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock above the if; unlock first inside both existing branches."""
    assert handle.node.els is not None
    return _fix_if(handle, mutex, TEMPLATE_IF_WITH_ELSE)


def fix_if_without_else(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock above the if; unlock in the then branch and a synthesized else."""
    assert handle.node.els is None
    return _fix_if(handle, mutex, TEMPLATE_IF_WITHOUT_ELSE)


def fix_else_if(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Detach the racy else-if into its own if, then lock it as usual.

    The chain up to the racy link is left standing; the ``else`` keyword
    joining them is deleted, which makes the racy if a separate
    statement in place.  Control flow changes when the preceding
    condition holds, so the patch carries a diagnostic note.
    """
    racy = handle.node
    parent_if = racy.parent
    assert parent_if.kind == IF_STMT and racy is parent_if.els

    head = parent_if
    while head.parent.kind == IF_STMT and head is head.parent.els:
        head = head.parent
    if head.parent.kind != COMPOUND_STMT:
        raise UnsupportedControlFlow("else-if chain sits in an unbraced context")

    # the whole chain is the restructured region, head through racy link
    patch = Patch(None, TEMPLATE_ELSE_IF, mutex,
                  region=(head.span.start_offset, head.span.end_offset))
    if _already_wrapped(head, mutex):
        patch.notes.append("already wrapped; no edits")
        return patch

    text = racy.root().text
    ind = _line_indent(text, head.span.start_offset)
    col = handle.identifier.span.start.column

    if _starts_its_line(text, head.span.start_offset):
        pos = _line_start(text, head.span.start_offset)
        patch.edits.append(TextEdit(pos, pos, f"{ind}{ISOLATED_MARKER}\n", kind="comment"))

    else_tok = parent_if.else_token
    if_tok = racy.if_token
    # Eat the whitespace before 'else' too, unless a comment lives there.
    cut_from = else_tok.offset
    if else_tok.leading.strip() == "":
        cut_from = parent_if.then.span.end_offset
    patch.edits.append(TextEdit(cut_from, if_tok.offset, "", kind="split"))
    lead = (
        f"\n{ind}{SPLIT_MARKER}\n{ind}{LOCK_MARKER}\n{ind}{mutex.lock_call}\n{ind}"
    )
    patch.edits.append(TextEdit(if_tok.offset, if_tok.offset, lead,
                                kind="lock", mutex=mutex.mutex_name,
                                anchor=if_tok.offset, order_col=col))

    unit = indent_unit(text)
    body_ind = ind + unit
    patch.edits.extend(_branch_entry_unlock(text, racy.then, mutex, ind, unit, col))
    if racy.els is not None:
        patch.edits.extend(_branch_entry_unlock(text, racy.els, mutex, ind, unit, col))
    else:
        _synthesize_else(patch, text, racy, mutex, ind, body_ind, col)
    patch.notes.append(SEMANTICS_CHANGED)
    return patch


def fix_while(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """The four-insertion loop template.

    Lock above the loop, unlock at the top of the body, lock again at
    the bottom of the body, unlock after the loop: the guard is held
    exactly while the condition is evaluated.
    """
    w = handle.node
    escape = _contains_escape(w.body)
    if escape is not None:
        raise UnsupportedControlFlow(
            f"loop body contains '{escape}'; the lock state would not balance"
        )
    patch = Patch(None, TEMPLATE_WHILE, mutex,
                  region=(w.span.start_offset, w.span.end_offset))
    if _already_wrapped(w, mutex):
        patch.notes.append("already wrapped; no edits")
        return patch

    text = w.root().text
    unit = indent_unit(text)
    ind = _line_indent(text, w.span.start_offset)
    body_ind = ind + unit
    col = handle.identifier.span.start.column
    body = w.body

    patch.edits.append(_lock_before(text, w, mutex, col))
    if body.kind == COMPOUND_STMT:
        pos = body.lbrace.end
        patch.edits.append(TextEdit(
            pos, pos, f"\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{mutex.unlock_call}",
            kind="unlock", mutex=mutex.mutex_name, anchor=pos, order_col=col))
        rb = body.rbrace
        if _starts_its_line(text, rb.offset):
            pos = _line_start(text, rb.offset)
            block = f"{body_ind}{LOCK_MARKER}\n{body_ind}{mutex.lock_call}\n"
        else:
            pos = rb.offset
            block = f"\n{body_ind}{LOCK_MARKER}\n{body_ind}{mutex.lock_call}\n{ind}"
        patch.edits.append(TextEdit(pos, pos, block, kind="lock",
                                    mutex=mutex.mutex_name, anchor=rb.offset,
                                    order_col=col))
        patch.edits.append(_unlock_after(text, w, mutex, col))
    else:
        open_block = (
            f"{{\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{mutex.unlock_call}\n{body_ind}"
        )
        patch.edits.append(TextEdit(body.span.start_offset, body.span.start_offset,
                                    open_block, kind="brace_unlock",
                                    mutex=mutex.mutex_name,
                                    anchor=body.span.start_offset, order_col=col))
        close_block = (
            f"\n{body_ind}{LOCK_MARKER}\n{body_ind}{mutex.lock_call}\n{ind}}}"
            f"\n{ind}{UNLOCK_MARKER}\n{ind}{mutex.unlock_call}"
        )
        patch.edits.append(TextEdit(body.span.end_offset, body.span.end_offset,
                                    close_block, kind="brace_lock_unlock",
                                    mutex=mutex.mutex_name,
                                    anchor=body.span.end_offset, order_col=col))
    return patch


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

# Edits that synthesize new structure (braces, else arms); two of these
# from different patches cannot stack at one offset.
_SYNTH_KINDS = frozenset({"else_synth", "brace_lock_unlock", "split"})


def _blank_or_comments(segment: str) -> bool:
    return _COMMENT_RE.sub("", segment).strip() == ""


def _regions_intersect(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _patches_conflict(a: Patch, b: Patch) -> bool:
    """True when the two patches cannot compose into valid syntax.

    An else-if split rewrites its whole chain, so nothing else may touch
    that region in the same round; and structure-synthesizing edits from
    two patches cannot land on the same offset.
    """
    if a.mutex.mutex_name == b.mutex.mutex_name:
        return False  # same guard: planner groups these, edits compose
    if TEMPLATE_ELSE_IF in (a.template, b.template):
        if _regions_intersect(a.region, b.region):
            return True
    synth_a = {e.start for e in a.edits if e.kind in _SYNTH_KINDS}
    synth_b = {e.start for e in b.edits if e.kind in _SYNTH_KINDS}
    return any(e.start in synth_b for e in a.edits) or any(
        e.start in synth_a for e in b.edits
    )


def coalesce(patches: list[Patch], text: str) -> CoalesceResult:
    """Combine patches: shared declarations, merged critical sections.

    Duplicate patches are dropped, overlapping ones are deferred (the
    later race is retried on the next iteration), and an unlock
    insertion immediately followed by a lock insertion of the same mutex
    cancels out.  The returned edit list is ordered; at equal offsets,
    locks whose access appears first in the statement come first.
    """
    live = [p for p in patches if not p.empty]
    deferred: list[tuple[Patch, str]] = []

    seen: set[tuple] = set()
    unique: list[Patch] = []
    for patch in live:
        key = (patch.template, patch.mutex.mutex_name,
               tuple((e.start, e.end) for e in patch.edits))
        if key in seen:
            continue
        seen.add(key)
        unique.append(patch)

    accepted: list[Patch] = []
    accepted_edits: list[TextEdit] = []
    for patch in unique:
        if any(_patches_conflict(patch, earlier) for earlier in accepted):
            deferred.append(
                (patch, "conflicts with an earlier patch; retried next iteration")
            )
        elif check_overlaps(accepted_edits + patch.edits) is None:
            accepted.append(patch)
            accepted_edits.extend(patch.edits)
        else:
            deferred.append(
                (patch, "edits overlap an earlier patch; retried next iteration")
            )

    decls: dict[str, TextEdit] = {}
    for patch in accepted:
        plan = patch.mutex
        if not plan.already_declared and plan.decl_insertion is not None:
            decls.setdefault(plan.mutex_name, plan.decl_insertion)

    edits = list(decls.values())
    for patch in accepted:
        edits.extend(patch.edits)
    edits.sort(key=lambda e: (e.start, e.sort_anchor, e.order_col))

    # Cancel unlock/lock pairs with nothing but whitespace or comments
    # between them; repeat until no adjacent pair remains.
    changed = True
    while changed:
        changed = False
        for i in range(len(edits) - 1):
            a, b = edits[i], edits[i + 1]
            if (
                a.kind == "unlock"
                and b.kind == "lock"
                and a.mutex == b.mutex
                and a.end <= b.start
                and _blank_or_comments(text[a.end : b.start])
            ):
                del edits[i + 1]
                del edits[i]
                changed = True
                break

    return CoalesceResult(accepted, deferred, edits)


# ---------------------------------------------------------------------------
# Static lock-balance check over the patched tree
# ---------------------------------------------------------------------------


def check_lock_balance(tree: CstNode) -> list[str]:
    """Walk every path of every function; report lock-state problems.

    Loops are checked for zero and one iteration, which is enough to
    catch any per-iteration imbalance.
    """
    problems: list[str] = []

    def step(stmt: CstNode, states: set[frozenset]) -> set[frozenset]:
        kind = stmt.kind
        if kind == EXPR_STMT and stmt.expr.kind == CALL_EXPR:
            call = stmt.expr
            name = call.callee.name
            if name in ("pthread_mutex_lock", "pthread_mutex_unlock") and call.args \
                    and call.args[0].kind == ADDR_OF:
                mutex = call.args[0].operand.name
                out = set()
                for held in states:
                    if name == "pthread_mutex_lock":
                        if mutex in held:
                            problems.append(f"{mutex} locked twice on one path")
                        out.add(held | {mutex})
                    else:
                        if mutex not in held:
                            problems.append(f"{mutex} unlocked while not held")
                        out.add(held - {mutex})
                return out
            return states
        if kind == COMPOUND_STMT:
            for sub in stmt.statements:
                states = step(sub, states)
            return states
        if kind == IF_STMT:
            taken = step(stmt.then, states)
            skipped = step(stmt.els, states) if stmt.els is not None else states
            return taken | skipped
        if kind == WHILE_STMT:
            return states | step(stmt.body, states)
        return states

    for fn in tree.child_nodes():
        if fn.kind != FUNC_DEF:
            continue
        finals = step(fn.body, {frozenset()})
        for held in finals:
            for mutex in sorted(held):
                problems.append(f"{fn.name} can return with {mutex} still held")
    return problems
