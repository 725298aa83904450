"""Mutex synthesis and the five lock-insertion templates.

Given a located statement and the racy variable, the engine plans a
per-variable mutex (declared right after the variable) and emits the
text insertions that wrap the statement; no edit removes text:

* plain statement        -> lock the line above, unlock the line below
* if with else           -> lock above the ``if``, unlock first in both branches
* if without else        -> same, with an unlocking ``else`` synthesized
* else-if                -> same, over the chain: lock above its head, unlock
                            first in every arm up to and around the racy link
* while condition        -> lock above, unlock at body start, re-lock at
                            body end, unlock after the loop

Every inserted line carries a marker comment so patches are auditable
and re-running the engine on its own output is a no-op.  ``coalesce``
merges patches: one mutex declaration per variable, and an unlock
immediately followed by a lock of the same mutex (nothing but blank
space or comments between) cancels out, fusing adjacent critical
sections.  A patch whose synthesized braces or ``else`` would land where
another guard's patch inserts is left for a later round.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .cst import (
    ADDR_OF,
    BREAK_STMT,
    CALL_EXPR,
    COMPOUND_STMT,
    CONTINUE_STMT,
    EXPR_STMT,
    IF_STMT,
    MUTEX_DECL,
    RETURN_STMT,
    ROLE_ELSE_IF_CONDITION,
    ROLE_IF_CONDITION,
    ROLE_PLAIN,
    ROLE_WHILE_CONDITION,
    VAR_DECL,
    WHILE_STMT,
    CstNode,
    StatementHandle,
    TextEdit,
    chain_head,
)

MUTEX_PREFIX = "__rf_mutex_"
LOCK_MARKER = "// lock added by RaceFixer"
UNLOCK_MARKER = "// unlock added by RaceFixer"

TEMPLATE_PLAIN = "PlainStatement"
TEMPLATE_IF_WITH_ELSE = "IfWithElse"
TEMPLATE_IF_WITHOUT_ELSE = "IfWithoutElse"
TEMPLATE_ELSE_IF = "ElseIfChain"
TEMPLATE_WHILE = "WhileCondition"


class UnknownVariable(Exception):
    """The racy variable has no global declaration in this file."""


class UnsupportedControlFlow(Exception):
    """The template would leave the lock state wrong on some path."""


class MutexPlan(namedtuple("MutexPlan", "mutex_name decl_insertion")):
    """`decl_insertion` is None when the file already declares the mutex."""

    __slots__ = ()

    @property
    def lock_call(self) -> str:
        return f"pthread_mutex_lock(&{self.mutex_name});"

    @property
    def unlock_call(self) -> str:
        return f"pthread_mutex_unlock(&{self.mutex_name});"


class Patch:
    """A template's edits to one statement; `moved` holds the braced
    branches that move in."""

    __slots__ = ("template", "mutex", "edits", "moved")

    def __init__(self, template: str, mutex: MutexPlan):
        self.template = template
        self.mutex = mutex
        self.edits: list[TextEdit] = []
        self.moved: list[tuple[int, int]] = []

    @property
    def empty(self) -> bool:
        return not self.edits


class CoalesceResult(namedtuple("CoalesceResult", "patches deferred edits")):
    """The accepted patches, the (patch, reason) pairs deferred, and the
    edits of the accepted ones."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Layout helpers
# ---------------------------------------------------------------------------

# The end of a line's indentation, for each line after the first that holds more.
_INNER_LINE_RE = re.compile(r"\n[ \t]*(?=[^ \t\r\n])")
# A line break that something follows.
_LINE_BREAK_RE = re.compile(r"\n(?=[^\n])")


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


def _shift(edit: TextEdit, text: str, indent: str) -> TextEdit:
    """`edit` with `indent` added to each line it starts: an edit inside a
    branch that moves in by `indent` moves in with it."""
    if not edit.replacement:
        return edit
    lead = indent if text[edit.start - 1] == "\n" else ""
    return edit._replace(replacement=lead + _LINE_BREAK_RE.sub("\n" + indent, edit.replacement))


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


def _refuse_escape(node: CstNode, where: str, consequence: str) -> None:
    """Raise UnsupportedControlFlow if a control-flow escape sits inside `node`."""
    for sub in node.walk():
        if sub.kind in _ESCAPES:
            raise UnsupportedControlFlow(f"{where} contains '{_ESCAPES[sub.kind]}'; {consequence}")


# ---------------------------------------------------------------------------
# Mutex planning
# ---------------------------------------------------------------------------


def plan_mutex(variable: str, tree: CstNode) -> MutexPlan:
    """Plan the guard for `variable`: one declaration per file, ever."""
    mutex_name = MUTEX_PREFIX + variable
    decl = None
    for child in tree.child_nodes():
        if child.kind == MUTEX_DECL and child.name == mutex_name:
            return MutexPlan(mutex_name, None)
        if child.kind == VAR_DECL and child.name == variable:
            decl = child
    if decl is None:
        raise UnknownVariable(f"no global declaration of '{variable}'")

    text = tree.text
    newline = text.find("\n", decl.span.end_offset)
    line = f"pthread_mutex_t {mutex_name} = PTHREAD_MUTEX_INITIALIZER;"
    if newline < 0:
        edit = TextEdit(len(text), f"\n{line}\n", kind="decl", mutex=mutex_name)
    else:
        edit = TextEdit(newline + 1, f"{line}\n", kind="decl", mutex=mutex_name)
    return MutexPlan(mutex_name, edit)


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
    return TextEdit(pos, block, kind="lock", mutex=plan.mutex_name,
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
    return TextEdit(pos, block, kind="unlock", mutex=plan.mutex_name,
                    anchor=end, order_col=order_col)


def _branch_entry_unlock(patch: Patch, text: str, branch: CstNode, anchor_ind: str,
                         unit: str, order_col: int) -> None:
    """Unlock as the first statement of a branch, bracing it if needed.

    A braced branch whose first statement shares the ``{`` line gets that
    statement onto a line of its own after the unlock.  An unbraced branch
    that shares its first line with the ``if``, ``else`` or ``while``
    moves to its own line inside the new block, so each of its other
    lines moves one level in; `coalesce` moves the edits other patches
    make inside it along with it.
    """
    plan = patch.mutex
    body_ind = anchor_ind + unit
    if branch.kind == COMPOUND_STMT:
        pos = branch.lbrace.end
        block = f"\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{plan.unlock_call}"
        if branch.statements and "\n" not in text[pos : branch.statements[0].span.start_offset]:
            block += f"\n{body_ind}"
        patch.edits.append(TextEdit(pos, block, kind="unlock", mutex=plan.mutex_name,
                                    anchor=pos, order_col=order_col))
        return
    start, end = branch.span.start_offset, branch.span.end_offset
    open_block = f"{{\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{plan.unlock_call}\n{body_ind}"
    patch.edits.append(TextEdit(start, open_block, kind="brace_unlock",
                                mutex=plan.mutex_name, anchor=start, order_col=order_col))
    if not _starts_its_line(text, start):
        patch.edits.extend(TextEdit(m.end(), unit, kind="indent")
                           for m in _INNER_LINE_RE.finditer(text, start, end))
        patch.moved.append((start, end))
    patch.edits.append(TextEdit(end, f"\n{anchor_ind}}}", kind="brace", anchor=end,
                                order_col=order_col))


def _refold_close(patch: Patch, before: str, after: str, kind: str, col: int) -> None:
    """Replace the closing brace that _branch_entry_unlock just gave an
    unbraced branch by one insertion of `kind`: `before`, the brace, `after`."""
    close = patch.edits.pop()
    assert close.kind == "brace"
    patch.edits.append(TextEdit(close.start, before + close.replacement + after,
                                kind=kind, mutex=patch.mutex.mutex_name,
                                anchor=close.start, order_col=col))


def _unlock_both_arms(patch: Patch, text: str, ifnode: CstNode, ind: str, unit: str,
                      col: int) -> None:
    """Unlock first in both branches of `ifnode`; without an else, append
    one whose only job is to release the lock."""
    mutex = patch.mutex
    _branch_entry_unlock(patch, text, ifnode.then, ind, unit, col)
    if ifnode.els is not None:
        _branch_entry_unlock(patch, text, ifnode.els, ind, unit, col)
        return
    body_ind = ind + unit
    synth = f" else {{\n{body_ind}{UNLOCK_MARKER}\n{body_ind}{mutex.unlock_call}\n{ind}}}"
    if ifnode.then.kind == COMPOUND_STMT:
        pos = ifnode.then.rbrace.end
        patch.edits.append(TextEdit(pos, synth, kind="else_synth",
                                    mutex=mutex.mutex_name, anchor=pos, order_col=col))
    else:
        _refold_close(patch, "", synth, "else_synth", col)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def patch_for(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """The template patch for a located statement, chosen by its role.
    Templates are looked up at call time, so wrappers installed on them apply."""
    role = handle.role
    if role == ROLE_PLAIN:
        return fix_plain(handle, mutex)
    if role == ROLE_IF_CONDITION:
        if handle.node.els is not None:
            return fix_if_with_else(handle, mutex)
        return fix_if_without_else(handle, mutex)
    if role == ROLE_ELSE_IF_CONDITION:
        return fix_else_if(handle, mutex)
    if role == ROLE_WHILE_CONDITION:
        return fix_while(handle, mutex)
    raise AssertionError(f"unhandled role {role}")


def _begin(handle: StatementHandle, mutex: MutexPlan, template: str, stmt: CstNode):
    """The patch of a template that reshapes `stmt`, and the layout its edits
    need: (text, indent unit, indent of `stmt`, ordering column).  The layout
    is None, and the patch stays without edits, when `stmt` is already wrapped."""
    patch = Patch(template, mutex)
    if _already_wrapped(stmt, mutex):
        return patch, None
    text = stmt.root().text
    return patch, (text, indent_unit(text), _line_indent(text, stmt.span.start_offset),
                   handle.identifier.span.start.column)


def fix_plain(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock/unlock wrapped around one statement."""
    stmt = handle.node
    _refuse_escape(stmt, "statement", "an unlock after it would be skipped")
    patch, layout = _begin(handle, mutex, TEMPLATE_PLAIN, stmt)
    if layout is None:
        return patch
    text, _, _, col = layout
    patch.edits.append(_lock_before(text, stmt, mutex, col))
    patch.edits.append(_unlock_after(text, stmt, mutex, col))
    return patch


def _fix_if(handle: StatementHandle, mutex: MutexPlan, template: str, head: CstNode) -> Patch:
    """Lock above `head`, the first ``if`` of the chain that ends at the
    racy one; unlock first in the then branch of every link before it,
    and in both branches of the racy one."""
    racy = handle.node
    patch, layout = _begin(handle, mutex, template, head)
    if layout is None:
        return patch
    text, unit, ind, col = layout
    patch.edits.append(_lock_before(text, head, mutex, col))
    link = head
    while link is not racy:
        _branch_entry_unlock(patch, text, link.then, ind, unit, col)
        link = link.els
    _unlock_both_arms(patch, text, racy, ind, unit, col)
    return patch


def fix_if_with_else(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock above the if; unlock first inside both existing branches."""
    assert handle.node.els is not None
    return _fix_if(handle, mutex, TEMPLATE_IF_WITH_ELSE, handle.node)


def fix_if_without_else(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock above the if; unlock in the then branch and a synthesized else."""
    assert handle.node.els is None
    return _fix_if(handle, mutex, TEMPLATE_IF_WITHOUT_ELSE, handle.node)


def fix_else_if(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """Lock above the chain's head; every condition up to the racy one is
    read under the guard, and every path out of them releases it.  The
    chain keeps its shape, so the program keeps its behaviour."""
    return _fix_if(handle, mutex, TEMPLATE_ELSE_IF, chain_head(handle.node))


def fix_while(handle: StatementHandle, mutex: MutexPlan) -> Patch:
    """The four-insertion loop template.

    Lock above the loop, unlock at the top of the body, lock again at
    the bottom of the body, unlock after the loop: the guard is held
    exactly while the condition is evaluated.
    """
    w = handle.node
    _refuse_escape(w.body, "loop body", "the lock state would not balance")
    patch, layout = _begin(handle, mutex, TEMPLATE_WHILE, w)
    if layout is None:
        return patch
    text, unit, ind, col = layout
    body_ind = ind + unit
    relock = f"{body_ind}{LOCK_MARKER}\n{body_ind}{mutex.lock_call}"

    patch.edits.append(_lock_before(text, w, mutex, col))
    _branch_entry_unlock(patch, text, w.body, ind, unit, col)
    if w.body.kind != COMPOUND_STMT:
        # relock and the unlock after the loop share the new closing brace's offset
        _refold_close(patch, f"\n{relock}", f"\n{ind}{UNLOCK_MARKER}\n{ind}{mutex.unlock_call}",
                      "brace_lock_unlock", col)
        return patch
    rb = w.body.rbrace
    if _starts_its_line(text, rb.offset):
        pos, block = _line_start(text, rb.offset), f"{relock}\n"
    else:
        pos, block = rb.offset, f"\n{relock}\n{ind}"
    patch.edits.append(TextEdit(pos, block, kind="lock", mutex=mutex.mutex_name,
                                anchor=rb.offset, order_col=col))
    patch.edits.append(_unlock_after(text, w, mutex, col))
    return patch


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

# Edits that synthesize new structure (braces, else arms); two of these
# from different patches cannot stack at one offset.
_SYNTH_KINDS = frozenset({"else_synth", "brace_lock_unlock"})


def _blank_or_comments(segment: str) -> bool:
    return _COMMENT_RE.sub("", segment).strip() == ""


def _patches_conflict(a: Patch, b: Patch) -> bool:
    """True when the two patches cannot compose into valid syntax:
    structure-synthesizing edits from two patches cannot land on the
    same offset."""
    if a.mutex.mutex_name == b.mutex.mutex_name:
        return False  # same guard: planner groups these, edits compose
    synth_a = {e.start for e in a.edits if e.kind in _SYNTH_KINDS}
    synth_b = {e.start for e in b.edits if e.kind in _SYNTH_KINDS}
    return any(e.start in synth_b for e in a.edits) or any(
        e.start in synth_a for e in b.edits
    )


def coalesce(patches: list[Patch], text: str) -> CoalesceResult:
    """Combine patches: shared declarations, merged critical sections.

    A patch whose synthesized structure lands where an earlier patch
    edits is deferred (the later race needs another round), and an unlock
    insertion immediately followed by a lock insertion of the same mutex
    cancels out.  The returned edit list is ordered; at equal offsets,
    locks whose access appears first in the statement come first.
    """
    accepted: list[Patch] = []
    deferred: list[tuple[Patch, str]] = []
    for patch in patches:
        if patch.empty:
            continue
        if any(_patches_conflict(patch, earlier) for earlier in accepted):
            deferred.append((patch, "conflicts with an earlier patch"))
        else:
            accepted.append(patch)

    decls: dict[str, TextEdit] = {}
    for patch in accepted:
        plan = patch.mutex
        if plan.decl_insertion is not None:
            decls.setdefault(plan.mutex_name, plan.decl_insertion)

    # An edit inside a branch that another patch braces moves in with it.
    unit = indent_unit(text)
    moved = [(patch, start, end) for patch in accepted for start, end in patch.moved]
    edits = list(decls.values())
    for patch in accepted:
        for edit in patch.edits:
            levels = sum(start < edit.start <= end for owner, start, end in moved
                         if owner is not patch)
            edits.append(_shift(edit, text, unit * levels) if levels else edit)
    edits.sort(key=lambda e: (e.start, e.sort_anchor, e.order_col))

    # Cancel unlock/lock pairs with nothing but whitespace or comments
    # between them; repeat until no adjacent pair remains.  The indents of
    # moved lines between them do not count.
    indents = [e for e in edits if e.kind == "indent"]
    edits = [e for e in edits if e.kind != "indent"]
    changed = True
    while changed:
        changed = False
        for i in range(len(edits) - 1):
            a, b = edits[i], edits[i + 1]
            if (
                a.kind == "unlock"
                and b.kind == "lock"
                and a.mutex == b.mutex
                and _blank_or_comments(text[a.start : b.start])
            ):
                del edits[i + 1]
                del edits[i]
                changed = True
                break
    edits = sorted(edits + indents, key=lambda e: (e.start, e.sort_anchor, e.order_col))

    return CoalesceResult(accepted, deferred, edits)
