"""A static check of a patched tree's lock balance.

Walks every path of every function and reports a mutex locked twice on
one path, unlocked while not held, or still held at a function's end.
The fix loop does not use it; the tests run it on template output and
on fixed programs.
"""

from racefixer.cst import (
    ADDR_OF,
    CALL_EXPR,
    COMPOUND_STMT,
    EXPR_STMT,
    FUNC_DEF,
    IF_STMT,
    WHILE_STMT,
    CstNode,
)


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
