"""Mutex planning, the five templates (golden files), and coalescing."""

import pytest

from racefixer import explore, parse_source
from racefixer.cst import apply_edits, emit, locate
from racefixer.reports import SourceCoord
from racefixer.transform import (
    LOCK_MARKER,
    UNLOCK_MARKER,
    UnknownVariable,
    UnsupportedControlFlow,
    coalesce,
    fix_else_if,
    fix_if_with_else,
    fix_if_without_else,
    fix_plain,
    fix_while,
    plan_mutex,
)

from conftest import corpus
from lock_balance import check_lock_balance


def normalized(text: str, variable: str) -> list[str]:
    """Strip indentation/blank lines and canonicalize the lock spelling.

    Golden comparisons treat `pthread_mutex_lock(&__rf_mutex_X);` and the
    shorthand `lock(mutex);` as the same call, and ignore whitespace.
    """
    text = text.replace(f"pthread_mutex_lock(&__rf_mutex_{variable});", "lock(mutex);")
    text = text.replace(f"pthread_mutex_unlock(&__rf_mutex_{variable});", "unlock(mutex);")
    return [line.strip() for line in text.splitlines() if line.strip()]


def apply_fix(source: str, variable: str, coord: SourceCoord, fixer) -> str:
    tree = parse_source(source)
    handle = locate(tree, variable, coord)
    plan = plan_mutex(variable, tree)
    patch = fixer(handle, plan)
    edits = ([plan.decl_insertion] if plan.decl_insertion else []) + patch.edits
    return apply_edits(source, edits)


class TestPlanMutex:
    def test_declaration_inserted_after_variable(self):
        source = corpus("race_plain.c")
        tree = parse_source(source)
        plan = plan_mutex("Global", tree)
        assert plan.mutex_name == "__rf_mutex_Global"
        assert plan.decl_insertion is not None
        patched = apply_edits(source, [plan.decl_insertion])
        lines = patched.splitlines()
        assert lines[0] == "int Global;"
        assert lines[1] == "pthread_mutex_t __rf_mutex_Global = PTHREAD_MUTEX_INITIALIZER;"

    def test_second_call_sees_existing_declaration(self):
        source = corpus("race_plain.c")
        tree = parse_source(source)
        patched = apply_edits(source, [plan_mutex("Global", tree).decl_insertion])
        plan = plan_mutex("Global", parse_source(patched))
        assert plan.decl_insertion is None

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            plan_mutex("missing", parse_source("int x;\nint main() { return 0; }\n"))

    def test_declaration_at_end_of_file_without_newline(self):
        tree = parse_source("int g;")
        plan = plan_mutex("g", tree)
        patched = apply_edits("int g;", [plan.decl_insertion])
        assert parse_source(patched)  # still a valid unit
        assert "pthread_mutex_t __rf_mutex_g" in patched


class TestFixPlain:
    def test_lock_above_unlock_below(self):
        source = corpus("race_plain.c")
        patched = apply_fix(source, "Global", SourceCoord(4, 5), fix_plain)
        lines = normalized(patched, "Global")
        i = lines.index("Global = 42;")
        assert lines[i - 2 : i + 3] == [
            LOCK_MARKER,
            "lock(mutex);",
            "Global = 42;",
            UNLOCK_MARKER,
            "unlock(mutex);",
        ]

    def test_already_wrapped_statement_gives_empty_patch(self):
        source = corpus("race_plain.c")
        patched = apply_fix(source, "Global", SourceCoord(4, 5), fix_plain)
        tree = parse_source(patched)
        handle = locate(tree, "Global", SourceCoord(7, 5))  # shifted by the wrap
        plan = plan_mutex("Global", tree)
        again = fix_plain(handle, plan)
        assert again.empty

    def test_return_statement_rejected(self):
        tree = parse_source(corpus("return_race.c"))
        handle = locate(tree, "State", SourceCoord(4, 12))
        plan = plan_mutex("State", tree)
        with pytest.raises(UnsupportedControlFlow):
            fix_plain(handle, plan)


GOLDEN_IF_WITH_ELSE_INPUT = """int RACE;
int other;

void *Thread1(void *x) {
    if (RACE) {
        other = 1;
    } else {
        other = 2;
    }
    return 0;
}
"""

GOLDEN_IF_WITH_ELSE_EXPECTED = """int RACE;
pthread_mutex_t __rf_mutex_RACE = PTHREAD_MUTEX_INITIALIZER;
int other;
void *Thread1(void *x) {
// lock added by RaceFixer
lock(mutex);
if (RACE) {
// unlock added by RaceFixer
unlock(mutex);
other = 1;
} else {
// unlock added by RaceFixer
unlock(mutex);
other = 2;
}
return 0;
}
"""

GOLDEN_IF_WITHOUT_ELSE_INPUT = """int RACE;
int other;

void *Thread1(void *x) {
    if (RACE) {
        other = 1;
    }
    return 0;
}
"""

GOLDEN_IF_WITHOUT_ELSE_EXPECTED = """int RACE;
pthread_mutex_t __rf_mutex_RACE = PTHREAD_MUTEX_INITIALIZER;
int other;
void *Thread1(void *x) {
// lock added by RaceFixer
lock(mutex);
if (RACE) {
// unlock added by RaceFixer
unlock(mutex);
other = 1;
} else {
// unlock added by RaceFixer
unlock(mutex);
}
return 0;
}
"""

GOLDEN_ELSE_IF_INPUT = """int RACE;
int other;

void *Thread1(void *x) {
    if (other > 10) {
        other = 0;
    } else if (RACE) {
        other = 1;
    }
    return 0;
}
"""

GOLDEN_ELSE_IF_EXPECTED = """int RACE;
pthread_mutex_t __rf_mutex_RACE = PTHREAD_MUTEX_INITIALIZER;
int other;
void *Thread1(void *x) {
// lock added by RaceFixer
lock(mutex);
if (other > 10) {
// unlock added by RaceFixer
unlock(mutex);
other = 0;
} else if (RACE) {
// unlock added by RaceFixer
unlock(mutex);
other = 1;
} else {
// unlock added by RaceFixer
unlock(mutex);
}
return 0;
}
"""

GOLDEN_WHILE_INPUT = """int RACE;
int other;

void *Thread1(void *x) {
    while (RACE) {
        other = other + 1;
    }
    return 0;
}
"""

GOLDEN_WHILE_EXPECTED = """int RACE;
pthread_mutex_t __rf_mutex_RACE = PTHREAD_MUTEX_INITIALIZER;
int other;
void *Thread1(void *x) {
// lock added by RaceFixer
lock(mutex);
while (RACE) {
// unlock added by RaceFixer
unlock(mutex);
other = other + 1;
// lock added by RaceFixer
lock(mutex);
}
// unlock added by RaceFixer
unlock(mutex);
return 0;
}
"""


class TestGoldenTemplates:
    def test_if_with_else(self):
        patched = apply_fix(GOLDEN_IF_WITH_ELSE_INPUT, "RACE",
                            SourceCoord(5, 9), fix_if_with_else)
        assert normalized(patched, "RACE") == normalized(GOLDEN_IF_WITH_ELSE_EXPECTED, "RACE")

    def test_if_without_else(self):
        patched = apply_fix(GOLDEN_IF_WITHOUT_ELSE_INPUT, "RACE",
                            SourceCoord(5, 9), fix_if_without_else)
        assert normalized(patched, "RACE") == normalized(GOLDEN_IF_WITHOUT_ELSE_EXPECTED, "RACE")

    def test_else_if(self):
        patched = apply_fix(GOLDEN_ELSE_IF_INPUT, "RACE",
                            SourceCoord(7, 16), fix_else_if)
        assert normalized(patched, "RACE") == normalized(GOLDEN_ELSE_IF_EXPECTED, "RACE")

    def test_while(self):
        patched = apply_fix(GOLDEN_WHILE_INPUT, "RACE",
                            SourceCoord(5, 12), fix_while)
        assert normalized(patched, "RACE") == normalized(GOLDEN_WHILE_EXPECTED, "RACE")

    @pytest.mark.parametrize("source,coord,fixer", [
        (GOLDEN_IF_WITH_ELSE_INPUT, SourceCoord(5, 9), fix_if_with_else),
        (GOLDEN_IF_WITHOUT_ELSE_INPUT, SourceCoord(5, 9), fix_if_without_else),
        (GOLDEN_ELSE_IF_INPUT, SourceCoord(7, 16), fix_else_if),
        (GOLDEN_WHILE_INPUT, SourceCoord(5, 12), fix_while),
    ], ids=["if_else", "if_no_else", "else_if", "while"])
    def test_patched_output_reparses_and_balances(self, source, coord, fixer):
        patched = apply_fix(source, "RACE", coord, fixer)
        tree = parse_source(patched)
        assert emit(tree) == patched
        assert check_lock_balance(tree) == []


class TestIfTemplateEdges:
    def test_unbraced_then_gets_braces_and_synthesized_else(self):
        source = (
            "int RACE;\n\nvoid *Thread1(void *x) {\n"
            "    if (RACE) RACE = 1;\n    return 0;\n}\n"
        )
        patched = apply_fix(source, "RACE", SourceCoord(4, 9), fix_if_without_else)
        tree = parse_source(patched)
        assert check_lock_balance(tree) == []
        fn = tree.child_nodes()[-1]
        if_stmt = next(n for n in fn.walk() if n.kind == "IfStmt")
        assert if_stmt.then.kind == "CompoundStmt"
        assert if_stmt.els is not None and if_stmt.els.kind == "CompoundStmt"

    def test_nested_if_untouched_by_outer_fix(self):
        source = (
            "int RACE;\nint y;\n\nvoid *Thread1(void *x) {\n"
            "    if (RACE) {\n"
            "        if (y) {\n"
            "            y = 1;\n"
            "        }\n"
            "    }\n"
            "    return 0;\n}\n"
        )
        inner = "        if (y) {\n            y = 1;\n        }\n"
        patched = apply_fix(source, "RACE", SourceCoord(5, 9), fix_if_without_else)
        assert inner in patched


class TestElseIfEdges:
    def test_three_deep_chain_guarded_from_its_head(self):
        source = (
            "int RACE;\nint k;\n\nvoid *Thread1(void *x) {\n"
            "    if (k == 1) {\n"
            "        k = 10;\n"
            "    } else if (k == 2) {\n"
            "        k = 20;\n"
            "    } else if (RACE) {\n"
            "        k = 30;\n"
            "    }\n"
            "    return 0;\n}\n"
        )
        patched = apply_fix(source, "RACE", SourceCoord(9, 16), fix_else_if)
        tree = parse_source(patched)
        assert check_lock_balance(tree) == []
        # the chain keeps its shape: one statement, locked above its head
        fn = tree.child_nodes()[-1]
        assert [s.kind for s in fn.body.statements] == ["ExprStmt", "IfStmt", "ReturnStmt"]
        assert "    pthread_mutex_lock(&__rf_mutex_RACE);\n    if (k == 1) {\n" in patched
        # every arm releases the guard first, the synthesized else included
        unlock = "        pthread_mutex_unlock(&__rf_mutex_RACE);\n"
        for arm in ("if (k == 1) {", "} else if (k == 2) {", "} else if (RACE) {", "} else {"):
            assert f"{arm}\n        {UNLOCK_MARKER}\n{unlock}" in patched

    def test_own_else_stays_attached(self):
        source = (
            "int RACE;\nint k;\n\nvoid *Thread1(void *x) {\n"
            "    if (k == 1) {\n"
            "        k = 10;\n"
            "    } else if (RACE) {\n"
            "        k = 20;\n"
            "    } else {\n"
            "        k = 30;\n"
            "    }\n"
            "    return 0;\n}\n"
        )
        patched = apply_fix(source, "RACE", SourceCoord(7, 16), fix_else_if)
        tree = parse_source(patched)
        assert check_lock_balance(tree) == []
        fn = tree.child_nodes()[-1]
        (head,) = [s for s in fn.body.statements if s.kind == "IfStmt"]
        racy = head.els
        assert racy.kind == "IfStmt" and racy.els is not None
        assert "k = 30;" in emit(racy.els)
        assert racy.els.statements[0].expr.callee.name == "pthread_mutex_unlock"


class TestWhileEdges:
    def test_unbraced_body_gets_braces(self):
        source = (
            "int RACE;\n\nvoid *Thread1(void *x) {\n"
            "    while (RACE) RACE = RACE - 1;\n    return 0;\n}\n"
        )
        patched = apply_fix(source, "RACE", SourceCoord(4, 12), fix_while)
        tree = parse_source(patched)
        assert check_lock_balance(tree) == []
        fn = tree.child_nodes()[-1]
        loop = next(n for n in fn.walk() if n.kind == "WhileStmt")
        assert loop.body.kind == "CompoundStmt"
        lines = normalized(patched, "RACE")
        assert lines.count("lock(mutex);") == 2
        assert lines.count("unlock(mutex);") == 2

    def test_break_in_body_rejected(self):
        source = (
            "int RACE;\n\nvoid *Thread1(void *x) {\n"
            "    while (RACE) {\n        break;\n    }\n    return 0;\n}\n"
        )
        tree = parse_source(source)
        handle = locate(tree, "RACE", SourceCoord(4, 12))
        with pytest.raises(UnsupportedControlFlow):
            fix_while(handle, plan_mutex("RACE", tree))

    def test_return_in_body_rejected(self):
        source = (
            "int RACE;\n\nvoid *Thread1(void *x) {\n"
            "    while (RACE) {\n        return 0;\n    }\n    return 0;\n}\n"
        )
        tree = parse_source(source)
        handle = locate(tree, "RACE", SourceCoord(4, 12))
        with pytest.raises(UnsupportedControlFlow):
            fix_while(handle, plan_mutex("RACE", tree))


class TestCoalesce:
    def _plain_patches(self, source, variable, coords):
        tree = parse_source(source)
        plan = plan_mutex(variable, tree)
        patches = []
        for coord in coords:
            handle = locate(tree, variable, coord)
            patches.append(fix_plain(handle, plan))
        return patches, plan

    def test_adjacent_sections_merge(self):
        source = corpus("adjacent_merge.c")
        patches, _ = self._plain_patches(
            source, "Sum",
            [SourceCoord(4, 5), SourceCoord(5, 5), SourceCoord(12, 5)],
        )
        result = coalesce(patches, source)
        patched = apply_edits(source, result.edits)
        lines = normalized(patched, "Sum")
        # in the worker: one lock before the first statement, one unlock
        # after the second; main keeps its own separate section
        assert lines.count("lock(mutex);") == 2
        assert lines.count("unlock(mutex);") == 2
        i = lines.index("lock(mutex);")
        assert lines[i + 1 : i + 4] == ["Sum = Sum + 1;", "Sum = Sum + 2;", UNLOCK_MARKER]
        # merged region still race-free when explored
        verdict = explore(parse_source(patched))
        assert not [r for r in verdict.hb_races if r.variable == "Sum"]

    def test_singleton_unchanged(self):
        source = corpus("race_plain.c")
        patches, plan = self._plain_patches(source, "Global", [SourceCoord(4, 5)])
        result = coalesce(patches, source)
        assert len(result.patches) == 1
        assert len(result.edits) == len(patches[0].edits) + 1  # + declaration

    def test_two_variables_two_mutexes_no_merge(self):
        source = corpus("race_two_vars.c")
        tree = parse_source(source)
        patches = []
        for var, coord in [("X", SourceCoord(5, 5)), ("Y", SourceCoord(6, 5))]:
            handle = locate(tree, var, coord)
            patches.append(fix_plain(handle, plan_mutex(var, tree)))
        result = coalesce(patches, source)
        patched = apply_edits(source, result.edits)
        assert patched.count("pthread_mutex_t __rf_mutex_X") == 1
        assert patched.count("pthread_mutex_t __rf_mutex_Y") == 1
        assert patched.count("pthread_mutex_lock(&__rf_mutex_X);") == 1
        assert patched.count("pthread_mutex_lock(&__rf_mutex_Y);") == 1

    def test_edits_in_a_braced_branch_move_in_with_it(self):
        # the inner if shares the outer if's line, so bracing moves it and its
        # body one level in, the merged Count section included; the while
        # body already starts its own line, so it and its Count lock stay
        source = (
            "int Flag;\nint Count;\n\nvoid *Worker(void *x) {\n"
            "    if (Flag) if (Count) {\n"
            "        Count = 0;\n"
            "        // reset\n"
            "        Count = 2;\n"
            "    }\n"
            "    while (Flag)\n"
            "        if (Count) {\n"
            "            Count = 1;\n"
            "        }\n"
            "    return 0;\n}\n"
        )
        tree = parse_source(source)
        patches = [fixer(locate(tree, var, coord), plan_mutex(var, tree))
                   for var, coord, fixer in [("Flag", SourceCoord(5, 9), fix_if_without_else),
                                             ("Count", SourceCoord(6, 9), fix_plain),
                                             ("Count", SourceCoord(8, 9), fix_plain),
                                             ("Flag", SourceCoord(10, 12), fix_while),
                                             ("Count", SourceCoord(12, 13), fix_plain)]]
        result = coalesce(patches, source)
        assert len(result.patches) == 5
        patched = apply_edits(source, result.edits)
        assert check_lock_balance(parse_source(patched)) == []
        assert patched.split("    if (Flag) {\n")[1].split("    } else {\n")[0] == (
            "        // unlock added by RaceFixer\n"
            "        pthread_mutex_unlock(&__rf_mutex_Flag);\n"
            "        if (Count) {\n"
            "            // lock added by RaceFixer\n"
            "            pthread_mutex_lock(&__rf_mutex_Count);\n"
            "            Count = 0;\n"
            "            // reset\n"
            "            Count = 2;\n"
            "            // unlock added by RaceFixer\n"
            "            pthread_mutex_unlock(&__rf_mutex_Count);\n"
            "        }\n"
        )
        assert (
            "        if (Count) {\n"
            "            // lock added by RaceFixer\n"
            "            pthread_mutex_lock(&__rf_mutex_Count);\n"
            "            Count = 1;\n"
            "            // unlock added by RaceFixer\n"
            "            pthread_mutex_unlock(&__rf_mutex_Count);\n"
            "        }\n"
        ) in patched

    def test_one_declaration_per_variable(self):
        source = corpus("adjacent_merge.c")
        patches, _ = self._plain_patches(source, "Sum",
                                         [SourceCoord(4, 5), SourceCoord(5, 5)])
        result = coalesce(patches, source)
        patched = apply_edits(source, result.edits)
        assert patched.count("pthread_mutex_t __rf_mutex_Sum") == 1


class TestLockBalance:
    def test_clean_program_balances(self):
        assert check_lock_balance(parse_source(corpus("clean_locked.c"))) == []

    def test_leaked_lock_detected(self):
        source = (
            "pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;\n"
            "int main() {\n    pthread_mutex_lock(&M);\n    return 0;\n}\n"
        )
        problems = check_lock_balance(parse_source(source))
        assert any("still held" in p for p in problems)

    def test_unlock_without_lock_detected(self):
        problems = check_lock_balance(parse_source(corpus("unlock_unheld.c")))
        assert any("not held" in p for p in problems)

    def test_branch_dependent_imbalance_detected(self):
        source = (
            "pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;\nint c;\n"
            "int main() {\n"
            "    if (c) {\n        pthread_mutex_lock(&M);\n    }\n"
            "    pthread_mutex_unlock(&M);\n"
            "    return 0;\n}\n"
        )
        problems = check_lock_balance(parse_source(source))
        assert problems  # the no-lock path unlocks a mutex it never took


def test_engine_is_idempotent_on_its_own_output():
    # run every template on its input, then re-run the engine on the
    # patched text the way the driver would: zero edits the second time
    cases = [
        (GOLDEN_IF_WITH_ELSE_INPUT, SourceCoord(5, 9), fix_if_with_else, "IfStmt"),
        (GOLDEN_IF_WITHOUT_ELSE_INPUT, SourceCoord(5, 9), fix_if_without_else, "IfStmt"),
        (GOLDEN_WHILE_INPUT, SourceCoord(5, 12), fix_while, "WhileStmt"),
    ]
    for source, coord, fixer, kind in cases:
        patched = apply_fix(source, "RACE", coord, fixer)
        tree = parse_source(patched)
        plan = plan_mutex("RACE", tree)
        assert plan.decl_insertion is None
        fn = tree.child_nodes()[-1]
        node = next(n for n in fn.walk() if n.kind == kind)
        ident = next(n for n in node.cond.walk() if n.kind == "Identifier")
        handle = locate(tree, "RACE", ident.span.start)
        if kind == "WhileStmt":
            again = fix_while(handle, plan)
        elif handle.node.els is not None:  # a synthesized else is an else
            again = fix_if_with_else(handle, plan)
        else:
            again = fix_if_without_else(handle, plan)
        assert again.empty, f"{fixer.__name__} re-patched its own output"


def test_locality_bytes_outside_edits_unchanged():
    # cutting every inserted replacement back out of the patched text
    # reproduces the original exactly (all plain-fix edits are insertions)
    source = corpus("race_plain.c")
    tree = parse_source(source)
    handle = locate(tree, "Global", SourceCoord(4, 5))
    plan = plan_mutex("Global", tree)
    patch = fix_plain(handle, plan)
    edits = sorted([plan.decl_insertion] + patch.edits, key=lambda e: e.start)
    patched = apply_edits(source, edits)
    reconstructed = patched
    for edit in edits:
        # offsets stay original because earlier insertions are already cut
        pos = edit.start
        assert reconstructed[pos : pos + len(edit.replacement)] == edit.replacement
        reconstructed = reconstructed[:pos] + reconstructed[pos + len(edit.replacement):]
    assert reconstructed == source
