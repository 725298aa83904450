"""Happens-before edges, analyses, exploration, deadlocks, and the log round trip."""

import math

import pytest

from racefixer import FixConfig, UnsupportedConstruct, explore, parse_report, parse_source, run
from racefixer.detector import (
    _site,
    build_model,
    hb_check,
    hybrid_verdict,
    lockset_check,
    render_tsan_log,
    replay,
)
from racefixer.reports import SourceCoord, format_summary

from conftest import corpus, within_seconds
from oracle import all_races


def access(kind="write", thread=0, clock=(), locks=(), line=1, column=1, function="main"):
    return (thread, tuple(clock), frozenset(locks),
            _site(kind, (line, column), function, 0))


def hb_pairs(verdict) -> set:
    """The happens-before races of `verdict` in the oracle's shape."""
    return {
        (r.variable, tuple(sorted([r.current.coord, r.previous.coord])))
        for r in verdict.hb_races
    }


def checked_hb_pairs(source: str) -> set:
    """The races `explore` finds in `source`, once they are checked equal
    to the clock-free oracle's under both reductions."""
    results = []
    for reduction in ("dpor", "none"):
        verdict = explore(parse_source(source), record_traces=True, reduction=reduction)
        assert hb_pairs(verdict) == all_races(verdict.traces)
        results.append(hb_pairs(verdict))
    assert results[0] == results[1]
    return results[0]


def pair(variable, a, b) -> tuple:
    return (variable, (SourceCoord(*a), SourceCoord(*b)))


class TestHbEdges:
    """Each happens-before edge on its own, through the explorer."""

    def test_release_acquire_chain(self):
        # main writes H only after it acquired M from T's release and saw
        # T's later write of Z.  An unlock publishes the clock before it
        # ticks, so T's writes after its unlock still race.
        source = """\
int F;
int H;
int Z;
pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;
void *T(void *x) {
    pthread_mutex_lock(&M);
    F = 1;
    pthread_mutex_unlock(&M);
    H = 1;
    Z = 1;
    return 0;
}
int main() {
    pthread_t t;
    pthread_create(&t, 0, T, 0);
    pthread_mutex_lock(&M);
    int seen = F;
    pthread_mutex_unlock(&M);
    if (seen && Z) {
        H = 2;
    }
    pthread_join(t, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == {
            pair("H", (9, 5), (20, 9)),
            pair("Z", (10, 5), (19, 17)),
        }

    def test_create_hands_clock_to_child(self):
        # the second child sees main's write before its creation, not after
        source = """\
int G;
void *T(void *x) {
    G = 1;
    return 0;
}
void *U(void *x) {
    return 0;
}
int main() {
    pthread_t u;
    pthread_t t;
    pthread_create(&u, 0, U, 0);
    G = 2;
    pthread_create(&t, 0, T, 0);
    G = 3;
    pthread_join(t, 0);
    pthread_join(u, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == {pair("G", (3, 5), (15, 5))}

    def test_join_folds_child_history(self):
        # main's write before the join races with the child, the one after does not
        source = """\
int G;
void *T(void *x) {
    G = 1;
    return 0;
}
int main() {
    pthread_t t;
    pthread_create(&t, 0, T, 0);
    G = 2;
    pthread_join(t, 0);
    G = 3;
    return 0;
}
"""
        assert checked_hb_pairs(source) == {pair("G", (3, 5), (9, 5))}

    def test_main_write_before_first_create(self):
        # main's own clock component is still zero at its first write
        source = """\
int G;
void *T(void *x) {
    G = 1;
    return 0;
}
int main() {
    pthread_t t;
    G = 2;
    pthread_create(&t, 0, T, 0);
    pthread_join(t, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == set()


class TestBlockScoping:
    """A local is visible from its declaration to the end of its block."""

    def test_inner_local_ends_with_its_block(self):
        # after the block, G is the global again and races with main's write
        source = """\
int G;
void *T(void *x) {
    {
        int G = 0;
    }
    G = 1;
    return 0;
}
int main() {
    pthread_t t;
    pthread_create(&t, 0, T, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == {pair("G", (6, 5), (12, 5))}

    def test_inner_local_does_not_replace_outer_one(self):
        # x is the outer local again after the if, so T writes G
        source = """\
int G;
void *T(void *arg) {
    int x = 1;
    if (1) {
        int x = 2;
    }
    if (x == 1) {
        G = 1;
    }
    return 0;
}
int main() {
    pthread_t t;
    pthread_create(&t, 0, T, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == {pair("G", (8, 9), (15, 5))}

    def test_sibling_blocks_share_a_slot_not_a_value(self):
        # b takes a's slot, but its declaration sets it to zero
        source = """\
int G;
void *T(void *arg) {
    {
        int a = 5;
    }
    {
        int b;
        if (b == 0) {
            G = 1;
        }
    }
    return 0;
}
int main() {
    pthread_t t;
    pthread_create(&t, 0, T, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
"""
        assert checked_hb_pairs(source) == {pair("G", (9, 13), (17, 5))}


class TestHbCheck:
    def test_incomparable_writes_race(self):
        current = access(thread=0, clock=(1, 0))
        prior = access(thread=1, clock=(0, 1))
        assert hb_check(current, [prior]) == [prior]

    def test_ordered_writes_do_not_race(self):
        current = access(thread=0, clock=(2, 1))
        prior = access(thread=1, clock=(1, 1))
        assert hb_check(current, [prior]) == []

    def test_read_read_never_races(self):
        current = access(kind="read", thread=0, clock=(1, 0))
        prior = access(kind="read", thread=1, clock=(0, 1))
        assert hb_check(current, [prior]) == []


class TestLocksetCheck:
    def test_common_lock_keeps_quiet(self):
        first = access(locks={"m"}, thread=0, clock=(1, 0))
        state, races = lockset_check(first, None)
        assert races == []
        state, races = lockset_check(access(locks={"m"}, thread=1, clock=(0, 1)), state)
        assert races == []
        assert state[1] == frozenset({"m"})

    def test_emptied_candidate_set_flags(self):
        first = access(locks={"m"}, thread=0, clock=(1, 0))
        state, races = lockset_check(first, None)
        assert races == []
        state, races = lockset_check(access(locks=set(), thread=1, clock=(0, 1)), state)
        assert races == [first]
        assert state[1] == frozenset()

    def test_single_threaded_no_locks_flagged(self):
        verdict = explore(parse_source(corpus("lockset_single.c")))
        assert verdict.hb_races == ()
        assert len(verdict.lockset_races) >= 1


class TestHybridVerdict:
    def test_default_suppresses_lockset_only_to_advisory(self):
        verdict = explore(parse_source(corpus("lockset_single.c")))
        races, advisories = hybrid_verdict(
            verdict.hb_races, verdict.lockset_races, "hb"
        )
        assert len(races) == 0
        assert len(advisories) >= 1
        assert all(a.severity == "advisory" for a in advisories)

    def test_shared_race_reported_once(self):
        verdict = explore(parse_source(corpus("race_plain.c")))
        races, advisories = hybrid_verdict(
            verdict.hb_races, verdict.lockset_races, "hb"
        )
        assert len(races) == 1

    def test_union_mode(self):
        verdict = explore(parse_source(corpus("lockset_join.c")))
        hb_set, _ = hybrid_verdict(verdict.hb_races, verdict.lockset_races, "hb")
        ls_set, _ = hybrid_verdict(verdict.hb_races, verdict.lockset_races, "lockset")
        union, _ = hybrid_verdict(verdict.hb_races, verdict.lockset_races, "union")
        assert len(hb_set) == 0
        assert len(ls_set) >= 1
        assert len(union) == len(ls_set)


class TestExplore:
    def test_two_writes_race_detected(self):
        verdict = explore(parse_source(corpus("race_plain.c")))
        assert len(verdict.hb_races) == 1
        (race,) = verdict.hb_races
        coords = sorted([race.current.coord, race.previous.coord])
        assert coords == [SourceCoord(4, 5), SourceCoord(11, 5)]
        assert verdict.deadlocks == ()
        assert verdict.explored == 2  # both orders of the two writes

    def test_locked_version_is_clean(self):
        verdict = explore(parse_source(corpus("clean_locked.c")))
        assert verdict.hb_races == ()
        assert verdict.deadlocks == ()
        assert not verdict.truncated

    def test_classic_lock_order_deadlock_found(self):
        verdict = explore(parse_source(corpus("deadlock_user.c")))
        assert verdict.deadlocks
        deadlock = verdict.deadlocks[0]
        assert deadlock.involved_mutexes() == frozenset({"A", "B"})
        assert not deadlock.involves("__rf_mutex_")

    def test_deadlock_replayable_from_schedule_prefix(self):
        tree = parse_source(corpus("deadlock_user.c"))
        verdict = explore(tree)
        for deadlock in verdict.deadlocks:
            run = replay(tree, deadlock.schedule)
            assert run.deadlock is not None
            assert run.deadlock.threads == deadlock.threads

    @staticmethod
    def _disjoint_writers(k: int) -> str:
        body1 = "\n".join(f"    A = {i};" for i in range(k))
        body2 = "\n".join(f"    B = {i};" for i in range(k))
        return (
            "int A;\nint B;\n\n"
            "void *Thread1(void *x) {\n" + body1 + "\n    return 0;\n}\n\n"
            "int main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, Thread1, 0);\n"
            + body2 + "\n    pthread_join(t, 0);\n    return 0;\n}\n"
        )

    def test_schedule_count_is_binomial(self):
        # k independent accesses per thread, no synchronization between
        # them: the number of complete interleavings is C(2k, k)
        for k in (1, 2, 3, 4):
            verdict = explore(parse_source(self._disjoint_writers(k)), reduction="none")
            assert verdict.explored == math.comb(2 * k, k), f"k={k}"
            assert verdict.hb_races == ()  # disjoint variables

    def test_reduction_explores_one_schedule_of_independent_writes(self):
        # all those interleavings are equivalent: none reorders two
        # accesses to one variable
        for k in (1, 2, 3, 4):
            verdict = explore(parse_source(self._disjoint_writers(k)))
            assert verdict.explored == 1, f"k={k}"
            assert verdict.hb_races == ()

    def test_break_and_continue_jump_to_the_nearest_loop(self):
        source = (
            "int G;\nint H;\n\n"
            "void *Worker(void *arg) {\n"
            "    int i = 0;\n"
            "    while (i < 2) {\n"
            "        i = i + 1;\n"
            "        while (1) {\n"
            "            break;\n"
            "            G = 1;\n"  # never runs
            "        }\n"
            "        if (i < 2) {\n"
            "            continue;\n"
            "        }\n"
            "        H = i;\n"  # runs once, in the second pass
            "    }\n"
            "    return 0;\n}\n\n"
            "int main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, Worker, 0);\n"
            "    G = 2;\n    H = 3;\n"
            "    pthread_join(t, 0);\n    return 0;\n}\n"
        )
        verdict = explore(parse_source(source))
        assert verdict.diagnostics == () and not verdict.truncated
        lines = [(r.variable, sorted([r.current.coord.line, r.previous.coord.line]))
                 for r in verdict.hb_races]
        assert lines == [("H", [15, 24])]

    def test_self_deadlock_diagnosed(self):
        verdict = explore(parse_source(corpus("self_deadlock.c")))
        assert verdict.deadlocks
        assert any("self-deadlock" in d.message for d in verdict.diagnostics)

    def test_unlock_not_held_diagnosed(self):
        verdict = explore(parse_source(corpus("unlock_unheld.c")))
        assert any("does not hold" in d.message for d in verdict.diagnostics)

    def test_bound_truncates_honestly(self):
        verdict = explore(parse_source(corpus("race_while.c")), bound=3)
        assert verdict.explored == 3
        assert verdict.truncated

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            explore(parse_source(corpus("race_plain.c")), bound=bound)

    def test_step_budget_guards_runaway_loops(self):
        source = (
            "int go;\n\nint main() {\n"
            "    go = 1;\n"
            "    while (go) {\n        go = 1;\n    }\n"
            "    return 0;\n}\n"
        )
        verdict = explore(parse_source(source), step_budget=50)
        assert verdict.truncated
        assert any("step budget" in d.message for d in verdict.diagnostics)

    @pytest.mark.parametrize("body", ["", "continue;"])
    def test_step_budget_stops_loops_without_shared_access(self, body):
        # such a loop never reaches a shared operation, so only counting
        # its iterations stops it
        tree = parse_source(f"int main() {{ while (1) {{ {body} }} return 0; }}\n")
        verdict = within_seconds(1.0, lambda: explore(tree))
        assert verdict.truncated
        assert any("step budget" in d.message for d in verdict.diagnostics)

    def test_missing_main_rejected(self):
        with pytest.raises(UnsupportedConstruct):
            explore(parse_source("int x;\n"))

    def test_unknown_thread_function_rejected(self):
        source = (
            "int main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, nowhere, 0);\n    return 0;\n}\n"
        )
        with pytest.raises(UnsupportedConstruct):
            explore(parse_source(source))

    def test_race_symmetry_canonical_ordering(self):
        verdict = explore(parse_source(corpus("race_plain.c")))
        keys = [r.key() for r in verdict.hb_races]
        assert keys == sorted(keys)
        for race in verdict.hb_races:
            a, b = race.key()[1], race.key()[2]
            assert a <= b

    def test_deterministic_verdicts(self):
        tree_a = parse_source(corpus("race_while.c"))
        tree_b = parse_source(corpus("race_while.c"))
        va, vb = explore(tree_a), explore(tree_b)
        assert [r.key() for r in va.hb_races] == [r.key() for r in vb.hb_races]
        assert va.explored == vb.explored


ORACLE_PROGRAMS = [
    "race_plain.c",
    "race_two_vars.c",
    "clean_locked.c",
    "lockset_join.c",
    "deadlock_abba.c",
    "return_race.c",
    "adjacent_merge.c",
    "lockset_single.c",
]


class TestOracleEquivalence:
    reduction = "dpor"

    @pytest.mark.parametrize("name", ORACLE_PROGRAMS)
    def test_hb_races_match_brute_force(self, name):
        verdict = explore(parse_source(corpus(name)), record_traces=True,
                          reduction=self.reduction)
        assert hb_pairs(verdict) == all_races(verdict.traces)

    @pytest.mark.parametrize("name", ["race_plain.c", "race_two_vars.c", "deadlock_abba.c"])
    def test_every_race_has_adjacent_witness(self, name):
        verdict = explore(parse_source(corpus(name)), record_traces=True,
                          reduction=self.reduction)
        for race in verdict.hb_races:
            coords = {race.current.coord, race.previous.coord}
            witnessed = False
            for trace in verdict.traces:
                for a, b in zip(trace, trace[1:]):
                    if (
                        a[0] in ("read", "write")
                        and b[0] in ("read", "write")
                        and {a[3], b[3]} == coords
                    ):
                        witnessed = True
            assert witnessed, f"no adjacent witness for {race.key()}"


class TestOracleEquivalenceExhaustive(TestOracleEquivalence):
    """The same checks over every interleaving, not one per class."""

    reduction = "none"


class TestTsanLogRoundTrip:
    def test_serialized_log_reparses_to_same_races(self):
        verdict = explore(parse_source(corpus("race_plain.c")))
        log = render_tsan_log(verdict.hb_races, "race_plain.c")
        result = parse_report(log)
        assert result.diagnostics == ()
        direct, _ = hybrid_verdict(verdict.hb_races, (), "hb", "race_plain.c")
        assert result.races.races == direct.races

    def test_log_shape(self):
        verdict = explore(parse_source(corpus("race_plain.c")))
        log = render_tsan_log(verdict.hb_races, "race_plain.c")
        assert "WARNING: ThreadSanitizer: data race" in log
        assert "Location is global 'Global'" in log
        assert log.rstrip().endswith("ThreadSanitizer: reported 1 warnings")

    def test_multi_race_log(self):
        verdict = explore(parse_source(corpus("race_two_vars.c")))
        log = render_tsan_log(verdict.hb_races, "race_two_vars.c")
        result = parse_report(log)
        assert len(result.races) == 2
        assert format_summary(result.races).count("\n") == 2


class TestResourceLimits:
    def test_thread_cap_enforced(self):
        creates = "\n".join(
            f"    pthread_t t{i};\n    pthread_create(&t{i}, 0, W, 0);"
            for i in range(5)
        )
        source = (
            "int g;\n\nvoid *W(void *x) {\n    g = 1;\n    return 0;\n}\n\n"
            "int main() {\n" + creates + "\n    return 0;\n}\n"
        )
        verdict = explore(parse_source(source), bound=200)
        assert any("thread limit" in d.message for d in verdict.diagnostics)

    def test_thread_finishing_with_lock_held_diagnosed(self):
        source = (
            "pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;\n\n"
            "void *W(void *x) {\n    pthread_mutex_lock(&M);\n    return 0;\n}\n\n"
            "int main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, W, 0);\n"
            "    pthread_join(t, 0);\n"
            "    pthread_mutex_lock(&M);\n"
            "    pthread_mutex_unlock(&M);\n"
            "    return 0;\n}\n"
        )
        verdict = explore(parse_source(source))
        assert any("still holding" in d.message for d in verdict.diagnostics)
        assert verdict.deadlocks  # main can never take the leaked mutex


# One name declared as an int and as a mutex, which C rejects.
GLOBAL_AND_MUTEX = (
    "int M;\n"
    "pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;\n"
    "void *W(void *x) { pthread_mutex_lock(&M); M = 1; pthread_mutex_unlock(&M); return 0; }\n"
    "int main() { pthread_t t; pthread_create(&t, 0, W, 0); M = 2; pthread_join(t, 0); return M; }\n"
)


class TestModelValidation:
    def test_name_declared_as_global_and_mutex_rejected(self):
        with pytest.raises(UnsupportedConstruct, match="'M' is declared both"):
            explore(parse_source(GLOBAL_AND_MUTEX))

    def test_non_constant_global_initializer_rejected(self):
        source = "int a;\nint b = a;\nint main() { return 0; }\n"
        with pytest.raises(UnsupportedConstruct):
            explore(parse_source(source))

    @pytest.mark.parametrize("init", ["1 / 0", "1 % 0", "1 && 1"])
    def test_faulting_global_initializer_rejected(self, init):
        source = f"int a = {init};\nint main() {{ return 0; }}\n"
        with pytest.raises(UnsupportedConstruct):
            explore(parse_source(source))

    def test_malformed_create_rejected(self):
        source = (
            "void *W(void *x) { return 0; }\n"
            "int main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, 5, 0);\n    return 0;\n}\n"
        )
        with pytest.raises(UnsupportedConstruct):
            explore(parse_source(source))

    @pytest.mark.parametrize("stmt, where, message", [
        ("G = Missing + 1;", "11:9", "unknown identifier 'Missing'"),
        ("Missing = 1;", "11:5", "unknown identifier 'Missing'"),
        ("Missing += 1;", "11:5", "unknown identifier 'Missing'"),
        ("pthread_mutex_lock(M);", "11:5",
         "pthread_mutex_lock expects one argument of the form &mutex"),
        ("pthread_mutex_lock(&N);", "11:5", "'N' is not a declared mutex"),
        ("pthread_create(t, 0, W, 0);", "11:5",
         "pthread_create expects &handle as its first argument"),
        ("pthread_create(&u, 0, W, 0);", "11:21", "'u' is not a declared pthread_t"),
        ("pthread_join(5, 0);", "11:5", r"pthread_join expects \(handle, 0\)"),
        ("printf(G);", "11:5", "call to unsupported function 'printf'"),
        ("x = &G;", "11:9", "address-of is only meaningful as a pthread call argument"),
    ])
    def test_unmodelled_name_or_call_rejected_where_it_is(self, stmt, where, message):
        source = (
            "int G;\npthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;\n\n"
            "void *W(void *arg) {\n    return 0;\n}\n\n"
            "int main() {\n    pthread_t t;\n    int x = 0;\n"
            f"    {stmt}\n    return 0;\n}}\n"
        )
        with pytest.raises(UnsupportedConstruct, match=f"^{where}: {message}$"):
            explore(parse_source(source))

    @pytest.mark.parametrize("body, where, name", [
        ("    int x = 1;\n    int x = 2;\n    G = x;\n", "10:9", "x"),
        ("    pthread_t t;\n    pthread_t t;\n", "10:15", "t"),
    ])
    def test_redeclaration_in_one_block_rejected(self, body, where, name):
        source = ("int G;\n\nvoid *W(void *arg) {\n    return 0;\n}\n\n"
                  "int main() {\n    int y = 0;\n" + body + "    return 0;\n}\n")
        with pytest.raises(UnsupportedConstruct,
                           match=f"^{where}: '{name}' is already declared in this block$"):
            explore(parse_source(source))

    def test_parameter_redeclared_in_the_body_rejected(self):
        source = ("int G;\n\nvoid *W(void *arg) {\n    int arg = 1;\n    G = arg;\n"
                  "    return 0;\n}\n\nint main() {\n    return 0;\n}\n")
        with pytest.raises(UnsupportedConstruct,
                           match="^4:9: 'arg' is already declared in this block$"):
            explore(parse_source(source))

    def test_shadowing_in_a_nested_block_allowed(self):
        source = ("int G;\n\nvoid *W(void *arg) {\n    { int arg = 2; G = arg; }\n"
                  "    return 0;\n}\n\nint main() {\n    int x = 1;\n"
                  "    { int x = 2; G = x; }\n    G = x;\n    return 0;\n}\n")
        verdict = explore(parse_source(source))
        assert verdict.explored == 1 and verdict.hb_races == ()


def summaries(verdict) -> list:
    """The happens-before races as `detect` prints them."""
    return [f"{var} {a.line} {a.column} {b.line} {b.column}"
            for var, a, b in (race.key() for race in verdict.hb_races)]


def scheduled(source: str) -> set:
    """The globals whose accesses are scheduling points under DPOR."""
    functions = build_model(parse_source(source)).functions.values()
    return {ins[1] for code in functions for ins in code if ins[0] in ("read", "store")}


# Outer runs twice, so Inner, which each Outer creates once, runs twice.
NESTED = """\
int P;

void *Inner(void *arg) {
    P = P + 1;
    return 0;
}

void *Outer(void *arg) {
    pthread_t t;
    pthread_create(&t, 0, Inner, 0);
    pthread_join(t, 0);
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, Outer, 0);
    pthread_create(&b, 0, Outer, 0);
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""

# One pthread_create, run twice by a loop.
LOOPED = """\
int P;

void *W(void *arg) {
    P = P + 1;
    return 0;
}

int main() {
    pthread_t t;
    int i = 0;
    while (i < 2) {
        pthread_create(&t, 0, W, 0);
        i = i + 1;
    }
    pthread_join(t, 0);
    return 0;
}
"""

# X is the worker's own, Y main's own; both name G.
OWN_AND_SHARED = """\
int G;
int X;
int Y;

void *W(void *arg) {
    X = X + 1;
    G = X;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, W, 0);
    Y = G;
    pthread_join(t, 0);
    return Y;
}
"""


# W updates its own P, then takes B and A, in the other order from main.
LOCAL_THEN_DEADLOCK = """\
int P;
pthread_mutex_t A = PTHREAD_MUTEX_INITIALIZER;
pthread_mutex_t B = PTHREAD_MUTEX_INITIALIZER;

void *W(void *arg) {
    P = 1;
    P = P + 1;
    pthread_mutex_lock(&B);
    pthread_mutex_lock(&A);
    pthread_mutex_unlock(&A);
    pthread_mutex_unlock(&B);
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, W, 0);
    pthread_mutex_lock(&A);
    pthread_mutex_lock(&B);
    pthread_mutex_unlock(&B);
    pthread_mutex_unlock(&A);
    pthread_join(t, 0);
    return 0;
}
"""


# C is main's own; main loops long past the loop budget, touching C every
# tenth iteration, then races with W on G.
LOOP_THEN_SHARED = """\
int C;
int G;

void *W(void *arg) {
    G = 1;
    return 0;
}

int main() {
    pthread_t t;
    int i = 0;
    while (i < 12000) {
        if (i % 10 == 0) { C = C + 1; }
        i = i + 1;
    }
    pthread_create(&t, 0, W, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
"""


class TestVisibleOperations:
    """Under DPOR an access to a global that only one thread can touch is
    local code; exhaustive search still schedules it."""

    @pytest.mark.parametrize("reduction", ["dpor", "none"])
    def test_thread_created_once_by_a_thread_that_runs_twice_runs_twice(self, reduction):
        verdict = explore(parse_source(NESTED), reduction=reduction)
        assert summaries(verdict) == ["P 4 5 4 5", "P 4 5 4 9"]
        assert scheduled(NESTED) == {"P"}
        if reduction == "dpor":
            assert verdict.explored == 12

    @pytest.mark.parametrize("reduction", ["dpor", "none"])
    def test_thread_created_in_a_loop_runs_twice(self, reduction):
        verdict = explore(parse_source(LOOPED), reduction=reduction)
        assert summaries(verdict) == ["P 4 5 4 5", "P 4 5 4 9"]
        assert scheduled(LOOPED) == {"P"}
        if reduction == "dpor":
            assert verdict.explored == 4

    def test_global_main_and_a_worker_name_stays_a_scheduling_point(self):
        assert scheduled(OWN_AND_SHARED) == {"G"}
        tree = parse_source(OWN_AND_SHARED)
        dpor, none = explore(tree), explore(tree, reduction="none")
        assert summaries(dpor) == summaries(none) == ["G 7 5 14 9"]
        assert dpor.explored == 2 < none.explored

    @pytest.mark.parametrize("reduction", ["dpor", "none"])
    def test_local_accesses_count_against_the_step_budget(self, reduction):
        source = "int P;\n\nint main() {\n    P = 1;\n    P = P + 1;\n    return 0;\n}\n"
        assert scheduled(source) == set()
        tree = parse_source(source)
        assert not explore(tree, step_budget=3, reduction=reduction).truncated
        verdict = explore(tree, step_budget=2, reduction=reduction)
        assert verdict.truncated
        assert [d.message for d in verdict.diagnostics] == [
            "thread 0 exceeded the step budget of 2; schedule truncated"]

    def test_local_access_ends_a_run_of_loop_iterations(self):
        # 12000 iterations, but never more than ten without an access to C
        tree = parse_source(LOOP_THEN_SHARED)
        dpor, none = explore(tree), explore(tree, reduction="none")
        assert summaries(dpor) == summaries(none) == ["G 5 5 17 5"]
        assert not dpor.truncated and not none.truncated
        assert dpor.diagnostics == none.diagnostics == ()

    def test_deadlock_schedule_replays_with_local_code(self):
        # W's own P is local code, so it is no step of the schedule
        tree = parse_source(LOCAL_THEN_DEADLOCK)
        verdict = explore(tree)
        assert verdict.deadlocks
        for deadlock in verdict.deadlocks:
            run = replay(tree, deadlock.schedule)
            assert run.deadlock is not None and run.deadlock.threads == deadlock.threads

    def test_single_threaded_global_is_local_and_still_flagged_by_lockset(self):
        source = corpus("lockset_single.c")
        assert scheduled(source) == set()
        (code,) = build_model(parse_source(source)).functions.values()
        assert [ins[0] for ins in code if ins[1:2] == ("Counter",)] == [
            "local_store", "local_read", "local_store", "local_read"]
        keys = []
        for reduction in ("dpor", "none"):  # criterion 6
            verdict = explore(parse_source(source), reduction=reduction)
            assert verdict.hb_races == () and verdict.lockset_races
            keys.append([race.key() for race in verdict.lockset_races])
        assert keys[0] == keys[1]


# A dies at once; B and main race on G all the same.
EAGER = """\
int G;
void *A(void *arg) {
    int x = 1 / 0;
    return 0;
}
void *B(void *arg) {
    G = 1;
    return 0;
}
int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, A, 0);
    pthread_create(&b, 0, B, 0);
    G = 2;
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""

# The same, with A's fault after two local accesses to its own P.
FAULT = """\
int P;
int G;

void *A(void *arg) {
    P = P / 0;
    return 0;
}

void *B(void *arg) {
    G = 1;
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, A, 0);
    pthread_create(&b, 0, B, 0);
    G = 2;
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""


class TestLocalFaults:
    """A fault in local code is the thread's pending operation: it ends the
    run when that thread is scheduled, not as soon as the thread gets there."""

    @pytest.mark.parametrize("reduction", ["dpor", "none"])
    @pytest.mark.parametrize("source,race", [(EAGER, "G 7 5 15 5"), (FAULT, "G 10 5 19 5")],
                             ids=["eager", "fault"])
    def test_fault_waits_for_its_threads_turn(self, source, race, reduction):
        verdict = explore(parse_source(source), reduction=reduction)
        assert summaries(verdict) == [race]
        assert [d.message for d in verdict.diagnostics] == ["thread 1: division by zero"]

    @pytest.mark.parametrize("reduction", ["dpor", "none"])
    def test_overrun_waits_for_its_threads_turn(self, reduction):
        source = EAGER.replace("int x = 1 / 0;", "while (1) { }")
        verdict = explore(parse_source(source), step_budget=50, reduction=reduction)
        assert summaries(verdict) == ["G 7 5 15 5"]
        assert verdict.truncated
        assert [d.message for d in verdict.diagnostics] == [
            "thread 1 exceeded the step budget of 50; schedule truncated"]

    def test_fix_patches_race_beside_a_faulting_thread(self, tmp_path):
        path = tmp_path / "eager.c"
        path.write_text(EAGER)
        report = run(FixConfig(source=str(path)))
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_G);") == 2
        assert explore(parse_source(report.final_text)).hb_races == ()
