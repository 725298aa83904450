"""Happens-before edges, analyses, exploration, deadlocks, and the log round trip."""

import math

import pytest

from racefixer import UnsupportedConstruct, explore, parse_report, parse_source
from racefixer.detector import (
    AccessRecord,
    LocksetState,
    hb_check,
    hybrid_verdict,
    lockset_check,
    render_tsan_log,
    replay,
)
from racefixer.reports import SourceCoord, format_summary

from conftest import corpus, within_seconds
from oracle import all_races


def record(variable="g", kind="write", thread=0, clock=(), locks=(),
           line=1, column=1, function="main"):
    return AccessRecord(variable, kind, thread, tuple(clock), frozenset(locks),
                        SourceCoord(line, column), function)


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


class TestHbCheck:
    def test_incomparable_writes_race(self):
        current = record(thread=0, clock=(1, 0))
        prior = record(thread=1, clock=(0, 1))
        assert len(hb_check(current, [prior])) == 1

    def test_ordered_writes_do_not_race(self):
        current = record(thread=0, clock=(2, 1))
        prior = record(thread=1, clock=(1, 1))
        assert hb_check(current, [prior]) == []

    def test_read_read_never_races(self):
        current = record(kind="read", thread=0, clock=(1, 0))
        prior = record(kind="read", thread=1, clock=(0, 1))
        assert hb_check(current, [prior]) == []


class TestLocksetCheck:
    def test_common_lock_keeps_quiet(self):
        state = LocksetState()
        assert lockset_check(record(locks={"m"}, thread=0), state) is None
        assert lockset_check(record(locks={"m"}, thread=1), state) is None
        assert state.candidates == frozenset({"m"})

    def test_emptied_candidate_set_flags(self):
        state = LocksetState()
        assert lockset_check(record(locks={"m"}, thread=0), state) is None
        race = lockset_check(record(locks=set(), thread=1), state)
        assert race is not None
        assert state.candidates == frozenset()

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
