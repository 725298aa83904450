"""DPOR resumes each schedule from a state saved on the previous one.

Restoring a saved state must give the state a run from the initial state
reaches by the same thread choices.  Every trace the search records is
compared with `replay`, which always starts from scratch, and after every
schedule the whole state of the resumed run is compared with that of a
fresh run.  The number of schedules explored is pinned to what the search
explored when it replayed every schedule from the start, so the restore
cannot change how many schedules run.  A digest of all recorded traces,
in order, is pinned too, so a different search of the same size, or the
same schedules in another order, fails as well.
"""

import hashlib

import pytest

from racefixer import explore, parse_source
from racefixer.detector import DEFAULT_STEP_BUDGET, _Dpor, _Run, _Step, build_model, replay

from conftest import corpus_files
from genconc import generate_concurrent

EXPLORED_CORPUS = {
    "adjacent_merge.c": 15, "chain3.c": 1, "clean_locked.c": 2, "comments_heavy.c": 66,
    "deadlock_abba.c": 3, "deadlock_user.c": 4, "decls.c": 1, "lockset_join.c": 1,
    "lockset_single.c": 1, "loop_break.c": 2, "nested_while_merge.c": 136, "operators.c": 1,
    "race_else_if.c": 2, "race_if_else.c": 2, "race_if_no_else.c": 2, "race_plain.c": 2,
    "race_two_vars.c": 4, "race_while.c": 66, "return_race.c": 2, "self_deadlock.c": 1,
    "single_line.c": 1, "unbraced.c": 1, "unlock_unheld.c": 1,
}

EXPLORED_GENCONC = [
    6, 15, 21, 35, 6, 2, 6, 3, 4, 6, 1, 6, 3, 10, 6, 6, 13, 3, 3, 1,
    2, 15, 7, 3, 1, 2, 1, 3, 3, 1, 6, 6, 2, 8, 3, 2, 2, 3, 4, 126,
    4, 6, 2, 3, 3, 2, 3, 9, 3, 35, 12, 35, 2, 3, 10, 3, 1, 10, 4, 10,
]

# `trace_digest` of every program, taken from the search that recomputed
# happens-before over the whole path after each schedule.
TRACES_CORPUS = {
    "adjacent_merge.c": "7c01ad8287ca1733", "chain3.c": "97e22cfc8b6370f5",
    "clean_locked.c": "8dcdd1318ddfa8ad", "comments_heavy.c": "90fd9328789c7e2c",
    "deadlock_abba.c": "a7afe6e4dad76b94", "deadlock_user.c": "f121119964530626",
    "decls.c": "097d0ee031110bd0", "lockset_join.c": "411e143335939750",
    "lockset_single.c": "70555c5d0b6aa48a", "loop_break.c": "58f205b04eb48ad3",
    "nested_while_merge.c": "d9e648177c87ba18", "operators.c": "ff37adb3d9280cec",
    "race_else_if.c": "072071b3b64c9adb", "race_if_else.c": "bce472a58c9ce78e",
    "race_if_no_else.c": "c426cccefd86c01e", "race_plain.c": "0630be5ee4395b88",
    "race_two_vars.c": "f6d0fd5fe71179b2", "race_while.c": "bd46dd817805d17c",
    "return_race.c": "d105bc571ca1a253", "self_deadlock.c": "c404cb4e30e8e1cb",
    "single_line.c": "7bdcb0e9a9b9ae94", "unbraced.c": "92a7ff89b9142641",
    "unlock_unheld.c": "e3b0c44298fc1c14",
}

TRACES_GENCONC = [
    "9c261d63058094f3", "cfc2af919fefcc6b", "88bd180c4414b8d7", "531f9ed2b50ddd51",
    "a7bed528abdba415", "9261e3c26318d2f7", "bd4e176a702aeca9", "b9a46b96e348c561",
    "2d3a3f5b326b87ce", "46ba80f6a587781e", "beab1702da2a09a5", "7504e61cd5b685db",
    "464a3f951d92f1cf", "872feb059eb1262d", "111e3b72905a8761", "11bff057d17887f0",
    "81d90475aa91183e", "357f5f755a76b575", "d6e7ee8a6cedbb14", "6bd58e6f28e0fea9",
    "c32ac1a9b75b0c11", "be40d4ff62cf8e22", "12b14e913ad5fd5d", "247e0e1bf49765d5",
    "45d4927dd6a85f11", "3f90956b3f95c71a", "cf432d1cfffb71c0", "ba09113de2839927",
    "87d3ceab2879f5ba", "822773580d27da90", "c0ac425bbab1f15c", "636c491965296053",
    "49a824e8a512d83b", "fd4a0cf5cbe0df47", "82fbe8020799345b", "c224aeda75bc2809",
    "f3ac2e006080be9c", "24ed2d6aaade3c6c", "d7cab29b6021178e", "29b40c2d83d2a130",
    "f53c6ff4dc6f83a0", "f432edd77158671b", "2ba952bc68892962", "ef1f3b0f4c0bac94",
    "9eabe45c15db73b3", "fd18804a03f4081c", "7e894850eea54508", "85a72084ee863982",
    "15ff35c49fb7eddb", "ee4a6b7fcdf8584f", "f0bed3a989b423bc", "4f1cf813e60cc51d",
    "07c529173aacf285", "0d35fe831e11431a", "025d1b3e348a2d2f", "d5fd0746eb89e998",
    "2e9d076d255dc2e1", "7d16abe7bdc2057c", "289ef27eda0b9ee3", "dc03e31b8dedf8a2",
]

# Local variables and operand stacks that change between decisions.
LOCALS = """\
int G;
int H;
pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;

void *Worker(void *arg) {
    int i = 0;
    int sum = arg;
    while (i < 2) {
        i += 1;
        pthread_mutex_lock(&M);
        sum = sum + G * i;
        pthread_mutex_unlock(&M);
        if (sum > 4 && H || i == 2) {
            continue;
        }
        H = sum - H;
    }
    G = sum + H;
    return 0;
}

int main() {
    pthread_t t;
    int k = 1;
    pthread_create(&t, 0, Worker, 0);
    k = k + G;
    pthread_mutex_lock(&M);
    G = k + H;
    pthread_mutex_unlock(&M);
    pthread_join(t, 0);
    H = G;
    return 0;
}
"""

# A branch taken before the second thread exists.
CREATE_AFTER_RACE = """\
int G;

void *Worker(void *arg) {
    G = 1;
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, Worker, 0);
    G = 2;
    pthread_create(&b, 0, Worker, 0);
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""


# Main and two workers write G: with three threads, a step can have more
# than one backtrack thread to pick from.
TWO_WORKERS = """\
int G;

void *Worker(void *arg) {
    G = 1;
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, Worker, 0);
    pthread_create(&b, 0, Worker, 0);
    G = 2;
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""

# C is created after A may have written H, and C's first operation writes
# H: the check of an operation that becomes pending at a thread's creation.
LATE_CHILD = """\
int G;
int H;
int K;

void *A(void *arg) {
    H = 1;
    return 0;
}

void *B(void *arg) {
    K = 1;
    G = 1;
    return 0;
}

void *C(void *arg) {
    H = 2;
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_t c;
    pthread_create(&a, 0, A, 0);
    pthread_create(&b, 0, B, 0);
    G = 2;
    pthread_create(&c, 0, C, 0);
    pthread_join(a, 0);
    pthread_join(b, 0);
    pthread_join(c, 0);
    return 0;
}
"""


def run_state(run: _Run) -> tuple:
    accessed = {var for var, history in run.histories.items() if history}
    return (
        run.trace, run.hb_races, run.ls_races, run.diagnostics, run.deadlock,
        run.aborted, run.budget_exceeded, run.globals_, run.mutex_owner, run.mutex_clock,
        {var: run.histories[var] for var in accessed},
        {var: (run.lockset_states[var].candidates, run.lockset_states[var].last)
         for var in accessed},
        [(t.tid, t.function, t.pc, t.stack, t.env, t.clock, t.held, t.pending, t.steps,
          t.self_blocked) for t in run.threads],
    )


def fresh_run(model, choices: list) -> _Run:
    """A run from the initial state that takes `choices` and stops there."""

    def choose(run, enabled, pending):
        index = len(run.path)
        return _Step(enabled, choices[index], pending) if index < len(choices) else None

    run = _Run(model, DEFAULT_STEP_BUDGET, record_trace=True)
    run.execute(choose)
    return run


def assert_restored_runs_match_fresh_ones(source: str, explored: int) -> None:
    tree = parse_source(source)
    model = build_model(tree)
    search = _Dpor()
    run = _Run(model, DEFAULT_STEP_BUDGET, record_trace=True)
    while run is not None:
        run.execute(search.choose)
        fresh = fresh_run(model, [step.choice for step in run.path])
        assert run_state(run) == run_state(fresh)
        run = search.advance(run)

    verdict = explore(tree, record_traces=True)
    assert verdict.explored == explored
    for trace in verdict.traces:
        fresh = replay(tree, [event[1] for event in trace]).trace
        # A schedule stopped where every enabled thread sleeps goes on in
        # the replay, so only its recorded part is compared.
        assert fresh[:len(trace)] == list(trace)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_restores_match_fresh_runs(path):
    assert_restored_runs_match_fresh_ones(path.read_text(encoding="utf-8"),
                                          EXPLORED_CORPUS[path.name])


@pytest.mark.parametrize("seed", range(60))
def test_generated_restores_match_fresh_runs(seed):
    assert_restored_runs_match_fresh_ones(generate_concurrent(seed), EXPLORED_GENCONC[seed])


@pytest.mark.parametrize("source,explored", [(LOCALS, 24), (CREATE_AFTER_RACE, 3)],
                         ids=["locals", "create_after_race"])
def test_restores_match_fresh_runs(source, explored):
    assert_restored_runs_match_fresh_ones(source, explored)


def trace_digest(source: str) -> str:
    """The schedules DPOR runs, in order, as a short hash of their traces."""
    traces = explore(parse_source(source), record_traces=True).traces
    text = "\n".join(";".join(" ".join(map(str, event)) for event in trace)
                     for trace in traces)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_schedules_are_pinned(path):
    assert trace_digest(path.read_text(encoding="utf-8")) == TRACES_CORPUS[path.name]


@pytest.mark.parametrize("seed", range(60))
def test_generated_schedules_are_pinned(seed):
    assert trace_digest(generate_concurrent(seed)) == TRACES_GENCONC[seed]


@pytest.mark.parametrize("source,digest,explored", [
    (LOCALS, "99818e18791594d5", 24),
    (CREATE_AFTER_RACE, "f692af3cfe51e03f", 3),
    (TWO_WORKERS, "7783ecc61a64c460", 6),
    (LATE_CHILD, "897579329754cf24", 4),
], ids=["locals", "create_after_race", "two_workers", "late_child"])
def test_schedules_are_pinned(source, digest, explored):
    assert explore(parse_source(source)).explored == explored
    assert trace_digest(source) == digest
