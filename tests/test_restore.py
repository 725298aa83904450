"""DPOR resumes each schedule from a state saved on the previous one.

Restoring a saved state must give the state a run from the initial state
reaches by the same thread choices.  Every trace the search records is
compared with `replay`, which always starts from scratch, and after every
schedule the whole state of the resumed run is compared with that of a
fresh run.  The number of schedules explored is pinned to what the search
explored when it replayed every schedule from the start, so the restore
cannot change which schedules run.
"""

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
