"""DPOR resumes each schedule from a state saved on the previous one.

Restoring a saved state must give the state a run from the initial state
reaches by the same thread choices.  Every trace the search records is
compared with `replay`, which always starts from scratch, and after every
schedule the whole state of the resumed run is compared with that of a
fresh run.  The number of schedules explored is pinned to what the search
explored when it replayed every schedule from the start, so the restore
cannot change how many schedules run.  A digest of all recorded traces,
in order, is pinned too, so a different search of the same size, or the
same schedules in another order, fails as well.  Races and diagnostics
are not rolled back: after every schedule those the resumed run has kept
are compared with what every fresh run so far found, and a digest of the
whole verdict of every program is pinned.  So is a digest of what
`fix --verbose` prints and returns on every program, which pins the
patched text and everything the fix loop reports.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from racefixer import cli, explore, parse_source
from racefixer.reports import Diagnostic
from racefixer.detector import DEFAULT_STEP_BUDGET, _Dpor, _Run, _Step, build_model, replay

from conftest import corpus_files
from genconc import generate_concurrent

EXPLORED_CORPUS = {
    "adjacent_merge.c": 9, "chain3.c": 1, "clean_locked.c": 2, "comments_heavy.c": 36,
    "deadlock_abba.c": 3, "deadlock_user.c": 4, "decls.c": 1, "lockset_join.c": 1,
    "lockset_single.c": 1, "loop_break.c": 2, "nested_while_merge.c": 45, "operators.c": 1,
    "race_else_if.c": 2, "race_else_if_locked_head.c": 3, "race_if_else.c": 2,
    "race_if_no_else.c": 2, "race_plain.c": 2,
    "race_two_vars.c": 4, "race_while.c": 26, "return_race.c": 2, "self_deadlock.c": 1,
    "single_line.c": 1, "unbraced.c": 1, "unlock_unheld.c": 1,
}

EXPLORED_GENCONC = [
    6, 9, 21, 22, 6, 2, 6, 3, 4, 6, 1, 6, 3, 8, 6, 6, 13, 3, 3, 1,
    2, 9, 5, 3, 1, 2, 1, 3, 3, 1, 6, 4, 2, 8, 3, 2, 2, 3, 4, 68,
    4, 6, 2, 3, 3, 2, 3, 6, 2, 35, 6, 22, 2, 3, 10, 3, 1, 10, 4, 7,
]

# `trace_digest` of every program, taken from the search that recomputed
# happens-before over the whole path after each schedule.  Accesses to a
# global that only one thread touches run as local code and are not
# traced; programs with such a global are pinned to traces without them.
TRACES_CORPUS = {
    "adjacent_merge.c": "e907876e1c6d2b83", "chain3.c": "e3b0c44298fc1c14",
    "clean_locked.c": "8dcdd1318ddfa8ad", "comments_heavy.c": "fba6cfb83c268558",
    "deadlock_abba.c": "a7afe6e4dad76b94", "deadlock_user.c": "f121119964530626",
    "decls.c": "10ad2b299afd28d5", "lockset_join.c": "411e143335939750",
    "lockset_single.c": "e3b0c44298fc1c14", "loop_break.c": "58f205b04eb48ad3",
    "nested_while_merge.c": "7d4debba88e4adc1", "operators.c": "e3b0c44298fc1c14",
    "race_else_if.c": "072071b3b64c9adb", "race_else_if_locked_head.c": "f83ec73752700b06",
    "race_if_else.c": "bce472a58c9ce78e",
    "race_if_no_else.c": "c426cccefd86c01e", "race_plain.c": "0630be5ee4395b88",
    "race_two_vars.c": "f6d0fd5fe71179b2", "race_while.c": "7a309c478b3aa40b",
    "return_race.c": "d105bc571ca1a253", "self_deadlock.c": "c404cb4e30e8e1cb",
    "single_line.c": "e3b0c44298fc1c14", "unbraced.c": "e3b0c44298fc1c14",
    "unlock_unheld.c": "e3b0c44298fc1c14",
}

TRACES_GENCONC = [
    "9c261d63058094f3", "e2ab7513b5335f0b", "88bd180c4414b8d7", "3516181315da08f0",
    "a7bed528abdba415", "d8f4dbefb754f222", "63b88cbeb8cf90c8", "b9a46b96e348c561",
    "2d3a3f5b326b87ce", "46ba80f6a587781e", "b0c0f0d744cbb051", "2188d24cdfe8d79a",
    "889edd287bdb5970", "c1956e3a0106fe54", "111e3b72905a8761", "11bff057d17887f0",
    "81d90475aa91183e", "9a4347c201be6311", "d6e7ee8a6cedbb14", "98e373e2baa34274",
    "4dde6898daafe81e", "bae8da53ecaa9bc1", "8eca2af7b74f4f66", "9c7e867f3c07f401",
    "b0c0f0d744cbb051", "1093f7576edfa5bc", "b0c0f0d744cbb051", "9825ed826538e73f",
    "87d3ceab2879f5ba", "b0c2bb902cf0fde6", "9d8fffa57e602699", "e36d56bb943e412e",
    "49a824e8a512d83b", "f9ecab296f4f9f8e", "24892429643d5278", "8b6d413d841acc70",
    "53425d600c6f1a2a", "be94542a4a8a9e8f", "d7cab29b6021178e", "f4dcf040a4d95b0e",
    "f53c6ff4dc6f83a0", "5fdac4ee76fcd3aa", "2ba952bc68892962", "ef1f3b0f4c0bac94",
    "14598dc3b869c89a", "ea5e183522808a1f", "7e894850eea54508", "c386f2a3082374ce",
    "5b79fbdfd9d3ac0b", "ee4a6b7fcdf8584f", "96181a3b5189503b", "721a50e440b2160c",
    "15e1f8fc014fd0fa", "36536a4d35898758", "025d1b3e348a2d2f", "d5fd0746eb89e998",
    "032217e7c13bd7e1", "7d16abe7bdc2057c", "ed4e9080bf735112", "a64da5f22f3992a1",
]

# `verdict_digest` of every program, taken before races and diagnostics
# were kept by key as they are found.
VERDICTS_CORPUS = {
    "adjacent_merge.c": "5a9c7b8d487a9f27", "chain3.c": "1d9f5672f27d08ad",
    "clean_locked.c": "eb1ec3c56466bd40", "comments_heavy.c": "9c97aaa18d67ee88",
    "deadlock_abba.c": "756e3a8e20072306", "deadlock_user.c": "97283c9467cca9fd",
    "decls.c": "cd4780d75e124dbc", "lockset_join.c": "e0823b1b99478a3c",
    "lockset_single.c": "54fe554c8cac36bb", "loop_break.c": "d677bbd1fc5190e5",
    "nested_while_merge.c": "f5293c5e63cc0016", "operators.c": "70b7594b452e0396",
    "race_else_if.c": "9bd68fc0b0379cf7", "race_else_if_locked_head.c": "ed2ba4729a4c6333",
    "race_if_else.c": "3b6c711f7c295e78",
    "race_if_no_else.c": "cc2019137e31ac41", "race_plain.c": "da5039112b794a12",
    "race_two_vars.c": "dfadbde1907bde65", "race_while.c": "0255f894984dbd0e",
    "return_race.c": "8d7d36d73dfed457", "self_deadlock.c": "30553280b7d84e8a",
    "single_line.c": "259c649e678d56b4", "unbraced.c": "952cc95d9b080a17",
    "unlock_unheld.c": "1d39a23266e67a1e",
}

VERDICTS_GENCONC = [
    "2c64c174708b3cb2", "c2a5b0fa4c6a5d83", "371bf2801cbfdee3", "b876daf78181bc06",
    "345cfdb5fe78f4ea", "571845d4583a77b5", "52273be96eb7f825", "0cbe2cfddc3ac248",
    "d11bf711bc7ad321", "058b8dcdb7c966d0", "8b36a3eaa9e91915", "cec4082ce296ed61",
    "9516fc666fc300d0", "e001b96e797f3736", "5281c197fbd58104", "dd375eb850e2361a",
    "39ca4624a88de510", "2dcf5c96a659d917", "f35e72e14f35eae0", "3c8b8e768114ec37",
    "cc321bf1f171e3a2", "8a0d371b34f32fc9", "087deaac464ba6c0", "1fc4ba7236750978",
    "3b6ad18e4462ace5", "9a011cc74d6dc256", "dbd7451bcac958c3", "3864ef4c3256920a",
    "ebab1eab2165e1ff", "e6cbc6b2458fc906", "d28e7670073dc5dc", "04a22b22f11a065d",
    "5ddf18649751fd26", "0d7633745a07c8b5", "59eb420dfe72c544", "618cd1dc4af59bb0",
    "79e566a9ddc3ae61", "ad43b0e84f795d5d", "358ad3a309e07ce1", "4954b74721388d5e",
    "d545f3c625098a62", "c0052667e8f9eacd", "eac3f670c1f8cf9c", "078983e1008f179e",
    "175b665d9f6a5034", "6ed67d01140954a4", "fe639738b424ec38", "c2a21f3f2d9cadb3",
    "bdea959160eae3dc", "3c921feddfff8ea3", "b1be59e2ff8e0a7a", "e9186088e65154bf",
    "1b67eabc88b67b8e", "da5d3c5adca51872", "71f6f8e13e2a1332", "d2cf9df8a7fd3b5d",
    "85f5f9f9ac17f9b9", "3fe6b5ff11eaad3b", "064e06a41c49673f", "77e717d352b6e6bc",
]

# `fix_digest` of every program: what `fix --verbose` prints and returns.
FIXES_CORPUS = {
    "adjacent_merge.c": "488afa9b33dfe80a", "chain3.c": "a445dce29e862d04",
    "clean_locked.c": "103c9dce9989e655", "comments_heavy.c": "563d9fb344da3e5c",
    "deadlock_abba.c": "4db43729249b4659", "deadlock_user.c": "7bcfd6d75c588ec8",
    "decls.c": "22c15acda97bcb5a", "lockset_join.c": "154d469557ac97d6",
    "lockset_single.c": "597405ce90dc9e3c", "loop_break.c": "5e4680a7f2db8a53",
    "nested_while_merge.c": "a98ea2b0520f8c1d", "operators.c": "eef3560aeca979ea",
    "race_else_if.c": "a37611e18749cdd0", "race_else_if_locked_head.c": "ee13746003fb1d4e",
    "race_if_else.c": "c81e83c9ce6f884f", "race_if_no_else.c": "1fed8785725f3bfd",
    "race_plain.c": "b92ecb80b3fab800", "race_two_vars.c": "88c37414c8897399",
    "race_while.c": "b5f03fb927f6996b", "return_race.c": "4353fe5625230b6d",
    "self_deadlock.c": "7bcfd6d75c588ec8", "single_line.c": "3066263754944b0b",
    "unbraced.c": "3cf2df021772e4cd", "unlock_unheld.c": "3bdd1ecd9ecf988c",
}

FIXES_GENCONC = [
    "3bdd1ecd9ecf988c", "81c6876fc1649d4a", "1234b3595e0f260b", "e3f8ec6851809688",
    "f109759f98940468", "bee407645296d343", "c8cd065b34060e73", "c3a45e5d9c8e80c8",
    "8232313218ee30c1", "1a8b05d6e20af04c", "de58e775a60cebaa", "d07c3ff76cffe101",
    "3bdd1ecd9ecf988c", "dcca63aab7331801", "49af25ab370bfdda", "f4a6939566903784",
    "282c5223a622ca4b", "75be1019a142117c", "14eb224f384e4456", "07a06aba319d81d0",
    "d9ca68b03d7da466", "9b6399db25065525", "9e5fe726727fe76a", "c7411d3f3fe1eded",
    "ff142f40c1fb1887", "e883593895fd5b91", "3bdd1ecd9ecf988c", "09b1589367862fbe",
    "ca65c7de4ddd2b8f", "60bf039f95b4f0fb", "eae3cd428c83a549", "02f3ad5dc3e214fa",
    "3bdd1ecd9ecf988c", "43cbc9f984a57f43", "33866e86c01fc3f6", "7dff1053959c6846",
    "e4e0fdf66629a157", "13b47c8ee062ff0a", "622c83969bc6d710", "8a48a74b6b7238cd",
    "b3a7fba01350c18c", "ae15c1123e40770d", "aaaa278edcf1d790", "516db7f287f1e37c",
    "59f9658e08ee58a7", "6c17eed36663be99", "cb8d9151f5665f53", "12ab3d24b7005038",
    "f6aa0096895d969f", "377612daf0cddd08", "95a60711f1b226bf", "5b7b54fd44bbecb1",
    "ca4f64982fc073ea", "7cba39d4fd0533dc", "cd39c1efba7076cc", "8176915e14ac909d",
    "9add94e25c8bbb78", "a6f3c63d6c7f18b6", "1ed4609639a8094f", "86933ef007c357f7",
]

# The child faults as soon as it is created, and main then locks a
# mutex it holds.  The fault waits for the child's turn, so main gets to
# its second lock first; the run ends on the fault, with no deadlock.
FAULTING_CHILD = """\
int G;
pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;

void *Worker(void *arg) {
    G = 1 / 0;
    return 0;
}

int main() {
    pthread_t t;
    pthread_mutex_lock(&M);
    pthread_create(&t, 0, Worker, 0);
    pthread_mutex_lock(&M);
    return 0;
}
"""

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
    return (
        run.trace, run.deadlock,
        run.aborted, run.budget_exceeded, run.globals_, run.mutex_clock,
        # accesses in order
        {var: (list(v.accesses.items()), v.lockset) for var, v in run.variables.items()},
        [(t.tid, t.code, t.pc, t.stack, t.env, t.clock, t.held, t.pending, t.steps)
         for t in run.threads],
    )


def results(run: _Run) -> tuple:
    return run.hb_races, run.ls_races, run.diagnostics


def fresh_run(model, choices: list) -> _Run:
    """A run from the initial state that takes `choices` and stops there."""

    def choose(run, enabled):
        index = len(run.path)
        if index == len(choices):
            return None
        return _Step(enabled, choices[index], run.threads[choices[index]].pending[-1])

    run = _Run(model, DEFAULT_STEP_BUDGET, True, {}, {}, {})
    run.execute(choose)
    return run


def assert_restored_runs_match_fresh_ones(source: str, explored: int) -> None:
    tree = parse_source(source)
    model = build_model(tree)
    search = _Dpor()
    run = _Run(model, DEFAULT_STEP_BUDGET, True, {}, {}, {})
    union = ({}, {}, {})  # the results of every fresh run so far, first found kept
    while run is not None:
        run.execute(search.choose)
        fresh = fresh_run(model, [step.choice for step in run.path])
        assert run_state(run) == run_state(fresh)
        for kept, found in zip(union, results(fresh)):
            for key, value in found.items():
                kept.setdefault(key, value)
        # item for item and in order
        assert [list(m.items()) for m in results(run)] == [list(m.items()) for m in union]
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


@pytest.mark.parametrize("source,explored", [(LOCALS, 7), (CREATE_AFTER_RACE, 3)],
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
    (LOCALS, "5aa6db99391232f3", 7),
    (CREATE_AFTER_RACE, "f692af3cfe51e03f", 3),
    (TWO_WORKERS, "7783ecc61a64c460", 6),
    (LATE_CHILD, "b0550c162b6265b0", 4),
], ids=["locals", "create_after_race", "two_workers", "late_child"])
def test_schedules_are_pinned(source, digest, explored):
    assert explore(parse_source(source)).explored == explored
    assert trace_digest(source) == digest


def verdict_digest(source: str) -> str:
    """Everything `explore` finds in `source`, as a short hash: both race
    lists with every field of both accesses, the deadlocks with their
    schedules, the diagnostics in order, and the search's size."""
    verdict = explore(parse_source(source))

    def access(a):  # a frozenset's order depends on the hash seed
        return (a.kind, a.thread, a.function, a.coord, a.clock, sorted(a.lockset))

    def races(found):
        return [(r.variable, access(r.current), access(r.previous)) for r in found]

    text = repr((races(verdict.hb_races), races(verdict.lockset_races), verdict.deadlocks,
                 verdict.diagnostics, verdict.explored, verdict.truncated))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_verdicts_are_pinned(path):
    assert verdict_digest(path.read_text(encoding="utf-8")) == VERDICTS_CORPUS[path.name]


@pytest.mark.parametrize("seed", range(60))
def test_generated_verdicts_are_pinned(seed):
    assert verdict_digest(generate_concurrent(seed)) == VERDICTS_GENCONC[seed]


def fix_digest(path) -> str:
    """`fix --verbose` on the file at `path`, run in-process, as a short
    hash of its exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["fix", str(path), "--verbose"])
    text = repr((code, out.getvalue(), err.getvalue()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_fixes_are_pinned(path):
    assert fix_digest(path) == FIXES_CORPUS[path.name]


@pytest.mark.parametrize("seed", range(60))
def test_generated_fixes_are_pinned(seed, tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(generate_concurrent(seed), encoding="utf-8")
    assert fix_digest(path) == FIXES_GENCONC[seed]


@pytest.mark.parametrize("reduction", ["dpor", "none"])
def test_fault_ends_run_before_self_deadlock(reduction):
    verdict = explore(parse_source(FAULTING_CHILD), reduction=reduction)
    assert verdict.diagnostics == (
        Diagnostic("error", "thread 0 locks 'M' which it already holds (self-deadlock)"),
        Diagnostic("error", "thread 1: division by zero"),
    )
    assert verdict.deadlocks == ()
