"""Differential test: the partial-order reduction against exhaustive search.

DPOR explores one schedule out of each set of schedules that differ only
in the order of independent operations.  Whatever the detector reports
must not depend on which member of such a set it ran, so the race sets of
both checks, the deadlocks, the diagnostics and the truncation flag are
compared with plain exhaustive search (``reduction="none"``).
"""

import time

import pytest

from racefixer import explore, parse_source
from racefixer.detector import DEFAULT_STEP_BUDGET, _dependent, _Dpor, _Run, build_model
from racefixer.reports import Diagnostic

from conftest import corpus_files
from genconc import generate_concurrent

BOUND = 50_000


def outcome(verdict) -> dict:
    return {
        "hb_races": [r.key() for r in verdict.hb_races],
        "lockset_races": [r.key() for r in verdict.lockset_races],
        "deadlocks": {d.threads for d in verdict.deadlocks},
        "diagnostics": set(verdict.diagnostics),
        "truncated": verdict.truncated,
    }


def assert_reduction_agrees(source: str):
    tree = parse_source(source)
    exhaustive = explore(tree, bound=BOUND, reduction="none")
    assert exhaustive.explored < BOUND, "exhaustive search hit the bound"
    reduced = explore(tree, bound=BOUND)
    assert outcome(reduced) == outcome(exhaustive)
    assert reduced.explored <= exhaustive.explored
    return reduced


def private_counters(workers: int, increments: int) -> str:
    """Each worker bumps its own counter, then writes the shared G."""
    lines = ["int G;"] + [f"int C{w};" for w in range(workers)] + [""]
    for w in range(workers):
        lines.append(f"void *W{w}(void *arg) {{")
        lines += [f"    C{w} = C{w} + 1;"] * increments
        lines += ["    G = 1;", "    return 0;", "}", ""]
    lines.append("int main() {")
    lines += [f"    pthread_t t{w};" for w in range(workers)]
    lines += [f"    pthread_create(&t{w}, 0, W{w}, 0);" for w in range(workers)]
    lines += [f"    pthread_join(t{w}, 0);" for w in range(workers)]
    lines += ["    return 0;", "}"]
    return "\n".join(lines) + "\n"


def shared_counters(workers: int, increments: int) -> str:
    """Each worker runs `G = G + 1` `increments` times."""
    lines = ["int G;", ""]
    for w in range(workers):
        lines.append(f"void *W{w}(void *arg) {{")
        lines += ["    G = G + 1;"] * increments
        lines += ["    return 0;", "}", ""]
    lines.append("int main() {")
    lines += [f"    pthread_t t{w};" for w in range(workers)]
    lines += [f"    pthread_create(&t{w}, 0, W{w}, 0);" for w in range(workers)]
    lines += [f"    pthread_join(t{w}, 0);" for w in range(workers)]
    lines += ["    return 0;", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_matches_exhaustive(path):
    assert_reduction_agrees(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", range(60))
def test_generated_programs_match_exhaustive(seed):
    assert_reduction_agrees(generate_concurrent(seed))


@pytest.mark.parametrize("seed", range(30))
def test_generated_read_runs_match_exhaustive(seed):
    # two reads of R in either order before a write: both pairs must be
    # flagged whichever order the one explored schedule has
    source = generate_concurrent(seed, read_run=True)
    verdict = assert_reduction_agrees(source)
    lines = source.splitlines()
    reads = [(n, 9) for n, line in enumerate(lines, 1) if line.endswith(" = R;")]
    write = (lines.index("    R = 1;") + 1, 5)
    pairs = {((a.line, a.column), (b.line, b.column))
             for var, a, b in (r.key() for r in verdict.lockset_races) if var == "R"}
    assert len(reads) == 2 and {(read, write) for read in reads} <= pairs


@pytest.mark.parametrize("seed", range(30))
def test_generated_private_globals_match_exhaustive(seed):
    # DPOR runs the accesses to P and Q as local code; exhaustive search
    # still schedules each of them
    source = generate_concurrent(seed, private=True)
    local = {ins[1] for code in build_model(parse_source(source)).functions.values()
             for ins in code if ins[0] in ("local_read", "local_store")}
    assert {"P", "Q"} <= local
    assert_reduction_agrees(source)


@pytest.mark.parametrize("workers,increments", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_private_counter_family_matches_exhaustive(workers, increments):
    verdict = assert_reduction_agrees(private_counters(workers, increments))
    assert len(verdict.hb_races) == workers * (workers - 1) // 2
    assert all(r.variable == "G" for r in verdict.hb_races)


@pytest.mark.parametrize("workers,increments,explored", [(2, 2, 34), (3, 1, 36)])
def test_shared_counter_family_runs_one_schedule_per_class(workers, increments, explored):
    # Reads of G commute, so DPOR runs one schedule per class of schedules
    # that differ only in the order of reads: the exact class counts.
    verdict = assert_reduction_agrees(shared_counters(workers, increments))
    assert verdict.explored == explored


def test_four_shared_counters_run_one_schedule_per_class():
    # Exhaustive search passes 50,000 schedules here without finishing, so
    # the races are checked against their definition instead: every pair
    # of accesses of two workers but two reads, and 22 lockset keys.
    verdict = explore(parse_source(shared_counters(4, 1)))
    assert verdict.explored == 576 and not verdict.truncated
    lines = [4 + 5 * w for w in range(4)]  # each worker's G = G + 1
    pairs = {(a, b) for i, a in enumerate(lines) for b in lines[i + 1:]}
    expected = {(a, ca, b, cb) for a, b in pairs for ca, cb in [(5, 5), (5, 9), (9, 5)]}
    assert {(a.line, a.column, b.line, b.column)
            for _, a, b in (r.key() for r in verdict.hb_races)} == expected
    assert len(verdict.lockset_races) == 22


TWO_READERS = """\
int X;
int A;
int B;

void *R1(void *arg) {
    A = X;
    return 0;
}

void *R2(void *arg) {
    B = X;
    return 0;
}

int main() {
    pthread_t t1;
    pthread_t t2;
    pthread_create(&t1, 0, R1, 0);
    pthread_create(&t2, 0, R2, 0);
    pthread_join(t1, 0);
    pthread_join(t2, 0);
    X = 1;
    return 0;
}
"""


@pytest.mark.parametrize("reduction", ["dpor", "none"])
def test_write_after_two_unordered_reads_races_with_both(reduction):
    # Either read can be the access just before the write, so Eraser flags
    # both pairs; a schedule of one order must report the other too.
    verdict = explore(parse_source(TWO_READERS), reduction=reduction)
    keys = [(var, str(a), str(b)) for var, a, b in (r.key() for r in verdict.lockset_races)]
    assert keys == [("X", "6:9", "22:5"), ("X", "11:9", "22:5")]
    assert verdict.hb_races == ()


SLEEPING_READ = """\
int X;
int Y;

void *R(void *arg) {
    Y = X;
    return 0;
}

void *W(void *arg) {
    Y = X;
    X = 1;
    return 0;
}

int main() {
    pthread_t r;
    pthread_t w;
    pthread_create(&r, 0, R, 0);
    pthread_create(&w, 0, W, 0);
    pthread_join(r, 0);
    pthread_join(w, 0);
    return 0;
}
"""


def test_sleeping_read_stays_asleep_across_a_read_and_wakes_at_a_write():
    # R's read of X runs first; DPOR then runs W there instead, with R
    # asleep.  W's read of X commutes with R's, so R sleeps on; W's write
    # of X does not, so R wakes.
    search = _Dpor()
    steps = []  # (depth, thread, (kind, object), threads asleep) per step taken

    def choose(run, enabled):
        step = search.choose(run, enabled)
        if step is not None:
            steps.append((len(run.path), step.choice, step.op[:2], set(step.sleep or ())))
        return step

    run = _Run(build_model(parse_source(SLEEPING_READ)), DEFAULT_STEP_BUDGET, False, {}, {}, {})
    while run is not None:
        run.execute(choose)
        run = search.advance(run)

    def r_sleeps_after(op):
        for (depth, tid, ran, asleep), (after, _, _, still) in zip(steps, steps[1:]):
            if tid == 2 and ran == op and 1 in asleep and after == depth + 1:
                return 1 in still
        raise AssertionError(f"W never ran {op} while R slept")

    assert r_sleeps_after(("read", "X"))
    assert not r_sleeps_after(("write", "X"))
    read_x = ("read", "X", ("var", "X"))
    assert not _dependent(read_x, read_x)
    assert _dependent(("write", "X", ("var", "X")), read_x)


def test_blocked_lock_reversal_keeps_races():
    # The worker's lock can wait on main's critical section.  Checking a
    # pending operation only where it finally runs loses the reversal of
    # that lock, and with it these races on G.
    verdict = assert_reduction_agrees(generate_concurrent(22))
    got = [(a.line, a.column, b.line, b.column) for _, a, b in
           (r.key() for r in verdict.hb_races)]
    assert got == [(6, 5, 14, 5), (6, 5, 14, 9), (6, 9, 14, 5)]


FAULT_CUTS_RUN = """\
int G;
int H;
int Z;

void *Worker(void *arg) {
    H = 1;
    G = 1;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Worker, 0);
    G = 2;
    Z = 1 / Z;
    pthread_join(t, 0);
    return 0;
}
"""


def test_fault_does_not_hide_other_threads():
    # The division aborts the whole run, so in the first schedule the
    # worker never runs; the abort must count as dependent on its pending
    # operation, or the race on G is never found.
    verdict = assert_reduction_agrees(FAULT_CUTS_RUN)
    assert [r.variable for r in verdict.hb_races] == ["G"]


FAULT_BEFORE_GRANDCHILD = """\
int H;

void *A(void *arg) {
    int x = 1 / 0;
    return 0;
}

void *C(void *arg) {
    H = 2;
    return 0;
}

void *B(void *arg) {
    pthread_t c;
    pthread_create(&c, 0, C, 0);
    H = 1;
    pthread_join(c, 0);
    return 0;
}

int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, 0, A, 0);
    pthread_create(&b, 0, B, 0);
    pthread_join(a, 0);
    pthread_join(b, 0);
    return 0;
}
"""


@pytest.mark.parametrize("reduction,explored", [("dpor", 3), ("none", 9)])
def test_abort_reverses_every_waiting_thread(reduction, explored):
    # A's fault is the first operation DPOR runs once both threads exist,
    # and it ends the run before B does anything.  Only the rule for an
    # aborted run, that the fault depends on every other pending operation,
    # has DPOR run B first, and with it C and the race on H.
    verdict = explore(parse_source(FAULT_BEFORE_GRANDCHILD), reduction=reduction)
    got = [(var, a.line, a.column, b.line, b.column)
           for var, a, b in (r.key() for r in verdict.hb_races)]
    assert got == [("H", 9, 5, 16, 5)]
    assert verdict.explored == explored
    assert Diagnostic("error", "thread 1: division by zero") in verdict.diagnostics


def test_two_by_four_finishes_quickly():
    # exhaustive search passes 20,000 schedules here without finishing
    tree = parse_source(private_counters(2, 4))
    start = time.perf_counter()
    verdict = explore(tree)
    elapsed = time.perf_counter() - start
    assert not verdict.truncated
    assert [r.variable for r in verdict.hb_races] == ["G"]
    assert elapsed < 1.0


def test_unknown_reduction_rejected():
    with pytest.raises(ValueError):
        explore(parse_source("int main() { return 0; }\n"), reduction="sleep")
