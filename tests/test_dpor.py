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


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_matches_exhaustive(path):
    assert_reduction_agrees(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", range(60))
def test_generated_programs_match_exhaustive(seed):
    assert_reduction_agrees(generate_concurrent(seed))


@pytest.mark.parametrize("workers,increments", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_private_counter_family_matches_exhaustive(workers, increments):
    verdict = assert_reduction_agrees(private_counters(workers, increments))
    assert len(verdict.hb_races) == workers * (workers - 1) // 2
    assert all(r.variable == "G" for r in verdict.hb_races)


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
