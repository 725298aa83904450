"""Randomized cross-checks: detector vs oracle, and whole-pipeline runs.

Seeds are fixed, so failures reproduce; bump the ranges locally for a
longer soak.  A fix must also add no behaviour: every final state of
the patched program is one the original can reach.  That is checked on
the Clean outcomes of the pipeline runs and on every corpus fix.
"""

import pytest

from racefixer import FixConfig, explore, parse_source, run
from racefixer.cst import emit
from racefixer.driver import STATUS_CLEAN, STATUS_DEADLOCK

from conftest import corpus_files
from genconc import generate_concurrent
from lock_balance import check_lock_balance
from oracle import all_races, assert_refines

DETECTOR_SEEDS = range(60)
PIPELINE_SEEDS = range(40)
CHAIN_SEEDS = range(30)
FUZZ_BOUND = 20_000


@pytest.mark.parametrize("seed", DETECTOR_SEEDS)
def test_detector_matches_oracle_on_generated_programs(seed):
    check_detector_against_oracle(seed, "dpor")


@pytest.mark.parametrize("seed", DETECTOR_SEEDS)
def test_exhaustive_detector_matches_oracle_on_generated_programs(seed):
    check_detector_against_oracle(seed, "none")


def check_detector_against_oracle(seed: int, reduction: str) -> None:
    source = generate_concurrent(seed)
    tree = parse_source(source)
    assert emit(tree) == source
    verdict = explore(tree, bound=FUZZ_BOUND, record_traces=True, reduction=reduction)
    assert not verdict.truncated, "generated program exceeded the fuzz bound"
    expected = all_races(verdict.traces)
    got = {
        (r.variable, tuple(sorted([r.current.coord, r.previous.coord])))
        for r in verdict.hb_races
    }
    assert got == expected, f"seed {seed}:\n{source}"


@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_fix_pipeline_invariants_on_generated_programs(seed, tmp_path):
    check_fix_pipeline(generate_concurrent(seed), seed, tmp_path)


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_fix_pipeline_invariants_on_generated_else_if_chains(seed, tmp_path):
    check_fix_pipeline(generate_concurrent(seed, chain=True), seed, tmp_path)


def check_fix_pipeline(source: str, seed: int, tmp_path) -> None:
    path = tmp_path / "prog.c"
    path.write_text(source)
    report = run(FixConfig(source=str(path), bound=FUZZ_BOUND))

    assert report.status in (
        "Clean", "DeadlockIntroduced", "IterationCapReached", "NothingFixable"
    ), f"seed {seed}"
    tree = parse_source(report.final_text)  # patched text always parses
    assert emit(tree) == report.final_text
    assert check_lock_balance(tree) == [], f"seed {seed}:\n{report.final_text}"

    verdict = explore(tree, bound=FUZZ_BOUND)
    if report.status == STATUS_CLEAN:
        assert verdict.hb_races == (), f"seed {seed}"
        assert verdict.deadlocks == (), f"seed {seed}"
        assert_refines(report.final_text, source)
    if report.status == STATUS_DEADLOCK:
        # rollback means the shipped text introduces no guard deadlock
        assert not any(d.involves("__rf_mutex_") for d in verdict.deadlocks), (
            f"seed {seed}"
        )


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_fix_adds_no_final_state_to_corpus_program(path, tmp_path):
    source = path.read_text(encoding="utf-8")
    target = tmp_path / path.name
    target.write_text(source)
    report = run(FixConfig(source=str(target)))
    if report.final_text != source:  # else it refines itself
        assert_refines(report.final_text, source)
