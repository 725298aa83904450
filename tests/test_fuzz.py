"""Randomized cross-checks: detector vs oracle, and whole-pipeline runs.

Seeds are fixed, so failures reproduce; bump the ranges locally for a
longer soak.
"""

import pytest

from racefixer import FixConfig, explore, parse_source, run
from racefixer.cst import emit
from racefixer.transform import check_lock_balance
from racefixer.driver import STATUS_CLEAN, STATUS_DEADLOCK

from genconc import generate_concurrent
from oracle import all_races

DETECTOR_SEEDS = range(60)
PIPELINE_SEEDS = range(40)
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
    source = generate_concurrent(seed)
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
    if report.status == STATUS_DEADLOCK:
        # rollback means the shipped text introduces no guard deadlock
        assert not any(d.involves("__rf_mutex_") for d in verdict.deadlocks), (
            f"seed {seed}"
        )
