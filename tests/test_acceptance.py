"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import functools

from racefixer import FixConfig, explore, parse_report, parse_source, run
from racefixer.cst import emit
from racefixer.driver import STATUS_CLEAN, STATUS_DEADLOCK
from racefixer.reports import SourceCoord, format_summary
from racefixer.transform import fix_else_if, fix_if_with_else, fix_if_without_else, fix_while

from conftest import RACY_PROGRAMS, corpus, corpus_files, fixture
from genprog import generate
from oracle import all_races
import test_transform as golden


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number} ({name}): FAIL")
                raise
            print(f"acceptance {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "report round-trip")
def test_criterion_1_report_round_trip():
    result = parse_report(fixture("tsan_global_race.log"))
    assert len(result.races) == 1
    assert format_summary(result.races) == "Global 5 10 12 10\n"


@criterion(2, "template golden files")
def test_criterion_2_template_golden_files():
    cases = [
        (golden.GOLDEN_IF_WITH_ELSE_INPUT, SourceCoord(5, 9),
         fix_if_with_else, golden.GOLDEN_IF_WITH_ELSE_EXPECTED),
        (golden.GOLDEN_IF_WITHOUT_ELSE_INPUT, SourceCoord(5, 9),
         fix_if_without_else, golden.GOLDEN_IF_WITHOUT_ELSE_EXPECTED),
        (golden.GOLDEN_ELSE_IF_INPUT, SourceCoord(7, 16),
         fix_else_if, golden.GOLDEN_ELSE_IF_EXPECTED),
        (golden.GOLDEN_WHILE_INPUT, SourceCoord(5, 12),
         fix_while, golden.GOLDEN_WHILE_EXPECTED),
    ]
    for source, coord, fixer, expected in cases:
        patched = golden.apply_fix(source, "RACE", coord, fixer)
        assert golden.normalized(patched, "RACE") == golden.normalized(expected, "RACE"), (
            fixer.__name__
        )


@criterion(3, "lossless parse/emit")
def test_criterion_3_losslessness():
    files = corpus_files()
    assert len(files) >= 20
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert emit(parse_source(text)) == text, path.name
    for seed in range(200):
        text = generate(seed)
        assert emit(parse_source(text)) == text, f"generated seed {seed}"


@criterion(4, "end-to-end fix-point")
def test_criterion_4_end_to_end_fix_point(tmp_path):
    assert len(RACY_PROGRAMS) >= 6
    for name in RACY_PROGRAMS:
        path = tmp_path / name
        path.write_text(corpus(name))
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN, name
        assert len(report.iterations) <= 3, name
        verdict = explore(parse_source(report.final_text))
        assert verdict.hb_races == (), name
        assert verdict.deadlocks == (), name


@criterion(5, "detector oracle equivalence")
def test_criterion_5_oracle_equivalence():
    checked = 0
    for path in corpus_files():
        tree = parse_source(path.read_text(encoding="utf-8"))
        try:
            verdict = explore(tree, record_traces=True)
        except Exception:
            continue  # programs outside the detector's subset, if any
        threads = max((max((e[1] for e in t), default=0) for t in verdict.traces),
                      default=0) + 1
        accesses = max(
            (sum(1 for e in t if e[0] in ("read", "write")) for t in verdict.traces),
            default=0,
        )
        if threads > 2 or accesses > 6:
            continue
        expected = all_races(verdict.traces)
        got = {
            (r.variable, tuple(sorted([r.current.coord, r.previous.coord])))
            for r in verdict.hb_races
        }
        assert got == expected, path.name
        checked += 1
    assert checked >= 5  # the filter must not silently skip everything


@criterion(6, "lockset false-positive pedagogy")
def test_criterion_6_lockset_pedagogy():
    from racefixer.detector import hybrid_verdict

    demonstrated = False
    for name in ("lockset_single.c", "lockset_join.c"):
        verdict = explore(parse_source(corpus(name)))
        hb_set, advisories = hybrid_verdict(verdict.hb_races, verdict.lockset_races, "hb")
        ls_set, _ = hybrid_verdict(verdict.hb_races, verdict.lockset_races, "lockset")
        if len(ls_set) > 0 and len(hb_set) == 0:
            assert len(advisories) >= 1
            demonstrated = True
    assert demonstrated


@criterion(7, "deadlock guard and rollback")
def test_criterion_7_deadlock_guard(tmp_path):
    path = tmp_path / "deadlock_abba.c"
    original = corpus("deadlock_abba.c")
    path.write_text(original)
    report = run(FixConfig(source=str(path), output="in_place"))
    assert report.status == STATUS_DEADLOCK
    assert report.exit_code == 2
    assert path.read_bytes() == original.encode()


@criterion(8, "idempotence on clean output")
def test_criterion_8_idempotence(tmp_path):
    for name in RACY_PROGRAMS:
        first = tmp_path / f"first_{name}"
        first.write_text(corpus(name))
        initial = run(FixConfig(source=str(first), output="in_place"))
        assert initial.status == STATUS_CLEAN, name

        again = run(FixConfig(source=str(first), output="in_place"))
        assert again.status == STATUS_CLEAN, name
        assert again.exit_code == 0, name
        assert again.final_text == again.original_text, name
        assert all(it.applied == 0 for it in again.iterations), name


@criterion(9, "reproducibility")
def test_criterion_9_reproducibility(tmp_path):
    for name in RACY_PROGRAMS[:4] + ["deadlock_abba.c", "return_race.c"]:
        outputs = []
        for attempt in (1, 2):
            path = tmp_path / f"{attempt}_{name}"
            path.write_text(corpus(name))
            report = run(FixConfig(source=str(path)))
            outputs.append(
                (report.status, report.final_text, tuple(report.log_lines()),
                 tuple(d.message for d in report.diagnostics))
            )
        assert outputs[0] == outputs[1], name
