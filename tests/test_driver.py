"""The fix-until-clean loop, rollback, output modes, diffs, and the CLI."""

import inspect

import pytest

from racefixer import FixConfig, UnsupportedConstruct, explore, parse_source, run, transform
from racefixer.cli import main as cli_main
from racefixer.cst import TextEdit
from racefixer.detector import render_tsan_log
from racefixer.driver import STATUS_CLEAN, STATUS_DEADLOCK, STATUS_NOTHING, render_diff
from racefixer.reports import SourceCoord

from conftest import FIXTURES_DIR, corpus, fixture, within_seconds
from lock_balance import check_lock_balance


def worker_program(body: str) -> str:
    """A worker running `body` on globals R and x, while main writes R."""
    return (
        "int R;\nint x;\n\nvoid *Worker(void *arg) {\n" + body + "    return 0;\n}\n\n"
        "int main() {\n    pthread_t t;\n    pthread_create(&t, 0, Worker, 0);\n"
        "    R = 0;\n    pthread_join(t, 0);\n    return 0;\n}\n"
    )


class TestRunBuiltin:
    def test_two_writes_program_clean_in_two_iterations(self, tmp_source):
        path = tmp_source("race_plain.c")
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN
        assert len(report.iterations) == 2
        assert report.iterations[0].applied == 2  # one fix per write
        assert len(report.iterations[1].races) == 0
        verdict = explore(parse_source(report.final_text))
        assert verdict.hb_races == () and verdict.deadlocks == ()

    def test_already_clean_program(self, tmp_source):
        path = tmp_source("clean_locked.c")
        original = path.read_text()
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN
        assert len(report.iterations) == 1
        assert report.final_text == original

    def test_deadlock_introduced_rolls_back(self, tmp_source):
        path = tmp_source("deadlock_abba.c")
        original = path.read_text()
        report = run(FixConfig(source=str(path), output="in_place"))
        assert report.status == STATUS_DEADLOCK
        assert report.exit_code == 2
        assert path.read_text() == original  # byte-identical restore
        assert report.final_text == original

    def test_preexisting_deadlock_reported_not_fixed(self, tmp_source):
        path = tmp_source("deadlock_user.c")
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_NOTHING
        assert any("deadlock" in d.message for d in report.diagnostics)
        assert report.final_text == corpus("deadlock_user.c")

    def test_unfixable_return_race(self, tmp_source):
        path = tmp_source("return_race.c")
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_NOTHING
        assert report.exit_code == 1
        # the fixable side was still patched
        assert "pthread_mutex_lock(&__rf_mutex_State);" in report.final_text

    def test_race_after_break_and_continue_fixed(self, tmp_source):
        path = tmp_source("loop_break.c")
        report = run(FixConfig(source=str(path)))
        assert [len(it.races) for it in report.iterations] == [1, 0]
        (race,) = report.iterations[0].races
        assert race.variable == "G"
        assert sorted([race.first, race.second]) == [SourceCoord(12, 5), SourceCoord(19, 5)]
        assert report.status == STATUS_CLEAN
        locked = "pthread_mutex_lock(&__rf_mutex_G);\n    G = "
        assert report.final_text.count(locked) == 2  # both writes guarded
        verdict = explore(parse_source(report.final_text))
        assert verdict.hb_races == () and verdict.diagnostics == ()

    @pytest.mark.parametrize("cap", [1, 2])
    def test_own_deadlock_after_last_race_same_status_at_any_cap(self, tmp_path, cap):
        # deadlock_user.c plus one race on G, which one patch round fixes
        text = corpus("deadlock_user.c").replace(
            "void *Thread1(void *x) {\n", "int G;\n\nvoid *Thread1(void *x) {\n    G = 1;\n"
        ).replace("    pthread_join(t, 0);", "    G = 2;\n    pthread_join(t, 0);")
        path = tmp_path / "deadlock_race.c"
        path.write_text(text)
        report = run(FixConfig(source=str(path), max_iterations=cap))
        assert [len(it.races) for it in report.iterations] == [1, 0][:cap]
        assert report.status == STATUS_NOTHING
        assert [d.message for d in report.diagnostics if d.severity == "warning"] == [
            "no races, but the program can deadlock on its own mutexes; "
            "nothing for the race fixer to do"
        ]

    def test_iteration_cap_respected(self, tmp_source):
        path = tmp_source("race_plain.c")
        report = run(FixConfig(source=str(path), max_iterations=1))
        assert len(report.iterations) == 1
        # the single allowed iteration patched and verified clean
        assert report.status == STATUS_CLEAN

    def test_log_lines_format(self, tmp_source):
        path = tmp_source("race_plain.c")
        report = run(FixConfig(source=str(path)))
        lines = report.log_lines()
        assert lines[0] == "iteration=1 races=1 fixed=2 skipped=0"
        assert lines[-1] == "status=Clean"

    def test_else_if_fix_keeps_the_chain(self, tmp_source):
        path = tmp_source("race_else_if.c")
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN
        assert "    } else if (Mode) {\n" in report.final_text
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_Mode);\n    if (Level") == 1

    def test_variable_racing_in_chain_head_and_later_link(self, tmp_path):
        # both conditions read G: one guard from the head serves both
        path = tmp_path / "prog.c"
        path.write_text(
            "int G;\nint Out;\n\nvoid *Thread1(void *x) {\n"
            "    if (G > 1) {\n        Out = 1;\n    } else if (G == 1) {\n        Out = 2;\n    }\n"
            "    return 0;\n}\n\nint main() {\n    pthread_t t;\n"
            "    pthread_create(&t, 0, Thread1, 0);\n    G = 1;\n    pthread_join(t, 0);\n"
            "    return Out;\n}\n"
        )
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN and report.exit_code == 0
        assert report.log_lines()[0] == "iteration=1 races=2 fixed=2 skipped=0"
        thread1 = report.final_text.split("int main")[0]
        assert thread1.count("pthread_mutex_lock(&__rf_mutex_G);") == 1
        assert "pthread_mutex_lock(&__rf_mutex_G);\n    if (G > 1) {\n" in thread1
        assert thread1.count("pthread_mutex_unlock(&__rf_mutex_G);") == 3

    def test_two_races_on_one_statement_share_one_patch(self, tmp_path):
        # the worker's read and write of R are two races with main's write,
        # both landing on one statement of each thread: one patch each
        path = tmp_path / "prog.c"
        path.write_text(worker_program("    R = R + 1;\n"))
        report = run(FixConfig(source=str(path)))
        assert report.log_lines()[0] == "iteration=1 races=2 fixed=2 skipped=0"
        assert report.status == STATUS_CLEAN
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_R);\n    R = ") == 2
        assert report.final_text.count("pthread_mutex_unlock(&__rf_mutex_R);") == 2

    @pytest.mark.parametrize("branch,statement", [
        ("    if (R) { x = 8; }\n", "x = 8;"),
        ("    while (R) { x = x + 1; }\n", "x = x + 1;"),
    ], ids=["if", "while"])
    def test_statement_on_the_brace_line_moves_below_the_unlock(self, tmp_path, branch,
                                                                 statement):
        path = tmp_path / "prog.c"
        path.write_text(worker_program(branch))
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN
        lines = report.final_text.splitlines()
        (at,) = [i for i, line in enumerate(lines) if statement in line]
        assert lines[at].lstrip().startswith(statement)
        assert lines[at - 1].strip() == "pthread_mutex_unlock(&__rf_mutex_R);"
        assert check_lock_balance(parse_source(report.final_text)) == []
        path.write_text(report.final_text)
        again = run(FixConfig(source=str(path)))
        assert again.log_lines() == ["iteration=1 races=0 fixed=0 skipped=0", "status=Clean"]
        assert again.final_text == report.final_text


class TestUnparsablePatch:
    """A patched text that does not parse is the patches' fault, not the
    input's: the round is rolled back and the fix ends NothingFixable."""

    @pytest.fixture(autouse=True)
    def stray_brace(self, monkeypatch):
        original = transform.fix_plain

        def fix_plain(handle, mutex):
            patch = original(handle, mutex)
            patch.edits.append(TextEdit(patch.edits[0].start, "}\n"))
            return patch

        monkeypatch.setattr(transform, "fix_plain", fix_plain)

    def _source(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(corpus("race_plain.c"))
        return path

    def assert_rolled_back(self, report):
        assert report.status == STATUS_NOTHING and report.exit_code == 1
        assert report.final_text == corpus("race_plain.c")
        (error,) = [d for d in report.diagnostics if d.severity == "error"]
        assert error.message.startswith("iteration 1: the patched text does not parse (")
        assert error.message.endswith("); rolled back")

    def test_builtin_loop(self, tmp_path):
        self.assert_rolled_back(run(FixConfig(source=str(self._source(tmp_path)))))

    def test_report_loop(self, tmp_path):
        log = tmp_path / "tsan.log"
        log.write_text(render_tsan_log(explore(parse_source(corpus("race_plain.c"))).hb_races,
                                       "prog.c"))
        self.assert_rolled_back(run(FixConfig(source=str(self._source(tmp_path)),
                                              detector="report", reports=(str(log),))))

    def test_cli_exits_one_not_as_an_input_error(self, tmp_path, capsys):
        assert cli_main(["fix", str(self._source(tmp_path)), "--verbose"]) == 1
        err = capsys.readouterr().err
        assert "rf-fix: error: iteration 1: the patched text does not parse" in err
        assert "racefixer: error" not in err


# The built-in fix of `deferred_race_program`: the else-if is detached into
# the new else block, then locked there like any if.
ELSE_IF_SPLIT_FIXED = """\
int Mode;
pthread_mutex_t __rf_mutex_Mode = PTHREAD_MUTEX_INITIALIZER;
int Level;
pthread_mutex_t __rf_mutex_Level = PTHREAD_MUTEX_INITIALIZER;

void *Thread1(void *x) {
    // lock added by RaceFixer
    pthread_mutex_lock(&__rf_mutex_Level);
    if (Level > 10) {
        // unlock added by RaceFixer
        pthread_mutex_unlock(&__rf_mutex_Level);
        Level = 0;
    } else {
        // unlock added by RaceFixer
        pthread_mutex_unlock(&__rf_mutex_Level);
        // lock added by RaceFixer
        pthread_mutex_lock(&__rf_mutex_Mode);
        if (Mode) {
            // unlock added by RaceFixer
            pthread_mutex_unlock(&__rf_mutex_Mode);
            // lock added by RaceFixer
            pthread_mutex_lock(&__rf_mutex_Level);
            Level = 1;
            // unlock added by RaceFixer
            pthread_mutex_unlock(&__rf_mutex_Level);
        } else {
            // unlock added by RaceFixer
            pthread_mutex_unlock(&__rf_mutex_Mode);
        }
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    // lock added by RaceFixer
    pthread_mutex_lock(&__rf_mutex_Mode);
    Mode = 1;
    // unlock added by RaceFixer
    pthread_mutex_unlock(&__rf_mutex_Mode);
    // lock added by RaceFixer
    pthread_mutex_lock(&__rf_mutex_Level);
    Level = 5;
    // unlock added by RaceFixer
    pthread_mutex_unlock(&__rf_mutex_Level);
    pthread_join(t, 0);
    return Level;
}
"""


def deferred_race_program(tmp_path):
    """race_else_if.c plus a write of Level in main, and its report: the
    Mode read in the else-if condition conflicts with the Level patch of
    that chain, so report mode skips it."""
    text = corpus("race_else_if.c").replace("    Mode = 1;\n",
                                            "    Mode = 1;\n    Level = 5;\n")
    source = tmp_path / "prog.c"
    source.write_text(text)
    log = tmp_path / "tsan.log"
    log.write_text(render_tsan_log(explore(parse_source(text)).hb_races, "prog.c"))
    return source, log


class TestRunReportMode:
    def test_report_driven_fix(self, tmp_path):
        # build a source whose coordinates match a hand-written report
        source = tmp_path / "race.c"
        source.write_text(corpus("race_plain.c"))
        verdict = explore(parse_source(corpus("race_plain.c")))
        log = tmp_path / "tsan.log"
        log.write_text(render_tsan_log(verdict.hb_races, "race.c"))
        report = run(FixConfig(source=str(source), detector="report",
                               reports=(str(log),)))
        assert report.status == STATUS_CLEAN
        assert "pthread_mutex_lock(&__rf_mutex_Global);" in report.final_text
        # the patched result really is race-free
        assert explore(parse_source(report.final_text)).clean

    def test_report_mode_patches_program_the_model_rejects(self, tmp_path):
        # report mode never builds the model, so an undeclared name in an
        # unraced statement does not stop it
        source = tmp_path / "race.c"
        source.write_text(corpus("race_plain.c").replace("return Global;",
                                                         "return Global + Missing;"))
        with pytest.raises(UnsupportedConstruct, match="13:21: unknown identifier 'Missing'"):
            run(FixConfig(source=str(source)))
        log = tmp_path / "tsan.log"
        log.write_text(render_tsan_log(explore(parse_source(corpus("race_plain.c"))).hb_races,
                                       "race.c"))
        report = run(FixConfig(source=str(source), detector="report", reports=(str(log),)))
        assert report.status == STATUS_CLEAN
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_Global);") == 2

    def test_stale_report_nothing_fixable(self, tmp_path):
        source = tmp_path / "prog.c"
        source.write_text(corpus("race_plain.c"))
        log = tmp_path / "stale.log"
        log.write_text(
            "WARNING: ThreadSanitizer: data race (pid=1)\n"
            "  Write of size 4 at 0x01 by thread T1:\n"
            "    #0 f prog.c:99:1 (a.out+0x1)\n"
            "  Previous write of size 4 at 0x01 by main thread:\n"
            "    #0 main prog.c:98:1 (a.out+0x2)\n"
            "  Location is global 'Global' of size 4 at 0x01 (a.out+0x01)\n"
        )
        report = run(FixConfig(source=str(source), detector="report",
                               reports=(str(log),)))
        assert report.status == STATUS_NOTHING
        assert report.final_text == corpus("race_plain.c")
        (race, reason), = report.iterations[0].skipped
        assert "no reference" in reason

    STALE_BLOCK = (
        "WARNING: ThreadSanitizer: data race (pid=1)\n"
        "  Write of size 4 at 0x01 by thread T1:\n"
        "    #0 f prog.c:99:1 (a.out+0x1)\n"
        "  Previous write of size 4 at 0x01 by main thread:\n"
        "    #0 main prog.c:98:1 (a.out+0x2)\n"
        "  Location is global 'Global' of size 4 at 0x01 (a.out+0x01)\n"
    )

    def _report_run(self, tmp_path, stale: bool = False, **options):
        source = tmp_path / "prog.c"
        source.write_text(corpus("race_plain.c"))
        verdict = explore(parse_source(corpus("race_plain.c")))
        log = tmp_path / "tsan.log"
        log.write_text(render_tsan_log(verdict.hb_races, "prog.c")
                       + (self.STALE_BLOCK if stale else ""))
        return run(FixConfig(source=str(source), detector="report",
                             reports=(str(log),), **options))

    def test_report_mode_log_clean(self, tmp_path):
        report = self._report_run(tmp_path)
        assert report.log_lines() == [
            "iteration=1 races=1 fixed=2 skipped=0",
            "iteration=2 races=0 fixed=0 skipped=0",
            "status=Clean",
        ]
        assert report.status == STATUS_CLEAN

    def test_report_mode_log_iteration_cap(self, tmp_path):
        report = self._report_run(tmp_path, max_iterations=1)
        assert report.log_lines() == [
            "iteration=1 races=1 fixed=2 skipped=0",
            "status=IterationCapReached",
        ]
        assert report.status == "IterationCapReached"
        assert "pthread_mutex_lock(&__rf_mutex_Global);" in report.final_text

    def test_report_mode_log_stale_race_keeps_patch(self, tmp_path):
        report = self._report_run(tmp_path, stale=True)
        assert report.log_lines() == [
            "iteration=1 races=2 fixed=2 skipped=1",
            "status=NothingFixable",
        ]
        assert report.status == STATUS_NOTHING
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_Global);") == 2
        (race, reason), = report.iterations[0].skipped
        assert race.first.line == 98 and "no reference" in reason

    def test_report_mode_skips_race_whose_patch_was_deferred(self, tmp_path):
        source, log = deferred_race_program(tmp_path)
        report = run(FixConfig(source=str(source), detector="report",
                               reports=(str(log),)))
        assert report.log_lines() == [
            "iteration=1 races=3 fixed=4 skipped=1",
            "status=NothingFixable",
        ]
        (race, reason), = report.iterations[0].skipped
        assert race.variable == "Mode" and SourceCoord(7, 16) in (race.first, race.second)
        assert reason == "conflicts with an earlier patch"
        assert report.final_text.count("pthread_mutex_lock(&__rf_mutex_Level);") == 3
        # the built-in detector re-detects the Mode race and fixes it next round
        builtin = run(FixConfig(source=str(source)))
        assert builtin.status == STATUS_CLEAN
        assert len(builtin.iterations) == 3
        assert builtin.final_text == ELSE_IF_SPLIT_FIXED

    def test_bracing_a_multi_line_branch_indents_it(self, tmp_path):
        # the detached if moves into the new else block: its body one level
        # below it, the Level lock made in the same round with it, and each
        # closing brace under the line that opens it
        source, _ = deferred_race_program(tmp_path)
        report = run(FixConfig(source=str(source), max_iterations=1))
        assert report.final_text.split("void *Thread1(void *x) {\n")[1].split("int main")[0] == (
            "    // lock added by RaceFixer\n"
            "    pthread_mutex_lock(&__rf_mutex_Level);\n"
            "    if (Level > 10) {\n"
            "        // unlock added by RaceFixer\n"
            "        pthread_mutex_unlock(&__rf_mutex_Level);\n"
            "        Level = 0;\n"
            "    } else {\n"
            "        // unlock added by RaceFixer\n"
            "        pthread_mutex_unlock(&__rf_mutex_Level);\n"
            "        if (Mode) {\n"
            "            // lock added by RaceFixer\n"
            "            pthread_mutex_lock(&__rf_mutex_Level);\n"
            "            Level = 1;\n"
            "            // unlock added by RaceFixer\n"
            "            pthread_mutex_unlock(&__rf_mutex_Level);\n"
            "        }\n"
            "    }\n"
            "    return 0;\n"
            "}\n\n"
        )

    def test_report_mode_requires_reports(self):
        with pytest.raises(ValueError):
            FixConfig(source="x.c", detector="report")

    def test_reports_require_report_mode(self):
        with pytest.raises(ValueError, match="detector=report"):
            FixConfig(source="x.c", reports=("tsan.log",))

    def test_unknown_lockset_mode_rejected_before_the_file_is_read(self):
        # the file does not exist: reading it would raise OSError instead
        with pytest.raises(ValueError, match="unknown lockset mode: 'bogus'"):
            FixConfig(source="no/such/file.c", lockset_mode="bogus")

    @pytest.mark.parametrize("field", ["detector", "output"])
    def test_unknown_detector_or_output_rejected_before_the_file_is_read(self, field):
        with pytest.raises(ValueError, match=f"unknown {field}: 'bogus'"):
            FixConfig(source="no/such/file.c", **{field: "bogus"})

    def test_config_keywords_and_defaults(self):
        params = inspect.signature(FixConfig).parameters
        assert {name: param.default for name, param in params.items()} == {
            "source": inspect.Parameter.empty, "detector": "builtin", "reports": (),
            "max_iterations": 10, "bound": 100_000, "output": "diff", "out_path": None,
            "lockset_mode": "hb",
        }


class TestOutputModes:
    def test_diff_mode_leaves_file_alone(self, tmp_source):
        path = tmp_source("race_plain.c")
        original = path.read_text()
        run(FixConfig(source=str(path), output="diff"))
        assert path.read_text() == original

    def test_out_mode_writes_new_file(self, tmp_source, tmp_path):
        path = tmp_source("race_plain.c")
        out = tmp_path / "patched.c"
        report = run(FixConfig(source=str(path), output="out", out_path=str(out)))
        assert out.read_text() == report.final_text
        assert path.read_text() == corpus("race_plain.c")

    def test_in_place_mode_rewrites(self, tmp_source):
        path = tmp_source("race_plain.c")
        report = run(FixConfig(source=str(path), output="in_place"))
        assert path.read_text() == report.final_text
        assert "__rf_mutex_Global" in path.read_text()

    def test_out_mode_written_even_when_clean(self, tmp_source, tmp_path):
        path = tmp_source("clean_locked.c")
        out = tmp_path / "copy.c"
        run(FixConfig(source=str(path), output="out", out_path=str(out)))
        assert out.read_text() == corpus("clean_locked.c")


class TestRenderDiff:
    def test_identical_texts_empty_diff(self):
        assert render_diff("a\nb\n", "a\nb\n") == ""

    def test_single_insertion_one_hunk(self):
        before = "a\nb\nc\n"
        after = "a\nb\nX\nc\n"
        diff = render_diff(before, after)
        assert diff.count("@@") == 2  # one hunk header
        added = [l for l in diff.splitlines() if l.startswith("+") and not l.startswith("+++")]
        assert added == ["+X"]

    def test_while_fix_diff_contains_four_insertions(self, tmp_source):
        path = tmp_source("race_while.c")
        report = run(FixConfig(source=str(path)))
        diff = render_diff(report.original_text, report.final_text)
        added = [l for l in diff.splitlines() if l.startswith("+") and not l.startswith("+++")]
        # coalescing merges the body-start/body-end pair away, leaving the
        # declaration plus lock/unlock lines with their markers
        assert any("pthread_mutex_lock" in l for l in added)
        assert any("pthread_mutex_unlock" in l for l in added)
        assert any("__rf_mutex_Count = PTHREAD_MUTEX_INITIALIZER" in l for l in added)


class TestReproducibility:
    @pytest.mark.parametrize("name", ["race_plain.c", "race_while.c", "race_else_if.c"])
    def test_identical_inputs_identical_outputs(self, name, tmp_path):
        results = []
        for i in (1, 2):
            p = tmp_path / f"{i}_{name}"
            p.write_text(corpus(name))
            report = run(FixConfig(source=str(p)))
            results.append((report.status, report.final_text, report.log_lines()))
        assert results[0] == results[1]


class TestCli:
    def test_fix_diff_exit_zero(self, tmp_source, capsys):
        path = tmp_source("race_plain.c")
        code = cli_main(["fix", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status=Clean" in out
        assert "+    pthread_mutex_lock(&__rf_mutex_Global);" in out

    def test_fix_deadlock_exit_two(self, tmp_source, capsys):
        path = tmp_source("deadlock_abba.c")
        code = cli_main(["fix", str(path)])
        assert code == 2
        assert "status=DeadlockIntroduced" in capsys.readouterr().out

    def test_fix_verbose_warns_when_search_truncated(self, tmp_source, capsys):
        path = tmp_source("race_while.c")
        code = cli_main(["fix", str(path), "--bound", "1"])
        quiet = capsys.readouterr()
        assert cli_main(["fix", str(path), "--bound", "1", "--verbose"]) == code
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out  # log and diff unchanged
        assert "truncated search" in verbose.err
        assert "bound of 1 schedules" in verbose.err

    def test_fix_verbose_silent_about_complete_search(self, tmp_source, capsys):
        path = tmp_source("race_while.c")
        cli_main(["fix", str(path), "--verbose"])
        assert "truncated" not in capsys.readouterr().err

    def test_fix_nothing_fixable_exit_one(self, tmp_source, capsys):
        path = tmp_source("return_race.c")
        code = cli_main(["fix", str(path)])
        assert code == 1
        assert "status=NothingFixable" in capsys.readouterr().out

    def test_fix_missing_file_exit_three(self, capsys):
        assert cli_main(["fix", "no/such/file.c"]) == 3
        assert "error" in capsys.readouterr().err

    def test_fix_syntax_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int = 3;")
        assert cli_main(["fix", str(bad)]) == 3
        assert "1:5" in capsys.readouterr().err

    def test_break_outside_loop_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() {\n    break;\n}\n")
        assert cli_main(["fix", str(bad)]) == 3
        assert "2:5: 'break' outside a loop" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fix", "detect"])
    def test_name_declared_as_global_and_mutex_exit_three(self, tmp_path, capsys, command):
        from test_detector import GLOBAL_AND_MUTEX

        bad = tmp_path / "clash.c"
        bad.write_text(GLOBAL_AND_MUTEX)
        assert cli_main([command, str(bad)]) == 3
        captured = capsys.readouterr()
        assert "'M' is declared both as an int and as a mutex" in captured.err
        assert "status=" not in captured.out

    def test_report_without_report_detector_exit_three(self, tmp_source, tmp_path, capsys):
        path = tmp_source("race_plain.c")
        log = tmp_path / "tsan.log"
        log.write_text(fixture("tsan_global_race.log"))
        assert cli_main(["fix", str(path), "--report", str(log)]) == 3
        captured = capsys.readouterr()
        assert "report files are read only with detector=report" in captured.err
        assert captured.out == ""
        assert path.read_text() == corpus("race_plain.c")

    @pytest.mark.parametrize("command", ["fix", "detect"])
    def test_undeclared_name_exit_three(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.c"
        bad.write_text("int G;\n\nint main() {\n    G = Missing + 1;\n    return 0;\n}\n")
        assert cli_main([command, str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"racefixer: error: {bad}:4:9: unknown identifier 'Missing'\n"
        assert captured.out == ""

    def test_detect_reports_deadlock_on_a_join(self, tmp_path, capsys):
        # thread 1 has finished; main holds m and joins thread 2, which waits for m
        source = tmp_path / "join.c"
        source.write_text(
            "pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;\n\n"
            "void *Quick(void *arg) {\n    return 0;\n}\n\n"
            "void *Locker(void *arg) {\n    pthread_mutex_lock(&m);\n"
            "    pthread_mutex_unlock(&m);\n    return 0;\n}\n\n"
            "int main() {\n    pthread_t a;\n    pthread_t b;\n"
            "    pthread_create(&a, 0, Quick, 0);\n"
            "    pthread_mutex_lock(&m);\n"
            "    pthread_create(&b, 0, Locker, 0);\n"
            "    pthread_join(b, 0);\n"
            "    pthread_mutex_unlock(&m);\n"
            "    pthread_join(a, 0);\n    return 0;\n}\n"
        )
        assert cli_main(["detect", str(source)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("deadlock: thread 0 waiting on join:2 holding m; "
                          "thread 2 waiting on mutex:m")

    def test_fix_verbose_gives_reason_for_each_skipped_race(self, tmp_path, capsys):
        source, log = deferred_race_program(tmp_path)
        argv = ["fix", str(source), "--detector", "report", "--report", str(log)]
        code = cli_main(argv)
        quiet = capsys.readouterr()
        assert cli_main(argv + ["--verbose"]) == code == 1
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out  # log and diff unchanged
        assert "skipped" not in quiet.err
        skipped = [line for line in verbose.err.splitlines() if "skipped" in line]
        assert skipped == [
            "rf-fix: warning: skipped Mode 7 16 16 5: conflicts with an earlier patch",
        ]

    @pytest.mark.parametrize("command,bound", [("fix", "0"), ("detect", "-1")])
    def test_bound_below_one_exit_three(self, tmp_source, capsys, command, bound):
        path = tmp_source("race_plain.c")
        assert cli_main([command, str(path), "--bound", bound]) == 3
        captured = capsys.readouterr()
        assert f"bound must be at least 1, not {bound}" in captured.err
        assert captured.out == ""

    def test_detect_prints_summary(self, tmp_source, capsys):
        path = tmp_source("race_plain.c")
        code = cli_main(["detect", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "Global 4 5 11 5"
        assert "explored=2" in out

    def test_non_ascii_name_detect_and_fix(self, tmp_path, capsys):
        # the lexer reads 'Zähler' as one name, so a race on it is reported
        # and patched like any other
        path = tmp_path / "zaehler.c"
        path.write_text(corpus("race_plain.c").replace("Global", "Zähler"), encoding="utf-8")
        assert cli_main(["detect", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "Zähler 4 5 11 5"
        patched = tmp_path / "patched.c"
        assert cli_main(["fix", str(path), "--out", str(patched)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "status=Clean"
        lines = patched.read_text(encoding="utf-8").splitlines()
        writes = [n for n, line in enumerate(lines) if line.startswith("    Zähler = ")]
        assert len(writes) == 2
        for n in writes:
            assert lines[n - 1] == "    pthread_mutex_lock(&__rf_mutex_Zähler);"
            assert lines[n + 2] == "    pthread_mutex_unlock(&__rf_mutex_Zähler);"

    @pytest.mark.parametrize("body", ["", "continue;"])
    def test_detect_stops_loop_without_shared_access(self, tmp_path, capsys, body):
        path = tmp_path / "spin.c"
        path.write_text(f"int main() {{ while (1) {{ {body} }} return 0; }}\n")
        within_seconds(1.0, lambda: cli_main(["detect", str(path)]))
        assert "truncated=1" in capsys.readouterr().out

    def test_detect_clean_exit_zero(self, tmp_source, capsys):
        path = tmp_source("clean_locked.c")
        assert cli_main(["detect", str(path)]) == 0

    def test_detect_reports_deadlock(self, tmp_source, capsys):
        path = tmp_source("deadlock_user.c")
        code = cli_main(["detect", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "deadlock:" in out

    def test_detect_tsan_format_round_trips(self, tmp_source, capsys):
        path = tmp_source("race_plain.c")
        cli_main(["detect", str(path), "--tsan-format"])
        out = capsys.readouterr().out
        from racefixer import parse_report

        assert format_race_lines(parse_report(out)) == ["Global 4 5 11 5"]

    @pytest.mark.parametrize("mode", ["hb", "lockset", "union"])
    @pytest.mark.parametrize("name", ["race_plain.c", "lockset_join.c", "race_two_vars.c"])
    def test_detect_tsan_format_one_warning_per_race(self, tmp_source, capsys, name, mode):
        path = str(tmp_source(name))
        cli_main(["detect", path, "--lockset-mode", mode])
        summary = capsys.readouterr().out.splitlines()[:-1]  # drop the explored= line
        cli_main(["detect", path, "--lockset-mode", mode, "--tsan-format"])
        log = capsys.readouterr().out
        assert log.count("WARNING: ThreadSanitizer: data race") == len(summary)
        assert f"reported {len(summary)} warnings" in log

    def test_parse_report_cli(self, capsys):
        log = FIXTURES_DIR / "tsan_global_race.log"
        code = cli_main(["parse-report", str(log)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "Global 5 10 12 10\n"

    def test_parse_report_merges_multiple(self, capsys):
        a = FIXTURES_DIR / "tsan_global_race.log"
        b = FIXTURES_DIR / "tsan_read_race.log"
        cli_main(["parse-report", str(a), str(b)])
        out = capsys.readouterr().out
        assert out.splitlines() == ["Global 5 10 12 10", "shared_total 30 7 44 3"]

    def test_parse_report_diagnostics_on_stderr(self, capsys):
        log = FIXTURES_DIR / "tsan_malformed.log"
        cli_main(["parse-report", str(log)])
        captured = capsys.readouterr()
        assert captured.out == "ok_var 9 3 21 14\n"
        assert captured.err.startswith("rf-parse: warning:")

    def test_fix_in_place_idempotent_second_run(self, tmp_source, capsys):
        path = tmp_source("race_if_no_else.c")
        assert cli_main(["fix", str(path), "--in-place"]) == 0
        patched = path.read_text()
        assert cli_main(["fix", str(path), "--in-place"]) == 0
        out = capsys.readouterr().out
        assert path.read_text() == patched
        assert "iteration=1 races=0 fixed=0 skipped=0" in out


def format_race_lines(result) -> list[str]:
    from racefixer.reports import format_summary

    return format_summary(result.races).splitlines()


ADVERSARIAL_TWO_VARS_ONE_CONDITION = """int A;
int B;

void *Thread1(void *x) {
    if (A + B) {
        A = 0;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    A = 1;
    B = 2;
    pthread_join(t, 0);
    return 0;
}
"""

ADVERSARIAL_CHAIN_TWO_CONDITIONS = """int A;
int B;
int out;

void *Thread1(void *x) {
    if (A) {
        out = 1;
    } else if (B) {
        out = 2;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    A = 1;
    B = 2;
    pthread_join(t, 0);
    return out;
}
"""


class TestConflictingPatches:
    """Patches that cannot compose in one round defer and retry."""

    def _run_source(self, tmp_path, source, **kwargs):
        path = tmp_path / "prog.c"
        path.write_text(source)
        return run(FixConfig(source=str(path), **kwargs))

    def test_two_variables_in_one_condition_converges(self, tmp_path):
        report = self._run_source(tmp_path, ADVERSARIAL_TWO_VARS_ONE_CONDITION)
        assert report.status == STATUS_CLEAN
        assert len(report.iterations) == 3
        assert any("conflicts" in d.message for d in report.diagnostics)
        verdict = explore(parse_source(report.final_text))
        assert verdict.hb_races == () and verdict.deadlocks == ()

    def test_two_racy_conditions_in_one_chain_converges(self, tmp_path):
        report = self._run_source(tmp_path, ADVERSARIAL_CHAIN_TWO_CONDITIONS)
        assert report.status == STATUS_CLEAN
        assert len(report.iterations) <= 3
        verdict = explore(parse_source(report.final_text))
        assert verdict.hb_races == () and verdict.deadlocks == ()

    def test_iteration_cap_reached_when_work_remains(self, tmp_path):
        report = self._run_source(tmp_path, ADVERSARIAL_TWO_VARS_ONE_CONDITION,
                                  max_iterations=1)
        assert report.status == "IterationCapReached"
        assert report.exit_code == 1

    def test_union_mode_terminates_with_unfixable_advisories(self, tmp_source):
        path = tmp_source("race_plain.c")
        report = run(FixConfig(source=str(path), lockset_mode="union"))
        # the return-statement read stays flagged by the lockset side and
        # cannot be wrapped, so union mode ends without claiming Clean
        assert report.status == STATUS_NOTHING
        assert report.exit_code == 1
