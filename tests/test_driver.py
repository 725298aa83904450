"""The fix-until-clean loop, rollback, output modes, diffs, and the CLI."""

import pytest

from racefixer import FixConfig, explore, parse_source, run
from racefixer.cli import main as cli_main
from racefixer.driver import STATUS_CLEAN, STATUS_DEADLOCK, STATUS_NOTHING, render_diff
from racefixer.reports import SourceCoord

from conftest import FIXTURES_DIR, corpus, within_seconds


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

    def test_semantics_note_surfaces_for_else_if(self, tmp_source):
        path = tmp_source("race_else_if.c")
        report = run(FixConfig(source=str(path)))
        assert report.status == STATUS_CLEAN
        assert any("changes behavior" in n for n in report.iterations[0].notes)


class TestRunReportMode:
    def test_report_driven_fix(self, tmp_path):
        # build a source whose coordinates match a hand-written report
        source = tmp_path / "race.c"
        source.write_text(corpus("race_plain.c"))
        verdict = explore(parse_source(corpus("race_plain.c")))
        from racefixer.detector import render_tsan_log

        log = tmp_path / "tsan.log"
        log.write_text(render_tsan_log(verdict.hb_races, "race.c"))
        report = run(FixConfig(source=str(source), detector="report",
                               reports=(str(log),)))
        assert report.status == STATUS_CLEAN
        assert "pthread_mutex_lock(&__rf_mutex_Global);" in report.final_text
        # the patched result really is race-free
        assert explore(parse_source(report.final_text)).clean

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
        from racefixer.detector import render_tsan_log

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

    def test_report_mode_requires_reports(self):
        with pytest.raises(ValueError):
            FixConfig(source="x.c", detector="report")


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
