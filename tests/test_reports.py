"""Report parsing, deduplication, merging and summary formatting."""

import pytest
from hypothesis import given, strategies as st

from racefixer import parse_report
from racefixer.cst import TextEdit, _tokenize
from racefixer.reports import (
    DataRace, Diagnostic, RaceSet, SourceCoord, format_summary, merge_runs,
)

from conftest import fixture


def race(variable, l1, c1, l2, c2):
    return DataRace(variable, SourceCoord(l1, c1), SourceCoord(l2, c2))


class TestParseReport:
    def test_example_log_yields_one_race(self):
        result = parse_report(fixture("tsan_global_race.log"))
        assert len(result.races) == 1
        (found,) = result.races
        assert found.variable == "Global"
        assert (found.first.line, found.first.column) == (5, 10)
        assert (found.second.line, found.second.column) == (12, 10)
        assert found.file == "/home/sanjay/llvm/source/sample_codes/race.c"
        assert result.diagnostics == ()

    def test_example_log_summary_is_exact(self):
        result = parse_report(fixture("tsan_global_race.log"))
        assert format_summary(result.races) == "Global 5 10 12 10\n"

    def test_empty_text(self):
        result = parse_report("")
        assert len(result.races) == 0
        assert result.diagnostics == ()

    def test_concatenated_log_deduplicates(self):
        text = fixture("tsan_global_race.log")
        assert parse_report(text + text).races == parse_report(text).races

    def test_read_race_with_noise_and_deeper_stack(self):
        result = parse_report(fixture("tsan_read_race.log"))
        (found,) = result.races
        assert found.variable == "shared_total"
        # topmost frame of each access section wins
        assert (found.first.line, found.first.column) == (30, 7)
        assert (found.second.line, found.second.column) == (44, 3)

    def test_heap_location_becomes_diagnostic(self):
        result = parse_report(fixture("tsan_heap_race.log"))
        assert len(result.races) == 0
        assert len(result.diagnostics) == 1
        assert "heap" in result.diagnostics[0].message

    def test_malformed_block_skipped_others_kept(self):
        result = parse_report(fixture("tsan_malformed.log"))
        assert [r.variable for r in result.races] == ["ok_var"]
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].render().startswith("rf-parse: warning:")

    def test_total_on_garbage(self):
        result = parse_report("WARNING: ThreadSanitizer: data race\n\x00\xff garbage")
        assert len(result.races) == 0
        assert len(result.diagnostics) == 1

    def test_path_with_colons_splits_from_right(self):
        text = (
            "WARNING: ThreadSanitizer: data race (pid=1)\n"
            "  Write of size 4 at 0x01 by thread T1:\n"
            "    #0 f C:/weird:dir/x.c:7:9 (a.out+0x1)\n"
            "  Previous write of size 4 at 0x01 by main thread:\n"
            "    #0 main C:/weird:dir/x.c:9:1 (a.out+0x2)\n"
            "  Location is global 'g' of size 4 at 0x01 (a.out+0x01)\n"
        )
        (found,) = parse_report(text).races
        assert found.file == "C:/weird:dir/x.c"
        assert (found.first.line, found.first.column) == (7, 9)


class TestRaceSet:
    def test_orientation_is_canonicalized(self):
        a = race("g", 9, 2, 3, 4)
        b = race("g", 3, 4, 9, 2)
        assert RaceSet.of([a]) == RaceSet.of([b])

    def test_deterministic_order(self):
        races = [race("h", 3, 3, 4, 4), race("g", 1, 1, 2, 2), race("g", 1, 1, 1, 5)]
        ordered = RaceSet.of(races)
        assert [r.variable for r in ordered] == ["g", "g", "h"]
        assert ordered.races[0].summary_line() == "g 1 1 1 5"

    def test_self_race_allowed(self):
        # one statement reached by two threads: both frames agree
        r = race("g", 5, 5, 5, 5)
        assert len(RaceSet.of([r, r])) == 1


class TestMergeRuns:
    def test_union_of_empties(self):
        assert merge_runs([RaceSet.of([]), RaceSet.of([])]) == RaceSet.of([])

    def test_idempotent_union(self):
        a = RaceSet.of([race("g", 1, 1, 2, 2)])
        assert merge_runs([a, a]) == a

    def test_sorted_union(self):
        a = RaceSet.of([race("g", 1, 1, 2, 2)])
        b = RaceSet.of([race("h", 3, 3, 4, 4)])
        merged = merge_runs([a, b])
        assert [r.variable for r in merged] == ["g", "h"]
        assert merged == merge_runs([b, a])


coords = st.builds(SourceCoord, st.integers(1, 6), st.integers(1, 6))
races_st = st.builds(
    DataRace,
    st.sampled_from(["a", "b", "c"]),
    coords,
    coords,
)
race_sets = st.lists(races_st, max_size=5).map(RaceSet.of)


@given(race_sets, race_sets, race_sets)
def test_merge_is_associative_commutative_idempotent(x, y, z):
    assert merge_runs([merge_runs([x, y]), z]) == merge_runs([x, merge_runs([y, z])])
    assert merge_runs([x, y]) == merge_runs([y, x])
    assert merge_runs([x, x]) == x


@given(st.lists(races_st, max_size=6))
def test_format_summary_one_line_per_race(races):
    rs = RaceSet.of(races)
    text = format_summary(rs)
    lines = text.splitlines()
    assert len(lines) == len(rs)
    if rs:
        assert text.endswith("\n")
    for line, r in zip(lines, rs):
        assert line == r.summary_line()


def test_summary_of_empty_set_is_empty_string():
    assert format_summary(RaceSet.of([])) == ""


def test_coordinates_must_be_positive():
    with pytest.raises(ValueError):
        SourceCoord(0, 1)
    with pytest.raises(ValueError):
        SourceCoord(1, 0)


def test_variable_must_be_identifier():
    with pytest.raises(ValueError):
        DataRace("not an ident!", SourceCoord(1, 1), SourceCoord(2, 2))


class TestValueSemantics:
    """What the records keep from being frozen, ordered value types."""

    def test_coordinates_order_by_line_then_column(self):
        coords = [SourceCoord(3, 1), SourceCoord(1, 9), SourceCoord(2, 5), SourceCoord(1, 2)]
        assert sorted(coords) == [SourceCoord(1, 2), SourceCoord(1, 9), SourceCoord(2, 5),
                                  SourceCoord(3, 1)]
        assert SourceCoord(1, 9) < SourceCoord(2, 1) <= SourceCoord(2, 1)
        assert max(coords) == SourceCoord(3, 1)

    def test_equal_coordinates_are_one_dict_key(self):
        seen = {SourceCoord(4, 5): "first"}
        seen[SourceCoord(4, 5)] = "second"
        assert seen == {SourceCoord(4, 5): "second"}
        assert SourceCoord(4, 5) != SourceCoord(5, 4)

    def test_race_key_and_canonical(self):
        forward, backward = race("g", 3, 4, 9, 2), race("g", 9, 2, 3, 4)
        assert forward.key() == backward.key() == ("g", SourceCoord(3, 4), SourceCoord(9, 2))
        assert forward.canonical() is forward
        assert backward.canonical() == forward
        assert race("g", 3, 4, 9, 2) == forward and forward != race("h", 3, 4, 9, 2)
        flipped = DataRace("g", SourceCoord(9, 2), SourceCoord(3, 4), "a.c").canonical()
        assert flipped == DataRace("g", SourceCoord(3, 4), SourceCoord(9, 2), "a.c")

    def test_diagnostics_are_dict_keys_in_the_order_found(self):
        found = {}
        for diag in (Diagnostic("warning", "b"), Diagnostic("error", "a"),
                     Diagnostic("warning", "b"), Diagnostic("warning", "a")):
            found.setdefault(diag)
        assert list(found) == [Diagnostic("warning", "b"), Diagnostic("error", "a"),
                               Diagnostic("warning", "a")]

    @pytest.mark.parametrize("record, field", [
        (SourceCoord(1, 2), "line"),
        (race("g", 1, 1, 2, 2), "variable"),
        (TextEdit(0, "x"), "replacement"),
    ])
    def test_records_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("name", ["1x", "½x", ""])
def test_variable_must_not_start_with_a_numeral(name):
    with pytest.raises(ValueError, match="not a C identifier"):
        DataRace(name, SourceCoord(1, 1), SourceCoord(2, 2))


@pytest.mark.parametrize("name", ["x", "_x1", "Zähler", "x½"])
def test_variable_may_be_any_name_the_lexer_reads(name):
    (token, _eof) = _tokenize(name)
    assert token.kind == "ident" and token.text == name
    assert DataRace(name, SourceCoord(1, 1), SourceCoord(2, 2)).variable == name


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=400))
def test_parse_report_is_total(text):
    # never raises, whatever the input looks like
    result = parse_report(text)
    assert isinstance(result.races, RaceSet)


@given(st.text(max_size=300))
def test_parse_report_absorbs_repetition(text):
    assert parse_report(text + text).races == parse_report(text).races
