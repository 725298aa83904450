"""Parsing and aggregation of sanitizer-style data-race reports.

The input is the textual log dialect a thread sanitizer prints: one
``WARNING: ThreadSanitizer: data race`` block per race, a current-access
section and a "Previous ..." section each carrying stack frames, and a
``Location is global '<NAME>'`` line naming the variable.  Only the
variable name and the two topmost frame coordinates are extracted; the
rest of the log (creation stacks, summaries, module offsets) is skipped.

Parsing is total: malformed blocks become diagnostics, never exceptions.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator


def is_identifier(name: str) -> bool:
    """A C name as the lexer reads one: a letter or ``_``, then ``_`` or
    `str.isalnum` characters, so non-ASCII letters count."""
    return (name[:1].isalpha() or name[:1] == "_") and name.replace("_", "a").isalnum()


class SourceCoord(namedtuple("SourceCoord", "line column")):
    """1-based line/column pair, as printed in sanitizer frames."""

    __slots__ = ()

    def __new__(cls, line: int, column: int):
        if line < 1 or column < 1:
            raise ValueError(f"coordinates are 1-based, got {line}:{column}")
        return tuple.__new__(cls, (line, column))

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class DataRace(namedtuple("DataRace", "variable first second file")):
    """One parsed race: a variable name plus the two access coordinates."""

    __slots__ = ()

    def __new__(cls, variable: str, first: SourceCoord, second: SourceCoord,
                file: str | None = None):
        if not is_identifier(variable):
            raise ValueError(f"not a C identifier: {variable!r}")
        return tuple.__new__(cls, (variable, first, second, file))

    def key(self) -> tuple:
        """Identity under (variable, unordered coordinate pair)."""
        a, b = sorted((self.first, self.second))
        return (self.variable, a, b)

    def canonical(self) -> "DataRace":
        """Same race with the coordinate pair in sorted order."""
        a, b = sorted((self.first, self.second))
        if (a, b) == (self.first, self.second):
            return self
        return DataRace(self.variable, a, b, self.file)

    def summary_line(self) -> str:
        return (
            f"{self.variable} {self.first.line} {self.first.column}"
            f" {self.second.line} {self.second.column}"
        )


class RaceSet:
    """Deduplicated, deterministically ordered collection of races.

    Races are stored in canonical orientation (coordinates sorted), so
    set equality and merge results do not depend on which access a
    report happened to list first.
    """

    __slots__ = ("races",)

    def __init__(self, races: tuple[DataRace, ...]):
        self.races = races

    @staticmethod
    def of(races: Iterable[DataRace]) -> "RaceSet":
        by_key: dict[tuple, DataRace] = {}
        for race in races:
            canon = race.canonical()
            by_key.setdefault(canon.key(), canon)
        ordered = sorted(by_key.values(), key=DataRace.key)
        return RaceSet(tuple(ordered))

    def __iter__(self) -> Iterator[DataRace]:
        return iter(self.races)

    def __len__(self) -> int:
        return len(self.races)

    def __eq__(self, other) -> bool:
        return type(other) is RaceSet and other.races == self.races

    def __hash__(self) -> int:
        return hash(self.races)

    def __repr__(self) -> str:
        return f"RaceSet(races={self.races!r})"


class Diagnostic(namedtuple("Diagnostic", "severity message")):
    """severity is "warning", "error" or "advisory"."""

    __slots__ = ()

    def render(self, tool: str = "rf-parse") -> str:
        return f"{tool}: {self.severity}: {self.message}"


class ParseResult(namedtuple("ParseResult", "races diagnostics")):
    __slots__ = ()


_WARNING_MARK = "WARNING: ThreadSanitizer: data race"
_CURRENT_RE = re.compile(r"^\s*(?:Atomic\s+)?(Write|Read) of size \d+")
_PREVIOUS_RE = re.compile(r"^\s*Previous\s+(?:atomic\s+)?(write|read) of size \d+")
_FRAME_RE = re.compile(
    r"^\s*#\d+\s+(?P<func>.*?)\s+(?P<loc>[^\s()]+:\d+:\d+)(?:\s+\([^)]*\))?\s*$"
)
_LOCATION_RE = re.compile(r"^\s*Location is (?P<kind>global|heap block|stack)\b")
_GLOBAL_NAME_RE = re.compile(r"^\s*Location is global '(?P<name>[^']+)'")


def _split_frame_loc(loc: str) -> tuple[str, SourceCoord]:
    # Split from the right: paths may themselves contain ':'.
    path, line, column = loc.rsplit(":", 2)
    return path, SourceCoord(int(line), int(column))


def _first_frame_after(lines: list[str], start: int) -> tuple[str, SourceCoord] | None:
    for line in lines[start + 1 :]:
        m = _FRAME_RE.match(line)
        if m:
            return _split_frame_loc(m.group("loc"))
    return None


def _parse_block(lines: list[str], block_no: int) -> tuple[DataRace | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []

    current_idx = next((i for i, l in enumerate(lines) if _CURRENT_RE.match(l)), None)
    previous_idx = next((i for i, l in enumerate(lines) if _PREVIOUS_RE.match(l)), None)
    location_idx = next((i for i, l in enumerate(lines) if _LOCATION_RE.match(l)), None)

    def malformed(what: str) -> tuple[None, list[Diagnostic]]:
        diags.append(
            Diagnostic("warning", f"skipping race block {block_no}: {what}")
        )
        return None, diags

    if current_idx is None:
        return malformed("no access section found")
    if previous_idx is None:
        return malformed("no previous-access section found")
    if location_idx is None:
        return malformed("no location line found")

    kind = _LOCATION_RE.match(lines[location_idx]).group("kind")
    if kind != "global":
        diags.append(
            Diagnostic(
                "warning",
                f"race block {block_no} is on a {kind} location; "
                "only global variables are supported",
            )
        )
        return None, diags

    name_match = _GLOBAL_NAME_RE.match(lines[location_idx])
    if name_match is None:
        return malformed("location line names no variable")

    first = _first_frame_after(lines, current_idx)
    second = _first_frame_after(lines, previous_idx)
    if first is None or second is None:
        return malformed("access section has no parseable stack frame")

    try:
        race = DataRace(
            variable=name_match.group("name"),
            first=first[1],
            second=second[1],
            file=first[0],
        )
    except ValueError as exc:
        return malformed(str(exc))
    return race, diags


def parse_report(text: str) -> ParseResult:
    """Extract all data-race records from one sanitizer log.

    Returns a deduplicated, deterministically ordered race set plus one
    diagnostic per block that could not be used.  Arbitrary program
    output around and between warning blocks is ignored.
    """
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if _WARNING_MARK in line]

    races: list[DataRace] = []
    diagnostics: list[Diagnostic] = []
    for n, start in enumerate(starts, start=1):
        end = starts[n] if n < len(starts) else len(lines)
        race, diags = _parse_block(lines[start:end], n)
        diagnostics.extend(diags)
        if race is not None:
            races.append(race)
    return ParseResult(RaceSet.of(races), tuple(diagnostics))


def merge_runs(sets: Iterable[RaceSet]) -> RaceSet:
    """Union of race sets from several detector runs."""
    merged: list[DataRace] = []
    for rs in sets:
        merged.extend(rs.races)
    return RaceSet.of(merged)


def format_summary(races: RaceSet) -> str:
    """One "<variable> <line> <col> <line> <col>" line per race."""
    return "".join(race.summary_line() + "\n" for race in races)
