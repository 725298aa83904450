"""The fix loops, one per race source.  `run` reads the file and hands it on.

* `_fix_builtin` detects, patches and re-detects until the program is
  clean, nothing could be fixed, or the iteration cap.  A deadlock on one
  of our synthesized guards rolls the iteration back (DeadlockIntroduced).
  A last check without races ends Clean, or NothingFixable if the program
  can deadlock on its own mutexes, whether or not the cap was reached.
* `_fix_from_reports` patches the races of the report files once: their
  coordinates describe the unpatched file.  It then logs an empty second
  iteration and ends Clean, unless a race could not be acted on
  (NothingFixable, patched text kept) or the cap is 1.

A round of either loop (`_patch_round`) locates both coordinates of every
race, plans the matching templates, coalesces the patches and applies them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import cst, detector as race_detector, transform
from .reports import DataRace, Diagnostic, RaceSet, merge_runs, parse_report
from .transform import MUTEX_PREFIX

STATUS_CLEAN = "Clean"
STATUS_DEADLOCK = "DeadlockIntroduced"
STATUS_CAP = "IterationCapReached"
STATUS_NOTHING = "NothingFixable"

EXIT_CODES = {
    STATUS_CLEAN: 0,
    STATUS_CAP: 1,
    STATUS_NOTHING: 1,
    STATUS_DEADLOCK: 2,
}


@dataclass
class FixConfig:
    source: str
    detector: str = "builtin"  # "builtin" | "report"
    reports: tuple[str, ...] = ()
    max_iterations: int = 10
    bound: int = race_detector.DEFAULT_BOUND
    output: str = "diff"  # "in_place" | "out" | "diff"
    out_path: str | None = None
    lockset_mode: str = "hb"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.detector == "report" and not self.reports:
            raise ValueError("detector=report requires at least one report file")
        if self.output == "out" and not self.out_path:
            raise ValueError("output=out requires an output path")


@dataclass
class IterationRecord:
    index: int
    races: RaceSet
    applied: int = 0
    skipped: list[tuple[DataRace, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class FixReport:
    status: str
    iterations: list[IterationRecord]
    original_text: str
    final_text: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def log_lines(self) -> list[str]:
        lines = [
            f"iteration={it.index} races={len(it.races)} fixed={it.applied} "
            f"skipped={len(it.skipped)}"
            for it in self.iterations
        ]
        lines.append(f"status={self.status}")
        return lines


def render_diff(before: str, after: str, name: str = "source") -> str:
    """Unified diff with three context lines; empty when texts match."""
    import difflib  # only a diff needs it; kept off the import path

    diff = difflib.unified_diff(
        before.splitlines(keepends=True),
        after.splitlines(keepends=True),
        fromfile=f"a/{name}",
        tofile=f"b/{name}",
        n=3,
    )
    return "".join(diff)


def _detect(tree, config: FixConfig, source_name: str):
    """Run the built-in detector on a parsed text; returns (race set,
    verdict, advisories)."""
    verdict = race_detector.explore(tree, bound=config.bound)
    races, advisories = race_detector.hybrid_verdict(
        verdict.hb_races, verdict.lockset_races, config.lockset_mode, source_name
    )
    return races, verdict, advisories


class _Group:
    """The accesses of one variable that land on one statement: the races
    behind them and the one patch that serves them all."""

    __slots__ = ("plan", "handle", "races", "patch")

    def __init__(self, plan: transform.MutexPlan, handle: cst.StatementHandle):
        self.plan = plan
        self.handle = handle
        self.races: list[DataRace] = []
        self.patch: transform.Patch | None = None


def _plan_patches(tree, races: RaceSet, record: IterationRecord,
                  diagnostics: list[Diagnostic]):
    """Locate both coordinates of each race and build template patches.

    When several accesses of one variable land on the same statement
    (for example a racy while condition whose unbraced body also touches
    the variable), one patch serves them all; a whole-statement wrap
    wins over a condition template because it guards strictly more.
    """
    plans: dict[str, transform.MutexPlan] = {}
    groups: dict[tuple, _Group] = {}  # (variable, statement identity) -> group
    race_reasons: dict[DataRace, list[str]] = {}

    for race in races:
        race_reasons[race] = []
        try:
            plan = plans.get(race.variable)
            if plan is None:
                plan = transform.plan_mutex(race.variable, tree)
                plans[race.variable] = plan
        except transform.UnknownVariable as exc:
            race_reasons[race].append(str(exc))
            continue

        for coord in (race.first, race.second):
            try:
                handle = cst.locate(tree, race.variable, coord)
            except cst.NotFoundError as exc:
                race_reasons[race].append(str(exc))
                continue
            if handle.role == cst.ROLE_UNSUPPORTED:
                race_reasons[race].append(f"{coord}: {handle.reason}")
                continue
            key = (race.variable, id(handle.node))
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(plan, handle)
            elif handle.role == cst.ROLE_PLAIN and group.handle.role != cst.ROLE_PLAIN:
                group.handle = handle
            group.races.append(race)

    patches: list[transform.Patch] = []
    for group in groups.values():
        try:
            group.patch = transform.patch_for(group.handle, group.plan)
        except transform.UnsupportedControlFlow as exc:
            for race in group.races:
                race_reasons[race].append(f"{group.handle.node.span.start}: {exc}")
            continue
        patches.append(group.patch)
        for note in group.patch.notes:
            if note not in record.notes:
                record.notes.append(note)

    covered = {race for group in groups.values() if group.patch is not None
               for race in group.races}
    for race in races:
        if race not in covered:
            record.skipped.append(
                (race, "; ".join(race_reasons[race]) or "not locatable")
            )
        else:
            for reason in race_reasons[race]:
                diagnostics.append(
                    Diagnostic("warning", f"{race.summary_line()}: {reason}")
                )
    return patches


def _patch_round(tree, text: str, races: RaceSet, record: IterationRecord,
                 diagnostics: list[Diagnostic]):
    """Plan, coalesce and apply the patches for `races`.

    Returns the patched text and its parse, or None when no edit is left.
    """
    patches = _plan_patches(tree, races, record, diagnostics)
    coalesced = transform.coalesce(patches, text)
    for _, reason in coalesced.deferred:
        diagnostics.append(Diagnostic("warning", reason))
    record.applied = len(coalesced.patches)  # coalesce keeps only patches with edits
    if not coalesced.edits:
        return None
    new_text = cst.apply_edits(text, coalesced.edits)
    return new_text, cst.parse_source(new_text)  # the patched text must stay parseable


def run(config: FixConfig) -> FixReport:
    """Fix races in one source file until clean, stuck, or capped."""
    source_path = Path(config.source)
    original = source_path.read_text(encoding="utf-8")
    report = FixReport(STATUS_CAP, [], original, original)
    if config.detector == "builtin":
        report.final_text = _fix_builtin(config, original, source_path.name, report)
    else:
        report.final_text = _fix_from_reports(config, original, report)
    _write_output(config, report)
    return report


def _fix_builtin(config: FixConfig, text: str, source_name: str, report: FixReport) -> str:
    """Detect, patch and re-detect; sets the status and returns the final text."""
    tree = cst.parse_source(text)  # shared by detection and planning
    races, verdict, advisories = _detect(tree, config, source_name)
    report.diagnostics.extend(advisories)

    report.status = STATUS_CAP
    for index in range(1, config.max_iterations + 1):
        record = IterationRecord(index, races)
        report.iterations.append(record)
        if not races:
            break

        patched = _patch_round(tree, text, races, record, report.diagnostics)
        if patched is None:
            report.status = STATUS_NOTHING
            break
        races, verdict, advisories = _detect(patched[1], config, source_name)
        introduced = [d for d in verdict.deadlocks if d.involves(MUTEX_PREFIX)]
        if introduced:
            report.diagnostics.append(Diagnostic(
                "error",
                f"iteration {index} would introduce a deadlock on "
                f"{', '.join(sorted(introduced[0].involved_mutexes()))}; rolled back",
            ))
            report.status = STATUS_DEADLOCK
            break  # text deliberately not updated: rollback
        report.diagnostics.extend(advisories)
        text, tree = patched

    if report.status == STATUS_CAP and not races:
        # No races left, found by the loop or by the check at the cap.
        if verdict.deadlocks:
            report.diagnostics.append(Diagnostic(
                "warning",
                "no races, but the program can deadlock on its own mutexes; "
                "nothing for the race fixer to do",
            ))
            report.status = STATUS_NOTHING
        else:
            report.status = STATUS_CLEAN

    if verdict.truncated:
        # `verdict` is the check behind the final status, also after a rollback
        cause = (f"the bound of {config.bound} schedules" if verdict.explored >= config.bound
                 else "a thread's step budget")
        report.diagnostics.append(Diagnostic(
            "warning",
            f"status={report.status} rests on a truncated search: exploration "
            f"stopped at {cause}, so races or deadlocks may be missing",
        ))
    return text


def _fix_from_reports(config: FixConfig, text: str, report: FixReport) -> str:
    """Patch the races of the report files once; sets the status and
    returns the final text."""
    parsed = [parse_report(Path(p).read_text(encoding="utf-8")) for p in config.reports]
    for result in parsed:
        report.diagnostics.extend(result.diagnostics)
    races = merge_runs([result.races for result in parsed])

    if races:
        record = IterationRecord(1, races)
        report.iterations.append(record)
        patched = _patch_round(cst.parse_source(text), text, races, record,
                               report.diagnostics)
        if patched is not None:
            text = patched[0]
        if patched is None or record.skipped:
            # Some reported races could not be acted on; they remain.
            report.status = STATUS_NOTHING
            return text
        if config.max_iterations == 1:
            report.status = STATUS_CAP
            return text
    # Report coordinates describe the unpatched file, so the pass above
    # consumed them; a fresh report is needed to check the patched text.
    report.iterations.append(IterationRecord(len(report.iterations) + 1, RaceSet.of([])))
    report.status = STATUS_CLEAN
    return text


def _write_output(config: FixConfig, report: FixReport) -> None:
    if config.output == "out":
        Path(config.out_path).write_text(report.final_text, encoding="utf-8")
    elif config.output == "in_place" and report.final_text != report.original_text:
        Path(config.source).write_text(report.final_text, encoding="utf-8")
