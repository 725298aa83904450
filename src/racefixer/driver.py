"""The detect -> locate -> patch -> re-detect loop.

Each iteration obtains a race set (from the built-in detector or from
external report files), locates both coordinates of every race, plans
the matching template, coalesces the patches and applies them.  With the
built-in detector the patched program is immediately re-checked: a
deadlock involving one of our synthesized guards rolls the iteration
back and stops with DeadlockIntroduced.  The loop ends when the program
is clean, when nothing could be fixed, or at the iteration cap.
"""

from __future__ import annotations

import difflib
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
    applied: int
    skipped: list[tuple[DataRace, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    deadlocks_after: int = 0
    races_after: int = 0


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


def _plan_patches(tree, races: RaceSet, record: IterationRecord,
                  diagnostics: list[Diagnostic]):
    """Locate both coordinates of each race and build template patches.

    When several accesses of one variable land on the same statement
    (for example a racy while condition whose unbraced body also touches
    the variable), one patch serves them all; a whole-statement wrap
    wins over a condition template because it guards strictly more.
    """
    plans: dict[str, transform.MutexPlan] = {}
    groups: dict[tuple, dict] = {}  # (variable, statement identity) -> group
    race_reasons: dict[DataRace, list[str]] = {}
    race_groups: dict[DataRace, list[dict]] = {}

    for race in races:
        race_reasons[race] = []
        race_groups[race] = []
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
                group = {"plan": plan, "handle": handle, "races": []}
                groups[key] = group
            elif handle.role == cst.ROLE_PLAIN and group["handle"].role != cst.ROLE_PLAIN:
                group["handle"] = handle
            group["races"].append(race)
            race_groups[race].append(group)

    patches: list[transform.Patch] = []
    for group in groups.values():
        try:
            patch = _dispatch(group["handle"], group["plan"])
        except transform.UnsupportedControlFlow as exc:
            group["patch"] = None
            for race in group["races"]:
                race_reasons[race].append(
                    f"{group['handle'].node.span.start}: {exc}"
                )
            continue
        group["patch"] = patch
        patch.race = group["races"][0]
        patches.append(patch)
        for note in patch.notes:
            if note not in record.notes:
                record.notes.append(note)

    for race in races:
        covered = any(g.get("patch") is not None for g in race_groups[race])
        if not covered:
            record.skipped.append(
                (race, "; ".join(race_reasons[race]) or "not locatable")
            )
        else:
            for reason in race_reasons[race]:
                diagnostics.append(
                    Diagnostic("warning", f"{race.summary_line()}: {reason}")
                )
    return patches


def _dispatch(handle: cst.StatementHandle, plan: transform.MutexPlan) -> transform.Patch:
    if handle.role == cst.ROLE_PLAIN:
        return transform.fix_plain(handle, plan)
    if handle.role == cst.ROLE_IF_CONDITION:
        if handle.node.els is not None:
            return transform.fix_if_with_else(handle, plan)
        return transform.fix_if_without_else(handle, plan)
    if handle.role == cst.ROLE_ELSE_IF_CONDITION:
        return transform.fix_else_if(handle, plan)
    if handle.role == cst.ROLE_WHILE_CONDITION:
        return transform.fix_while(handle, plan)
    raise AssertionError(f"unhandled role {handle.role}")


def run(config: FixConfig) -> FixReport:
    """Fix races in one source file until clean, stuck, or capped."""
    source_path = Path(config.source)
    original = source_path.read_text(encoding="utf-8")
    source_name = source_path.name

    text = original
    report = FixReport(STATUS_CAP, [], original, original)

    builtin = config.detector == "builtin"
    races: RaceSet
    tree = None  # parse of `text`, made once and shared by detection and planning
    verdict = None
    if builtin:
        tree = cst.parse_source(text)
        races, verdict, advisories = _detect(tree, config, source_name)
        report.diagnostics.extend(advisories)
    else:
        parsed = [parse_report(Path(p).read_text(encoding="utf-8")) for p in config.reports]
        for result in parsed:
            report.diagnostics.extend(result.diagnostics)
        races = merge_runs([result.races for result in parsed])

    for index in range(1, config.max_iterations + 1):
        record = IterationRecord(index, races, applied=0)
        report.iterations.append(record)

        if not races:
            if builtin and verdict is not None and verdict.deadlocks:
                report.diagnostics.append(Diagnostic(
                    "warning",
                    "no races, but the program can deadlock on its own mutexes; "
                    "nothing for the race fixer to do",
                ))
                report.status = STATUS_NOTHING
            else:
                report.status = STATUS_CLEAN
            break

        if tree is None:
            tree = cst.parse_source(text)
        patches = _plan_patches(tree, races, record, report.diagnostics)
        coalesced = transform.coalesce(patches, text)
        for patch, reason in coalesced.deferred:
            report.diagnostics.append(Diagnostic("warning", reason))
        record.applied = len([p for p in coalesced.patches if not p.empty])

        if not coalesced.edits:
            report.status = STATUS_NOTHING
            break

        new_text = cst.apply_edits(text, coalesced.edits)
        new_tree = cst.parse_source(new_text)  # the patched text must stay parseable

        if builtin:
            races, verdict, advisories = _detect(new_tree, config, source_name)
            record.races_after = len(races)
            record.deadlocks_after = len(verdict.deadlocks)
            introduced = [
                d for d in verdict.deadlocks if d.involves(MUTEX_PREFIX)
            ]
            if introduced:
                report.diagnostics.append(Diagnostic(
                    "error",
                    f"iteration {index} would introduce a deadlock on "
                    f"{', '.join(sorted(introduced[0].involved_mutexes()))}; rolled back",
                ))
                report.status = STATUS_DEADLOCK
                break  # text deliberately not updated: rollback
            report.diagnostics.extend(advisories)
        text, tree = new_text, new_tree
        if not builtin:
            if record.skipped:
                # Some reported races could not be acted on; they remain.
                report.status = STATUS_NOTHING
                break
            # External reports refer to pre-patch coordinates, so they are
            # consumed by this one pass; a fresh report is needed per run.
            races = RaceSet.of([])
            record.races_after = 0
    else:
        # Cap reached; with the built-in detector the last verification may
        # still have come back clean.
        if builtin and not races and verdict is not None and not verdict.deadlocks:
            report.status = STATUS_CLEAN
        else:
            report.status = STATUS_CAP

    if verdict is not None and verdict.truncated:
        # `verdict` is the check behind the final status, also after a rollback
        cause = (f"the bound of {config.bound} schedules" if verdict.explored >= config.bound
                 else "a thread's step budget")
        report.diagnostics.append(Diagnostic(
            "warning",
            f"status={report.status} rests on a truncated search: exploration "
            f"stopped at {cause}, so races or deadlocks may be missing",
        ))

    report.final_text = text
    _write_output(config, report)
    return report


def _write_output(config: FixConfig, report: FixReport) -> None:
    if config.output == "out":
        Path(config.out_path).write_text(report.final_text, encoding="utf-8")
    elif config.output == "in_place" and report.final_text != report.original_text:
        Path(config.source).write_text(report.final_text, encoding="utf-8")
