"""Command-line front end.

Subcommands:

* ``racefixer fix <source>``          detect and patch until clean
* ``racefixer detect <source>``       print the built-in detector's verdict
* ``racefixer parse-report <path>...``  print the one-line-per-race summary

Exit codes: 0 clean, 1 races remain, 2 a fix would deadlock (rolled
back), 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import cst, detector, driver
from .reports import format_summary, merge_runs, parse_report

EXIT_INPUT_ERROR = 3
_BOUND_HELP = ("schedules explored per detection run, counted after "
              "partial-order reduction (default %(default)s)")


@functools.cache  # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racefixer",
        description="Find data races in a pthread-flavored C subset and patch "
                    "them with mutex guards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fix = sub.add_parser("fix", help="detect races and rewrite the source until clean")
    fix.add_argument("source")
    fix.add_argument("--detector", choices=["builtin", "report"], default="builtin")
    fix.add_argument("--report", action="append", default=[], metavar="PATH",
                     help="sanitizer report file (repeatable; detector=report)")
    fix.add_argument("--max-iterations", type=int, default=10)
    fix.add_argument("--bound", type=int, default=detector.DEFAULT_BOUND, help=_BOUND_HELP)
    out = fix.add_mutually_exclusive_group()
    out.add_argument("--in-place", action="store_true", help="rewrite the source file")
    out.add_argument("--out", metavar="PATH", help="write the patched source here")
    out.add_argument("--diff", action="store_true",
                     help="print a unified diff (default)")
    fix.add_argument("--lockset-mode", choices=["hb", "lockset", "union"], default="hb")
    fix.add_argument("--verbose", action="store_true")

    det = sub.add_parser("detect", help="run the built-in race detector")
    det.add_argument("source")
    det.add_argument("--bound", type=int, default=detector.DEFAULT_BOUND, help=_BOUND_HELP)
    det.add_argument("--lockset-mode", choices=["hb", "lockset", "union"], default="hb")
    det.add_argument("--tsan-format", action="store_true",
                     help="print races in the sanitizer log dialect")
    det.add_argument("--verbose", action="store_true")

    rep = sub.add_parser("parse-report", help="summarize sanitizer report files")
    rep.add_argument("paths", nargs="+")
    return parser


def _cmd_fix(args) -> int:
    if args.in_place:
        output = "in_place"
    elif args.out:
        output = "out"
    else:
        output = "diff"
    config = driver.FixConfig(
        source=args.source,
        detector=args.detector,
        reports=tuple(args.report),
        max_iterations=args.max_iterations,
        bound=args.bound,
        output=output,
        out_path=args.out,
        lockset_mode=args.lockset_mode,
    )
    report = driver.run(config)
    for line in report.log_lines():
        print(line)
    if args.verbose or report.status == driver.STATUS_DEADLOCK:
        for diag in report.diagnostics:
            print(diag.render("rf-fix"), file=sys.stderr)
    if output == "diff":
        diff = driver.render_diff(report.original_text, report.final_text,
                                  Path(args.source).name)
        if diff:
            print(diff, end="")
    return report.exit_code


def _cmd_detect(args) -> int:
    text = Path(args.source).read_text(encoding="utf-8")
    tree = cst.parse_source(text)
    verdict = detector.explore(tree, bound=args.bound)
    races, advisories = detector.hybrid_verdict(
        verdict.hb_races, verdict.lockset_races, args.lockset_mode,
        Path(args.source).name,
    )
    if args.tsan_format:
        mode_races = detector.select_races(verdict.hb_races, verdict.lockset_races,
                                           args.lockset_mode)
        print(detector.render_tsan_log(mode_races, args.source), end="")
    else:
        print(format_summary(races), end="")
        for deadlock in verdict.deadlocks:
            parts = [
                f"thread {t.tid} waiting on {t.waiting_on}"
                + (f" holding {','.join(t.held)}" if t.held else "")
                for t in deadlock.threads
            ]
            print("deadlock: " + "; ".join(parts))
        print(f"explored={verdict.explored} truncated={int(verdict.truncated)}")
    if args.verbose:
        for diag in advisories + verdict.diagnostics:
            print(diag.render("rf-detect"), file=sys.stderr)
    return 0 if (not races and not verdict.deadlocks) else 1


def _cmd_parse_report(args) -> int:
    results = []
    for path in args.paths:
        result = parse_report(Path(path).read_text(encoding="utf-8"))
        results.append(result)
        for diag in result.diagnostics:
            print(diag.render("rf-parse"), file=sys.stderr)
    merged = merge_runs([r.races for r in results])
    print(format_summary(merged), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    source = getattr(args, "source", None)
    try:
        if args.command == "fix":
            return _cmd_fix(args)
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "parse-report":
            return _cmd_parse_report(args)
        raise AssertionError(args.command)
    except (OSError, ValueError) as exc:
        print(f"racefixer: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (cst.ParseError, detector.UnsupportedConstruct) as exc:
        where = f"{source}:" if source else ""
        print(f"racefixer: error: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
