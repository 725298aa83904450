"""Spans around racefixer's layer entry points, and the per-layer metrics.

Each wrapper replaces a function where its caller looks it up (the
module attribute the caller reads at call time), records one span with
name, start, end and parent, and keeps whatever the per-layer metrics
need from the arguments or the result.  Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _parse_info(args, kwargs, result) -> dict:
    text = args[0]
    return {"chars": len(text), "text": hashlib.sha1(text.encode()).hexdigest()}


def _explore_info(args, kwargs, result) -> dict:
    return {"tree": args[0], "kwargs": dict(kwargs), "schedules": result.explored,
            "truncated": result.truncated}


def _coalesce_info(args, kwargs, result) -> dict:
    inserted = sum(e.replacement.count("\n") for e in result.edits)
    return {"edits_in": sum(len(p.edits) for p in args[0]),
            "edits_out": len(result.edits), "inserted_lines": inserted}


def _report_info(args, kwargs, result) -> dict:
    return {"races": len(result.races)}


def _run_info(args, kwargs, result) -> dict:
    return {"iterations": len(result.iterations)}


def _template_info(args, kwargs, result) -> dict:
    return {"patches": 1}


class Tracer:
    """Installs the wrappers while active and collects spans."""

    def __init__(self):
        from racefixer import cst, detector, driver, transform

        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._targets = [
            (driver, "run", "driver.run", _run_info),
            (driver, "render_diff", "driver.render_diff", None),
            (driver, "parse_report", "reports.parse_report", _report_info),
            (detector, "explore", "detector.explore", _explore_info),
            (detector, "hybrid_verdict", "detector.hybrid_verdict", None),
            (cst, "parse_source", "cst.parse_source", _parse_info),
            (cst, "locate", "cst.locate", None),
            (cst, "apply_edits", "cst.apply_edits", None),
            (transform, "plan_mutex", "transform.plan_mutex", None),
            (transform, "coalesce", "transform.coalesce", _coalesce_info),
        ] + [
            (transform, name, f"transform.{name}", _template_info)
            for name in ("fix_plain", "fix_if_with_else", "fix_if_without_else",
                         "fix_else_if", "fix_while")
        ]
        self.explore = detector.explore  # the unwrapped explorer, for counting passes

    def wrap(self, func, name: str, info=None):
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name, info in self._targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], steps: int) -> dict[str, float]:
    """Per-layer sums over one pass.  ``steps`` comes from a counting pass."""
    by_name: dict[str, list[Span]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            child_time[span.parent] += span.seconds

    def total(*names: str) -> float:
        return sum(s.seconds for n in names for s in by_name.get(n, []))

    def count(*names: str) -> int:
        return sum(len(by_name.get(n, [])) for n in names)

    def info_sum(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in by_name.get(name, []))

    def self_time(layer: str) -> float:
        return sum(s.seconds - child_time[i] for i, s in enumerate(spans)
                   if s.name.split(".", 1)[0] == layer)

    explore_s = total("detector.explore")
    schedules = info_sum("detector.explore", "schedules")
    parses = by_name.get("cst.parse_source", [])
    parse_s = total("cst.parse_source")
    templates = [n for n in by_name if n.startswith("transform.fix_")]
    fix_s = total("cli.main")
    return {
        "cli.main_s": fix_s,
        "cli.self_s": self_time("cli"),
        "driver.iterations": info_sum("driver.run", "iterations"),
        "driver.self_s": self_time("driver"),
        "driver.render_diff_s": total("driver.render_diff"),
        "detector.explore_calls": count("detector.explore"),
        "detector.explore_s": explore_s,
        "detector.explore_share": _ratio(explore_s, fix_s),
        "detector.schedules": schedules,
        "detector.us_per_schedule": _ratio(explore_s * 1e6, schedules),
        "detector.steps": steps,
        "detector.us_per_step": _ratio(explore_s * 1e6, steps),
        "detector.truncated_runs": sum(
            1 for s in by_name.get("detector.explore", []) if s.info["truncated"]),
        "cst.parse_calls": len(parses),
        "cst.parses_per_text": _ratio(len(parses), len({s.info["text"] for s in parses})),
        "cst.parse_s": parse_s,
        "cst.parse_kb_per_s": _ratio(sum(s.info["chars"] for s in parses) / 1024, parse_s),
        "cst.locate_calls": count("cst.locate"),
        "cst.locate_s": total("cst.locate"),
        "cst.apply_edits_s": total("cst.apply_edits"),
        "transform.patches": sum(info_sum(n, "patches") for n in templates),
        "transform.plan_s": total("transform.plan_mutex", *templates),
        "transform.coalesce_s": total("transform.coalesce"),
        "transform.edits_kept_ratio": _ratio(info_sum("transform.coalesce", "edits_out"),
                                             info_sum("transform.coalesce", "edits_in")),
        "transform.inserted_lines": info_sum("transform.coalesce", "inserted_lines"),
        "reports.parse_report_s": total("reports.parse_report"),
        "reports.races_parsed": info_sum("reports.parse_report", "races"),
    }
