"""Benchmark of racefixer's fix loop: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --self-check            # show that the checks bite

One fix operation is one in-process call of ``racefixer.cli.main`` with
``fix <file>`` and diff output, timed until the log and diff are out.
A run is one process and one thread.  The last line of standard output
is a JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced pass.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
# Host speed probe: a fixed loop that shares no code with racefixer.  The
# timed phase's times are scaled to the host speed at which one probe takes
# PROBE_REF_S seconds (README.md, "Host speed").
PROBE_REF_S = 0.007
EXIT_CODES = {"Clean": 0, "NothingFixable": 1, "IterationCapReached": 1,
              "DeadlockIntroduced": 2}
END_TO_END_UNITS = {"setup_s": "s", "fix_p50_s": "s", "fixes_per_s": "1/s",
                    "peak_mem_mb": "MB"}
WORKLOAD_NAMES = ("corpus", "interleave", "wide-report")
# Times one import of racefixer's CLI in a fresh interpreter; argv[1] is src.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import racefixer.cli; "
                "print(time.perf_counter() - start)")


def _import_racefixer():
    """Import racefixer from this checkout's ``src``, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "racefixer" / "__init__.py").is_file():
        sys.exit(f"bench: no racefixer sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import racefixer
    from racefixer import cli

    if Path(racefixer.__file__).resolve().parent != src / "racefixer":
        sys.exit(f"bench: racefixer imported from {racefixer.__file__}, not {src}")
    return cli


class Bench:
    """Writes a workload's inputs to a scratch directory and runs them."""

    def __init__(self, entry, workdir: Path):
        self.entry = entry
        self.workdir = workdir
        self.ops = []
        self.paths: list[str] = []
        self.logs: list[list[str]] = []
        self.argv: list[list[str]] = []

    def prepare(self, ops) -> None:
        self.ops, self.paths, self.logs, self.argv = ops, [], [], []
        for i, op in enumerate(ops):
            path = self.workdir / f"op{i}.c"
            path.write_text(op.text, encoding="utf-8")
            logs = []
            for k, report in enumerate(op.reports):
                logs.append(str(self.workdir / f"op{i}_{k}.log"))
                Path(logs[-1]).write_text(report, encoding="utf-8")
            argv = ["fix", str(path)]
            if logs:
                argv += ["--detector", "report"]
                for log in logs:
                    argv += ["--report", log]
            self.paths.append(str(path))
            self.logs.append(logs)
            self.argv.append(argv)

    def call(self, argv, entry=None) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = (entry or self.entry)(argv)
        return code, out.getvalue(), err.getvalue()

    def pass_(self, entry=None, times=None, probes=None) -> list:
        """One call per operation.  Each starts from a collected heap, as a
        fresh ``racefixer`` process would, so one operation's cyclic garbage
        is not collected on the next one's clock.  With ``probes``, the host
        speed probe runs before the first operation and after each one."""
        results = []
        if probes is not None:
            probes.append(probe_s())
        for argv in self.argv:
            gc.collect()
            start = time.perf_counter()
            result = self.call(argv, entry)
            if times is not None:
                times.append(time.perf_counter() - start)
            if probes is not None:
                probes.append(probe_s())
            results.append(result)
        return results


def probe_s() -> float:
    """Seconds one run of the probe loop takes.

    Each object the loop makes is freed before the next is made, and no
    collection runs in it, so the heap racefixer leaves behind does not
    change the probe's work; only the host's speed does.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(12_000):
            node = {"key": i, "value": [i, str(i)]}
            total += len(node["value"][1]) + i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def _import_s() -> float:
    """Seconds a fresh process spends importing racefixer's CLI."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _setup(cli, workload: str, seed: int, workdir: Path):
    """Input generation, scratch files and one warm-up operation."""
    from inputs import WORKLOADS

    ops = WORKLOADS[workload](seed)
    order = list(range(len(ops)))
    random.Random(f"order:{seed}").shuffle(order)
    bench = Bench(cli.main, workdir)
    bench.prepare([ops[i] for i in order])
    bench.call(bench.argv[order.index(0)])  # warm up on the workload's first input
    return bench


# ---------------------------------------------------------------------------
# Checks (outside every timed phase)
# ---------------------------------------------------------------------------


def _oracle_races(text: str) -> set | None:
    """Races the trace oracle finds over every schedule; None if truncated.

    Used only by ``--self-check``, to confirm the frozen genconc labels.
    """
    from oracle import all_races
    from racefixer import cst, detector

    verdict = detector.explore(cst.parse_source(text), record_traces=True)
    if verdict.truncated:
        return None
    return {f"{var} {a.line} {a.column} {b.line} {b.column}"
            for var, (a, b) in all_races(verdict.traces)}


def check_op(bench: Bench, index: int, result, digest: dict) -> list[str]:
    """Problems with one fix result; an empty list means it is correct."""
    import checks
    from racefixer import cst

    op = bench.ops[index]
    code, stdout, _ = result
    log, status, diff = checks.parse_fix_stdout(stdout)
    if op.status is None:
        return [] if code != 0 else [f"exit code 0 ({status}); expected a non-zero exit"]
    problems = []
    if status != op.status:
        problems.append(f"status {status}; expected {op.status}")
    if code != EXIT_CODES.get(op.status):
        problems.append(f"exit code {code}; expected {EXIT_CODES.get(op.status)}")
    try:
        patched = checks.apply_unified_diff(op.text, diff)
    except (ValueError, IndexError) as exc:
        return problems + [f"diff does not apply: {exc}"]
    digest["texts"][op.name] = patched
    try:
        if cst.emit(cst.parse_source(patched)) != patched:
            problems.append("patched text does not emit losslessly")
    except cst.ParseError as exc:
        problems.append(f"patched text does not parse: {exc}")
    if op.status == "DeadlockIntroduced" and patched != op.text:
        problems.append("rolled-back fix changed the text")
    problems += checks.text_problems(op.text, patched, op.guarded if status == "Clean" else [])

    if op.reports:
        code, out, _ = bench.call(["parse-report", *bench.logs[index]])
        races, _, _ = checks.parse_detect_stdout(out)
        problems += checks.race_set_problems(races, op.races)
        want = [f"iteration=1 races={len(op.races)} fixed={op.patches} skipped=0",
                "iteration=2 races=0 fixed=0 skipped=0", "status=Clean"]
        if log != want:
            problems.append(f"log {log}; expected {want}")
        digest["races"][op.name] = sorted(races)
        return problems

    _, out, _ = bench.call(["detect", bench.paths[index]])
    races, deadlocks, truncated = checks.parse_detect_stdout(out)
    problems += checks.race_set_problems(races, op.races)
    if bool(deadlocks) != op.deadlock:
        problems.append(f"input deadlocks {deadlocks}; expected {op.deadlock}")
    if truncated != "0":
        problems.append(f"detect on the input: truncated={truncated}")
    digest["races"][op.name] = sorted(races)
    digest["deadlocks"][op.name] = deadlocks
    if status != "Clean":
        return problems

    fixed = bench.workdir / "fixed.c"
    fixed.write_text(patched, encoding="utf-8")
    _, out, _ = bench.call(["detect", str(fixed)])
    races, deadlocks, truncated = checks.parse_detect_stdout(out)
    if races or deadlocks or truncated != "0":
        problems.append(f"detect on the output: {sorted(races)} {deadlocks} "
                        f"truncated={truncated}")
    code, out, _ = bench.call(["fix", str(fixed)])
    if code != 0 or out != "iteration=1 races=0 fixed=0 skipped=0\nstatus=Clean\n":
        problems.append(f"fix on its own output changed something: {out!r}")
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _failures(bench: Bench, reference, digest: dict) -> dict[int, list[str]]:
    failures = {}
    for i in range(len(bench.ops)):
        problems = check_op(bench, i, reference[i], digest)
        if problems:
            failures[i] = problems
    return failures


def _digest(entries: dict) -> str:
    """Order-free hash of one result kind over all operations."""
    return hashlib.sha256(json.dumps(sorted(entries.items())).encode()).hexdigest()[:16]


def _unsteady(passes) -> dict[int, int]:
    """Operations whose output in some pass differs from the first pass's,
    with the number of such passes."""
    changed: dict[int, int] = {}
    for results in passes[1:]:
        for i, result in enumerate(results):
            if result != passes[0][i]:
                changed[i] = changed.get(i, 0) + 1
    return changed


def run_workload(args) -> int:
    cli = _import_racefixer()

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        samples = []  # each set-up is a fresh import plus inputs and a warm-up
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bench = _setup(cli, args.workload, args.seed, workdir)
            samples.append(time.perf_counter() - start + _import_s())
        setup_s = statistics.median(samples)
        gc.collect()
        gc.freeze()  # inputs and modules live all run; keep them out of every collection
        digest = {k: {} for k in ("races", "deadlocks", "texts")}
        if args.trace:
            metrics, passes = _traced(bench)
            failures = _failures(bench, passes[0], digest)
        else:
            metrics, unscaled, passes, failures = _timed(bench, args.seconds, digest)
            metrics["setup_s"] = setup_s
            print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = {i for i, op in enumerate(bench.ops) if op.fault}
    for i, count in _unsteady(passes).items():
        failures.setdefault(i, []).append(
            f"output differs from the first pass's in {count} of {len(passes)} passes")
    for i, problems in sorted(failures.items()):
        tag = "known fault" if i in known else "FAILED"
        print(f"{tag}: {bench.ops[i].name}: {'; '.join(problems)}")
    print(f"digest {args.workload} " + " ".join(
        f"{kind}={_digest(entries)}" for kind, entries in digest.items()))
    result = {
        "correct": set(failures) <= known,
        "attempted": sum(len(results) for results in passes),
        "failed": len(failures) * len(passes),  # a failed operation fails every pass
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _memory_pass(bench: Bench):
    """Highest tracemalloc peak of one operation, over one untimed pass.

    Collecting first keeps one operation's cyclic garbage out of the next
    one's peak.
    """
    peak = 0
    results = []
    tracemalloc.start()
    try:
        for argv in bench.argv:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results.append(bench.call(argv))
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak, results


def _timed(bench: Bench, seconds: float, digest: dict):
    """Timed passes in three segments, with the memory pass and the checks
    between them.

    The CPU speed of a shared host changes between states over seconds to
    minutes.  The probe runs between the operations of every pass, and the
    pass's times are scaled by PROBE_REF_S over the probes' mean, so each
    pass counts at the reference speed.  Each operation's time is then its
    mean over passes spread across the whole run.  Every segment runs whole
    passes; the run length counts unscaled seconds of operations.
    """
    times: list[list[float]] = []  # one list of operation times per pass
    scales: list[float] = []  # each pass's factor to the reference speed
    passes: list = []

    def segment(share: float) -> None:
        spent = 0.0
        while spent < share:
            times.append([])
            probes: list[float] = []
            passes.append(bench.pass_(times=times[-1], probes=probes))
            scales.append(PROBE_REF_S / statistics.fmean(probes))
            spent += sum(times[-1])

    segment(seconds / 3)
    peak, memory_results = _memory_pass(bench)
    segment(seconds / 3)
    failures = _failures(bench, passes[0], digest)
    segment(seconds - sum(map(sum, times)))
    passes.append(memory_results)
    scaled = [[t * scale for t in pass_times] for pass_times, scale in zip(times, scales)]
    per_op = [statistics.fmean(op) for op in zip(*scaled)]
    count = len(times) * len(per_op)
    metrics = {
        "fix_p50_s": statistics.median(per_op),
        "fixes_per_s": count / sum(map(sum, scaled)),
        "peak_mem_mb": peak / 2**20,
    }
    unscaled = {
        "fix_p50_s": statistics.median(statistics.fmean(op) for op in zip(*times)),
        "fixes_per_s": count / sum(map(sum, times)),
        "mean_factor": statistics.fmean(scales),
    }
    return metrics, unscaled, passes, failures


def _traced(bench: Bench, pairs: int = 3):
    """Per-layer metrics from a traced pass, and the tracing overhead.

    Untraced and traced passes alternate.  The overhead compares each
    operation's fastest traced time with its fastest untraced time, which
    keeps a burst of host slowness out of the figure; the layer sums come
    from the last traced pass.
    """
    from spans import Tracer, layer_metrics

    passes: list = []
    plain: list[list[float]] = []  # one list of operation times per pass
    traced: list[list[float]] = []
    for _ in range(pairs):
        plain.append([])
        passes.append(bench.pass_(times=plain[-1]))
        tracer = Tracer()
        with tracer:
            traced.append([])
            passes.append(bench.pass_(entry=tracer.wrap(bench.entry, "cli.main"),
                                      times=traced[-1]))

    # Shared operations executed, from an untimed pass that records traces.
    steps = 0
    for span in tracer.spans:
        if span.name == "detector.explore":
            verdict = tracer.explore(span.info["tree"], **span.info["kwargs"],
                                     record_traces=True)
            steps += sum(len(trace) for trace in verdict.traces)
    metrics = layer_metrics(tracer.spans, steps)
    def fastest(runs) -> float:
        return sum(min(op) for op in zip(*runs))

    metrics["trace.overhead_pct"] = (fastest(traced) / fastest(plain) - 1) * 100
    units = _per_layer_units()
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, passes


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()["per_layer"]}


# ---------------------------------------------------------------------------
# Whole-suite and self-check modes
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def self_check() -> int:
    """Feed each checker a deliberately broken result; all must be rejected.

    Also confirms that the frozen genconc race sets still match what the
    trace oracle finds over every schedule.
    """
    cli = _import_racefixer()
    import checks
    from inputs import corpus_ops

    ops = {op.name: op for op in corpus_ops()}
    op = ops["corpus/race_two_vars.c"]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        bench = Bench(cli.main, workdir)
        bench.prepare([op])
        _, stdout, _ = bench.call(bench.argv[0])
        _, detect_out, _ = bench.call(["detect", bench.paths[0]])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    patched = checks.apply_unified_diff(op.text, checks.parse_fix_stdout(stdout)[2])
    lines = patched.splitlines(keepends=True)
    unlocks = [i for i, l in enumerate(lines) if "pthread_mutex_unlock(&__rf_mutex_" in l]
    first_lock = next(i for i, l in enumerate(lines) if "pthread_mutex_lock(&__rf_" in l)
    no_unlock = "".join(l for i, l in enumerate(lines) if i != unlocks[0])
    unguarded = "".join(l for i, l in enumerate(lines) if i not in (first_lock, unlocks[0]))
    races, _, _ = checks.parse_detect_stdout(detect_out)
    cases = [
        ("correct result", checks.text_problems(op.text, patched, op.guarded)
         + checks.race_set_problems(races, op.races), False),
        ("one inserted unlock removed",
         checks.text_problems(op.text, no_unlock, op.guarded), True),
        ("one racy statement left unguarded",
         checks.text_problems(op.text, unguarded, op.guarded), True),
        ("one race dropped from the detect summary",
         checks.race_set_problems(races - {min(races)}, op.races), True),
    ]
    genconc = [o for o in ops.values() if o.name.startswith("genconc/")]
    cases.append(("frozen genconc labels against the trace oracle", [
        f"{o.name}: oracle {sorted(found)}" for o in genconc
        if (found := _oracle_races(o.text)) != o.races], False))
    ok = True
    for name, problems, should_fail in cases:
        verdict = "rejected" if problems else "accepted"
        good = bool(problems) == should_fail
        ok &= good
        print(f"{'ok ' if good else 'BAD'} {name}: {verdict} {problems[:2]}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"],
                        help="length of the timed phase (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
