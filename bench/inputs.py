"""Inputs and expected results for the three benchmark workloads.

Every workload is a list of fix operations.  An operation is one program
text (plus, for the report path, the sanitizer logs it is fixed from)
and the result it must produce.  Expectations never come from running
racefixer: corpus programs carry labels written by reading them, the
``interleave`` and ``wide-report`` generators emit the races they build
in, and ``genconc`` programs carry race sets frozen from the trace oracle.

The seed changes names, constants, report layout and operation order,
never the shape of the work, so timings from different seeds compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from genconc import generate_concurrent

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
GENCONC_SEEDS = range(60)

CLEAN = "Clean"
NOTHING = "NothingFixable"
DEADLOCK = "DeadlockIntroduced"


@dataclass
class Op:
    """One fix operation and the result it must produce."""

    name: str
    text: str
    reports: tuple[str, ...] = ()  # sanitizer logs; empty means built-in detector
    status: str | None = CLEAN  # expected final status; None: only a non-zero exit
    races: frozenset | None = frozenset()  # "<var> <l> <c> <l> <c>"; None: not checked
    deadlock: bool = False  # the input itself can deadlock
    patches: int | None = None  # report path: statement patches applied
    fault: str | None = None  # the program fault that makes this operation fail today
    guarded: list = field(default_factory=list)  # (var, line, col) to guard


def _races(*lines: str) -> frozenset:
    return frozenset(lines)


# Hand-written labels, from reading each program: final status, race set
# in the detector's summary form, and whether the input can deadlock.
CORPUS_LABELS = {
    "adjacent_merge.c": (CLEAN, _races(
        "Sum 4 5 12 5", "Sum 4 5 12 11", "Sum 4 11 12 5",
        "Sum 5 5 12 5", "Sum 5 5 12 11", "Sum 5 11 12 5")),
    "chain3.c": (CLEAN, _races()),
    "clean_locked.c": (CLEAN, _races()),
    "comments_heavy.c": (CLEAN, _races(
        "Done 10 9 21 5", "Done 10 9 21 12", "Done 10 16 21 5")),
    # Guards for X and Y nest in opposite orders in the two threads.
    "deadlock_abba.c": (DEADLOCK, _races("X 5 5 12 9", "Y 5 9 12 5")),
    "deadlock_user.c": (NOTHING, _races()),
    "decls.c": (CLEAN, _races()),
    "lockset_join.c": (CLEAN, _races()),
    "lockset_single.c": (CLEAN, _races()),
    "nested_while_merge.c": (CLEAN, _races(
        "Jobs 4 12 17 5", "Jobs 5 16 17 5", "Jobs 6 13 17 5", "Jobs 6 13 17 12",
        "Jobs 6 20 17 5", "Jobs 8 9 17 5", "Jobs 8 9 17 12", "Jobs 8 16 17 5")),
    "operators.c": (CLEAN, _races()),
    "race_else_if.c": (CLEAN, _races("Mode 7 16 16 5")),
    "race_if_else.c": (CLEAN, _races("Flag 5 9 16 5")),
    "race_if_no_else.c": (CLEAN, _races("Ready 5 9 14 5")),
    "race_plain.c": (CLEAN, _races("Global 4 5 11 5")),
    "race_two_vars.c": (CLEAN, _races("X 5 5 13 5", "Y 6 5 14 5")),
    "race_while.c": (CLEAN, _races(
        "Count 4 12 14 5", "Count 5 9 14 5", "Count 5 9 14 13", "Count 5 17 14 5")),
    # A racy return value cannot be wrapped, so the fix stops part way.
    "return_race.c": (NOTHING, _races("State 4 12 10 5")),
    "self_deadlock.c": (NOTHING, _races()),
    "single_line.c": (CLEAN, _races()),
    "unbraced.c": (CLEAN, _races()),
}
DEADLOCKING = {"deadlock_user.c", "self_deadlock.c"}

# Race sets of the 60 genconc programs, frozen from the trace oracle
# (oracle.py) over every schedule.  Frozen rather than recomputed, so a
# change to the explorer that drops schedules cannot move the expectation
# with it; ``--self-check`` confirms that the oracle still agrees.
GENCONC_LABELS = {
    0: _races(),
    1: _races("K 4 5 13 5", "K 4 9 13 5", "K 5 5 13 5", "K 5 9 13 5"),
    2: _races(
        "G 5 5 18 5", "G 5 5 20 5", "G 5 9 18 5", "G 5 9 20 5", "G 7 5 18 5", "G 7 9 18 5",
        "G 10 5 18 5", "G 10 9 18 5",
    ),
    3: _races(
        "K 4 5 12 5", "K 4 5 12 9", "K 4 5 13 5", "K 5 5 12 5", "K 5 5 12 9", "K 5 5 13 5",
    ),
    4: _races("H 6 5 15 5", "H 6 5 16 5", "H 6 9 15 5", "H 6 9 16 5"),
    5: _races("K 6 5 14 9"),
    6: _races(),
    7: _races("G 5 5 13 5", "G 5 5 13 9"),
    8: _races("H 4 5 11 5", "H 4 5 11 9", "H 4 5 12 5"),
    9: _races("K 6 5 17 5"),
    10: _races(),
    11: _races("K 5 5 13 5", "K 5 5 13 9", "K 6 5 13 5", "K 6 5 13 9"),
    12: _races(),
    13: _races("G 7 5 14 5", "G 7 5 15 5", "G 7 5 15 9"),
    14: _races("K 4 5 12 5", "K 4 5 13 5", "K 4 9 12 5", "K 4 9 13 5"),
    15: _races("G 4 5 12 5", "G 4 5 13 5", "G 4 9 12 5", "G 4 9 13 5"),
    16: _races("H 6 9 22 5", "H 9 9 22 5", "H 13 5 22 5", "K 11 5 24 5"),
    17: _races("G 7 5 19 5"),
    18: _races("G 4 5 12 5", "G 5 5 12 5"),
    19: _races(),
    20: _races("K 6 5 13 5"),
    21: _races("H 4 5 12 5", "H 4 5 12 9", "H 4 9 12 5", "H 5 5 12 5", "H 5 5 12 9"),
    22: _races("G 6 5 14 5", "G 6 5 14 9", "G 6 9 14 5"),
    23: _races("K 5 5 13 5"),
    24: _races(),
    25: _races("G 5 5 14 5"),
    26: _races(),
    27: _races(),
    28: _races(),
    29: _races(),
    30: _races("K 7 5 14 5", "K 7 5 15 5", "K 7 9 14 5", "K 7 9 15 5"),
    31: _races("H 6 5 15 5"),
    32: _races(),
    33: _races("G 7 5 17 5", "G 7 5 17 9", "H 6 9 16 5", "H 8 5 16 5", "H 8 9 16 5"),
    34: _races("H 6 5 14 5", "H 6 5 14 9"),
    35: _races("H 6 9 14 5"),
    36: _races("G 5 5 13 5"),
    37: _races("G 6 5 15 5", "G 6 9 15 5"),
    38: _races(),
    39: _races(
        "H 4 5 13 5", "H 4 5 13 9", "H 4 5 14 5", "H 4 5 14 9", "H 4 9 13 5", "H 4 9 14 5",
        "H 5 5 13 5", "H 5 5 13 9", "H 5 5 14 5", "H 5 5 14 9", "H 6 5 13 5", "H 6 5 13 9",
        "H 6 5 14 5", "H 6 5 14 9", "H 6 9 13 5", "H 6 9 14 5",
    ),
    40: _races("G 7 5 15 5"),
    41: _races("H 5 5 13 5", "H 5 5 14 5", "H 5 9 13 5", "H 5 9 14 5"),
    42: _races(),
    43: _races("H 4 5 13 5", "H 5 5 13 5"),
    44: _races(),
    45: _races(),
    46: _races("H 6 5 14 5"),
    47: _races("G 5 5 13 9", "H 6 5 13 5"),
    48: _races("H 10 5 18 9"),
    49: _races(
        "H 4 5 13 5", "H 4 5 13 9", "H 4 5 14 5", "H 4 5 14 9", "H 5 5 13 5", "H 5 5 13 9",
        "H 5 5 14 5", "H 5 5 14 9", "H 6 5 13 5", "H 6 5 13 9", "H 6 5 14 5", "H 6 5 14 9",
    ),
    50: _races("H 5 5 13 5", "H 5 5 14 5", "H 6 5 13 5", "H 6 5 14 5"),
    51: _races(
        "K 4 9 15 5", "K 4 9 16 5", "K 5 9 15 5", "K 5 9 15 9", "K 5 9 16 5", "K 5 9 16 9",
        "K 7 5 15 5", "K 7 5 15 9", "K 7 5 16 5", "K 7 5 16 9", "K 8 5 15 5", "K 8 5 15 9",
        "K 8 5 16 5", "K 8 5 16 9",
    ),
    52: _races("G 5 5 12 5"),
    53: _races("H 6 5 14 5", "H 6 9 14 5"),
    54: _races(
        "H 4 5 13 5", "H 4 5 14 5", "H 4 9 13 5", "H 4 9 14 5", "H 5 5 13 5", "H 5 5 14 5",
    ),
    55: _races(),
    56: _races(),
    57: _races(
        "H 4 5 12 5", "H 4 5 13 5", "H 4 9 12 5", "H 4 9 13 5", "H 5 5 12 5", "H 5 5 13 5",
    ),
    58: _races("G 9 5 20 9"),
    59: _races("G 4 5 11 5", "G 4 5 11 9", "G 4 5 12 5", "G 4 9 11 5", "G 4 9 12 5"),
}

# Programs racefixer gets wrong today (ROADMAP item 1).  They stay in the
# workload as operations that fail, so a fix shows up as fewer failures.
FAULT_OPS = {
    "fault_break.c": (
        "'break' lexes as an identifier, the worker's schedules abort on it, "
        "and the race on G is never reported"),
    "fault_div_zero.c": (
        "a division by zero aborts the schedule, and the verdict is still Clean "
        "with exit code 0"),
    "unlock_unheld.c": (
        "unlocking a mutex that is not held aborts the schedule, and the "
        "verdict is still Clean with exit code 0"),
}


def _guards_for(races) -> list:
    """Both accesses of every race, as (variable, line, column)."""
    out = set()
    for line in races:
        var, l1, c1, l2, c2 = line.split()
        out.add((var, int(l1), int(c1)))
        out.add((var, int(l2), int(c2)))
    return sorted(out)


def corpus_ops() -> list[Op]:
    ops = []
    for name, (status, races) in CORPUS_LABELS.items():
        ops.append(Op(f"corpus/{name}", (CORPUS_DIR / name).read_text(), status=status,
                      races=races, deadlock=name in DEADLOCKING,
                      guarded=_guards_for(races) if status == CLEAN else []))
    for seed in GENCONC_SEEDS:
        races = GENCONC_LABELS[seed]
        ops.append(Op(f"genconc/{seed}", generate_concurrent(seed), races=races,
                      guarded=_guards_for(races)))
    # Expected behaviour once the fault is mended: the race on G is found
    # and both writes end up guarded; the other two exit non-zero.
    races = _races("G 7 5 14 5")
    ops.append(Op("corpus/fault_break.c", (CORPUS_DIR / "fault_break.c").read_text(),
                  races=races, guarded=_guards_for(races),
                  fault=FAULT_OPS["fault_break.c"]))
    for name in ("fault_div_zero.c", "unlock_unheld.c"):
        ops.append(Op(f"corpus/{name}", (CORPUS_DIR / name).read_text(), status=None,
                      races=None, fault=FAULT_OPS[name]))
    # Two small report-path operations, so the sanitizer-report layer is
    # measured on a gated workload too.
    return ops + report_ops(random.Random("corpus-report"), CORPUS_REPORT_WIDTHS, "report")


def _words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct lower-case identifiers of 3 to 7 letters."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    seen: set[str] = set()
    out = []
    while len(out) < count:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 7)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


# ---------------------------------------------------------------------------
# interleave: exploration-bound programs
# ---------------------------------------------------------------------------

# (workers, private read-modify-writes per worker, main's prefix writes,
# private accesses under a user mutex).  Every shape finishes under the
# default bound; the private globals never conflict, so a partial-order
# reduction can skip most of these schedules.
INTERLEAVE_SHAPES = [
    (2, 1, 0, False),
    (3, 0, 0, False),
    (2, 1, 50, False),
    (2, 1, 0, True),
    (2, 1, 20, True),
    (2, 2, 0, False),
]


def interleave_program(rng: random.Random, workers: int, private: int, prefix: int,
                       mutex: bool) -> tuple[str, frozenset, list]:
    """Program text, its races by construction, and the ``G`` writes to guard."""
    names = _words(rng, workers + prefix + 1)
    priv = [f"p_{w}" for w in names[:workers]]
    pre = [f"q_{w}" for w in names[workers:workers + prefix]]
    lock = f"m_{names[-1]}"
    lines = ["int G;"]
    lines += [f"int {v};" for v in priv + pre]
    if mutex:
        lines.append(f"pthread_mutex_t {lock} = PTHREAD_MUTEX_INITIALIZER;")
    g_lines = []
    for w in range(workers):
        lines += ["", f"void *Worker{w}(void *arg) {{"]
        for _ in range(private):
            if mutex:
                lines.append(f"    pthread_mutex_lock(&{lock});")
            lines.append(f"    {priv[w]} = {priv[w]} + {rng.randint(1, 9)};")
            if mutex:
                lines.append(f"    pthread_mutex_unlock(&{lock});")
        lines.append(f"    G = {rng.randint(1, 99)};")
        g_lines.append(len(lines))
        lines += ["    return 0;", "}"]
    lines += ["", "int main() {"]
    lines += [f"    pthread_t t{w};" for w in range(workers)]
    lines += [f"    {v} = {rng.randint(0, 99)};" for v in pre]
    lines += [f"    pthread_create(&t{w}, 0, Worker{w}, 0);" for w in range(workers)]
    lines += [f"    pthread_join(t{w}, 0);" for w in range(workers)]
    lines += ["    return G;", "}", ""]
    races = frozenset(
        f"G {a} 5 {b} 5" for i, a in enumerate(g_lines) for b in g_lines[i + 1:]
    )
    return "\n".join(lines), races, [("G", line, 5) for line in g_lines]


def interleave_ops(seed: int) -> list[Op]:
    rng = random.Random(f"interleave:{seed}")
    ops = []
    for shape in INTERLEAVE_SHAPES:
        text, races, guarded = interleave_program(rng, *shape)
        w, k, p, m = shape
        ops.append(Op(f"interleave/w{w}k{k}p{p}{'m' if m else ''}", text,
                      races=races, guarded=guarded))
    return ops


# ---------------------------------------------------------------------------
# wide-report: the sanitizer-report path on wide files
# ---------------------------------------------------------------------------

WIDE_WIDTHS = (50, 100, 200)
CORPUS_REPORT_WIDTHS = (10, 20)
DOUBLED_EVERY = 25  # about one global in 25 is touched by two adjacent statements


def _shape_lines(shape: int, var: str, c: int) -> tuple[list[str], int, int]:
    """Worker lines touching `var` once; returns lines, access line, column.

    Shapes rotate through the five templates: plain statement, if with
    else, if without else, else-if link, while condition.
    """
    if shape == 0:
        return [f"    {var} = {var} + {c};"], 0, 5
    if shape == 1:
        return [f"    if ({var} > {c}) {{", "        loc = loc + 1;", "    } else {",
                "        loc = loc - 1;", "    }"], 0, 9
    if shape == 2:
        return [f"    if ({var} == {c}) {{", f"        loc = {c};", "    }"], 0, 9
    if shape == 3:
        head = "    } else if ("
        return [f"    if (loc > {c}) {{", "        loc = 0;", f"{head}{var} < {c}) {{",
                "        loc = 1;", "    }"], 2, len(head) + 1
    return [f"    while ({var} < {c}) {{", "        loc = loc + 1;", "    }"], 0, 12


def wide_program(rng: random.Random, width: int):
    """Program text plus the races it contains as (var, worker, main) coordinates."""
    names = [f"{w}_{i}" for i, w in enumerate(_words(rng, width))]
    offset = rng.randrange(5)
    plain = [i for i in range(width) if (i + offset) % 5 == 0]
    doubled = set(rng.sample(plain, max(1, width // DOUBLED_EVERY)))
    lines = [f"int {v};" for v in names]
    lines += ["", "void *Worker(void *arg) {", "    int loc = 0;"]
    worker_at: dict[str, list] = {}
    for i, var in enumerate(names):
        body, at, col = _shape_lines((i + offset) % 5, var, rng.randint(1, 9))
        worker_at[var] = [(len(lines) + at + 1, col)]
        lines += body
        if i in doubled:
            lines.append(f"    {var} = {var} * {rng.randint(2, 9)};")
            worker_at[var].append((len(lines), 5))
    lines += ["    return loc;", "}", "", "int main() {", "    pthread_t t;",
              "    pthread_create(&t, 0, Worker, 0);"]
    create_line = len(lines)
    races = []
    for var in names:
        lines.append(f"    {var} = {rng.randint(0, 99)};")
        for where in worker_at[var]:
            races.append((var, where, (len(lines), 5)))
    lines += ["    pthread_join(t, 0);", "    return 0;", "}", ""]
    return "\n".join(lines), races, create_line


def _tsan_block(rng: random.Random, file: str, var: str, worker, main, create_line: int,
                addr: int) -> list[str]:
    """One race block in the dialect of a thread sanitizer's log."""
    (wl, wc), (ml, mc) = worker, main
    pid = rng.randint(1000, 99999)
    worker_frame = f"    #0 Worker {file}:{wl}:{wc} (a.out+0x{0x4c7000 + wl:x})"
    main_frame = f"    #0 main {file}:{ml}:{mc} (a.out+0x{0x4c7000 + ml:x})"
    kind = "write" if wc == 5 else "read"  # column 5 is a plain assignment
    if rng.random() < 0.5:
        sections = [f"  {kind.capitalize()} of size 4 at 0x{addr:012x} by thread T1:",
                    worker_frame,
                    f"  Previous write of size 4 at 0x{addr:012x} by main thread:",
                    main_frame]
    else:
        sections = [f"  Write of size 4 at 0x{addr:012x} by main thread:", main_frame,
                    f"  Previous {kind} of size 4 at 0x{addr:012x} by thread T1:",
                    worker_frame]
    return [
        f"WARNING: ThreadSanitizer: data race (pid={pid})",
        *sections,
        f"  Location is global '{var}' of size 4 at 0x{addr:012x} (a.out+0x{addr:012x})",
        f"  Thread T1 (tid={pid + 2}, running) created by main thread at:",
        "    #0 pthread_create /llvm/compiler-rt/lib/tsan/rtl/"
        "tsan_interceptors.cc:967:3 (a.out+0x4614f1)",
        f"    #1 main {file}:{create_line}:5 (a.out+0x{0x4c7000 + create_line:x})",
        f"SUMMARY: ThreadSanitizer: data race {file}:{wl}:{wc} in Worker",
        "==================",
    ]


_HEAP_BLOCK = [
    "WARNING: ThreadSanitizer: data race (pid=77)",
    "  Write of size 8 at 0x7b0400000800 by thread T1:",
    "    #0 fill /src/heap.c:12:5 (heap+0x100)",
    "  Previous write of size 8 at 0x7b0400000800 by thread T2:",
    "    #0 fill /src/heap.c:12:5 (heap+0x100)",
    "  Location is heap block of size 64 at 0x7b0400000800 allocated by main thread:",
    "    #0 malloc /tools/rtl/tsan_interceptors.cc:595 (heap+0x42)",
    "SUMMARY: ThreadSanitizer: data race /src/heap.c:12:5 in fill",
    "==================",
]
_MALFORMED_BLOCK = [
    "WARNING: ThreadSanitizer: data race (pid=5)",
    "  Write of size 4 at 0x000000000001 by thread T1:",
    "    (frame information lost)",
    "  Location is global 'ghost' of size 4 at 0x000000000001 (a.out+0x1)",
    "SUMMARY: ThreadSanitizer: data race <unknown>",
]


def wide_reports(rng: random.Random, races, create_line: int, file: str) -> tuple[str, str]:
    """Two overlapping logs that together list every race, with noise."""
    blocks = [
        _tsan_block(rng, file, var, worker, main, create_line, 0xF29000 + 0x10 * i)
        for i, (var, worker, main) in enumerate(races)
    ]
    n = len(blocks)
    first, second = blocks[: n * 3 // 5], blocks[n * 2 // 5:]
    logs = []
    for part, extra in ((first, _HEAP_BLOCK), (second, _MALFORMED_BLOCK)):
        part = part + [extra]
        rng.shuffle(part)
        lines = [f"worker: starting {rng.randint(1, 9)} jobs"]
        for k, block in enumerate(part):
            lines += block
            if k % 7 == 3:
                lines.append(f"progress {k}/{len(part)}")
        lines.append(f"ThreadSanitizer: reported {len(part)} warnings")
        logs.append("\n".join(lines) + "\n")
    return logs[0], logs[1]


def report_ops(rng: random.Random, widths, prefix: str) -> list[Op]:
    """Report-path operations on wide programs, one per width."""
    ops = []
    for width in widths:
        text, races, create_line = wide_program(rng, width)
        file = f"/build/src/wide{width}.c"
        guarded = sorted({(v, *w) for v, w, _ in races} | {(v, *m) for v, _, m in races})
        ops.append(Op(
            f"{prefix}/{width}", text, reports=wide_reports(rng, races, create_line, file),
            races=frozenset(f"{v} {w[0]} {w[1]} {m[0]} {m[1]}" for v, w, m in races),
            patches=len(guarded), guarded=guarded,
        ))
    return ops


def wide_ops(seed: int) -> list[Op]:
    return report_ops(random.Random(f"wide-report:{seed}"), WIDE_WIDTHS, "wide-report")


WORKLOADS = {
    "corpus": lambda seed: corpus_ops(),
    "interleave": interleave_ops,
    "wide-report": wide_ops,
}
