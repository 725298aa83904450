"""Correctness checks for fix results, written apart from racefixer.

The lock walk has its own tokenizer and statement walker, so a bug in
racefixer's parser or in its own lock-balance check cannot hide a
missing guard here.  Races are compared in the one-line summary form
the ``detect`` command prints: ``<var> <line> <col> <line> <col>``.
"""

from __future__ import annotations

import re

MUTEX_PREFIX = "__rf_mutex_"

_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|//[^\n]*|/\*.*?\*/)|(?P<word>[A-Za-z_]\w*)|(?P<num>\d+)"
    r"|(?P<punct>&&|\|\||==|!=|<=|>=|\+=|[(){};,=<>+\-*/%!&])",
    re.DOTALL,
)


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """(text, line, column) for every token; comments and blanks dropped."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected character {text[pos]!r} at line {line}")
        if m.lastgroup != "skip":
            tokens.append((m.group(), line, pos - line_start + 1))
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    return tokens


class LockWalk:
    """Lock states along every path of every function body.

    ``held[i]`` is the set of possible held-mutex sets at token ``i``;
    ``problems`` lists unbalanced use of the guard mutexes racefixer adds.
    Loops are iterated to a fixed point.
    """

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.held: dict[int, set] = {}
        self.problems: list[str] = []
        i = 0
        while i < len(self.toks):
            if self.toks[i][0] == "{":  # only function bodies open a brace at top level
                end, finals = self._compound(i, {frozenset()})
                self._check_released(finals, f"function ending at line {self.toks[end - 1][1]}")
                i = end
                continue
            i += 1
        self.uses = _uses(self.toks)

    def _check_released(self, states, where: str) -> None:
        for state in states:
            for mutex in sorted(state):
                if mutex.startswith(MUTEX_PREFIX):
                    self.problems.append(f"{where}: {mutex} still held")

    def _note(self, start: int, end: int, states) -> None:
        for i in range(start, end):
            self.held.setdefault(i, set()).update(states)

    def _match(self, i: int, open_: str, close: str) -> int:
        """Index just past the token closing the bracket at ``i``."""
        depth = 0
        while True:
            tok = self.toks[i][0]
            if tok == open_:
                depth += 1
            elif tok == close:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1

    def _compound(self, i: int, states):
        self._note(i, i + 1, states)
        i += 1
        while self.toks[i][0] != "}":
            i, states = self._statement(i, states)
        self._note(i, i + 1, states)
        return i + 1, states

    def _statement(self, i: int, states):
        tok = self.toks[i][0]
        if tok == "{":
            return self._compound(i, states)
        if tok == "if":
            cond_end = self._match(i + 1, "(", ")")
            self._note(i, cond_end, states)
            j, taken = self._statement(cond_end, states)
            if j < len(self.toks) and self.toks[j][0] == "else":
                j, other = self._statement(j + 1, states)
                return j, taken | other
            return j, taken | states
        if tok == "while":
            cond_end = self._match(i + 1, "(", ")")
            at_cond = set(states)
            for _ in range(10):
                self._note(i, cond_end, at_cond)
                end, after_body = self._statement(cond_end, at_cond)
                grown = at_cond | after_body
                if grown == at_cond:
                    break
                at_cond = grown
            return end, at_cond
        end = i
        while self.toks[end][0] != ";":
            end += 1
        self._note(i, end + 1, states)
        if tok == "return":
            self._check_released(states, f"return at line {self.toks[i][1]}")
            return end + 1, set()
        words = [t[0] for t in self.toks[i:end]]
        if len(words) == 5 and words[0] in ("pthread_mutex_lock", "pthread_mutex_unlock") \
                and words[1:3] == ["(", "&"] and words[4] == ")":
            return end + 1, self._lock_op(words[0], words[3], states, self.toks[i][1])
        return end + 1, states

    def _lock_op(self, call: str, mutex: str, states, line: int):
        out = set()
        ours = mutex.startswith(MUTEX_PREFIX)
        for state in states:
            if call == "pthread_mutex_lock":
                if ours and mutex in state:
                    self.problems.append(f"line {line}: {mutex} locked twice")
                out.add(state | {mutex})
            else:
                if ours and mutex not in state:
                    self.problems.append(f"line {line}: {mutex} unlocked while not held")
                out.add(state - {mutex})
        return out

    def guarded(self, var: str, ordinal: int) -> bool:
        """Whether the ``ordinal``-th use of ``var`` runs with its guard held."""
        uses = self.uses.get(var, [])
        if ordinal >= len(uses):
            return False
        states = self.held.get(uses[ordinal])
        return bool(states) and all(MUTEX_PREFIX + var in s for s in states)


def _uses(toks) -> dict[str, list[int]]:
    """Token indices of every identifier, by name."""
    uses: dict[str, list[int]] = {}
    for i, (tok, _, _) in enumerate(toks):
        uses.setdefault(tok, []).append(i)
    return uses


def apply_unified_diff(original: str, diff: str) -> str:
    """Patched text from a unified diff of ``original``."""
    if not diff:
        return original
    src = original.splitlines(keepends=True)
    out: list[str] = []
    pos = 0
    lines = diff.splitlines(keepends=True)
    k = 0
    while k < len(lines):
        header = lines[k]
        k += 1
        m = re.match(r"@@ -(\d+)(?:,(\d+))? \+\d+(?:,\d+)? @@", header)
        if m is None:
            continue  # the ---/+++ file header
        start = int(m.group(1)) - (0 if m.group(2) == "0" else 1)
        out.extend(src[pos:start])
        pos = start
        while k < len(lines) and not lines[k].startswith("@@"):
            body, tag = lines[k][1:], lines[k][0]
            if tag in " -":
                if src[pos] != body:
                    raise ValueError(f"diff context does not match line {pos + 1}")
                pos += 1
            if tag in " +":
                out.append(body)
            k += 1
    out.extend(src[pos:])
    return "".join(out)


def parse_fix_stdout(stdout: str) -> tuple[list[str], str | None, str]:
    """Split ``fix`` output into its log lines, final status and diff."""
    lines = stdout.splitlines(keepends=True)
    log = []
    while lines and re.match(r"(iteration|status)=", lines[0]):
        log.append(lines.pop(0).rstrip("\n"))
    status = log[-1].split("=", 1)[1] if log and log[-1].startswith("status=") else None
    return log, status, "".join(lines)


def parse_detect_stdout(stdout: str) -> tuple[set, list, str | None]:
    """Race summary lines, deadlock lines and the ``truncated`` flag."""
    races, deadlocks, truncated = set(), [], None
    for line in stdout.splitlines():
        if line.startswith("deadlock: "):
            deadlocks.append(line)
        elif line.startswith("explored="):
            truncated = line.split("truncated=", 1)[1]
        elif line:
            races.add(line)
    return races, deadlocks, truncated


def race_set_problems(got: set, want) -> list[str]:
    problems = [f"missing race {r}" for r in sorted(set(want) - got)]
    problems += [f"unexpected race {r}" for r in sorted(got - set(want))]
    return problems


def text_problems(original: str, patched: str, guarded) -> list[str]:
    """Guard placement, lock balance and declarations in a patched text."""
    walk = LockWalk(patched)
    problems = list(walk.problems)
    # Inserted guard code names only ``__rf_mutex_<var>``, never ``var``
    # itself, so the n-th use of ``var`` is the same access before and after.
    before = tokenize(original)
    positions = {name: [before[i][1:] for i in idx] for name, idx in _uses(before).items()}
    for var, line, col in guarded:
        if (line, col) not in positions.get(var, []):
            problems.append(f"{var} at {line}:{col}: no such use in the input")
        elif not walk.guarded(var, positions[var].index((line, col))):
            problems.append(f"{var} at {line}:{col} is not guarded by {MUTEX_PREFIX}{var}")
    toks = [t[0] for t in walk.toks]
    declared: dict[str, int] = {}
    for i, tok in enumerate(toks[:-1]):
        if tok == "pthread_mutex_t" and toks[i + 1].startswith(MUTEX_PREFIX):
            declared[toks[i + 1]] = declared.get(toks[i + 1], 0) + 1
    used = {t for t in toks if t.startswith(MUTEX_PREFIX)}
    for mutex in sorted(used):
        if declared.get(mutex, 0) != 1:
            problems.append(f"{mutex} declared {declared.get(mutex, 0)} times")
    return problems
