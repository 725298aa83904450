import pathlib
import signal

import pytest

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
FIXTURES_DIR = TESTS_DIR / "fixtures"

RACY_PROGRAMS = [
    "race_plain.c",
    "race_if_else.c",
    "race_if_no_else.c",
    "race_else_if.c",
    "race_while.c",
    "race_two_vars.c",
    "adjacent_merge.c",
    "nested_while_merge.c",
]


class Overtime(Exception):
    """Not an OSError, which the CLI would report as an input error."""


def within_seconds(seconds: float, func):
    """`func()`, or Overtime if it runs longer than `seconds`."""

    def expired(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return func()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def corpus_files():
    return sorted(CORPUS_DIR.glob("*.c"))


def corpus(name: str) -> str:
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def fixture(name: str) -> str:
    return (FIXTURES_DIR / name).read_text(encoding="utf-8")


@pytest.fixture
def tmp_source(tmp_path):
    """Copy a corpus program into a scratch dir and return its path."""

    def _make(name: str) -> pathlib.Path:
        path = tmp_path / name
        path.write_text(corpus(name), encoding="utf-8")
        return path

    return _make
