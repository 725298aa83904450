"""racefixer: automated data-race repair for a pthread-flavored C subset.

Pipeline: parse sanitizer race reports (or run the built-in
interleaving-exploring detector), locate the racy statements in a
lossless syntax tree, wrap them with per-variable mutex guards, and
repeat until the detector reports the program clean and deadlock-free.

The package exports the library entry points the README documents and
the two input errors they raise; everything else lives in its submodule.
"""

from .cst import ParseError, parse_source
from .detector import UnsupportedConstruct, explore
from .driver import FixConfig, run
from .reports import parse_report

__version__ = "0.1.0"

__all__ = [
    "FixConfig",
    "ParseError",
    "UnsupportedConstruct",
    "explore",
    "parse_report",
    "parse_source",
    "run",
]
