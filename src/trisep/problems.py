"""Problem ingestion: one container for a parsed problem and its provenance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dimacs import is_comment, parse_dimacs
from .logic import ClauseSet
from .tptp import parse_tptp_cnf

DIMACS = "dimacs"
TPTP_CNF = "tptp-cnf"


def detect_format(text: str) -> str:
    for line in text.splitlines():
        # a DIMACS header line starts with the word p, which any whitespace
        # may end
        words = line.split(maxsplit=1)
        if not words or is_comment(line) or words[0][0] == "%":
            continue
        return DIMACS if words[0] == "p" else TPTP_CNF
    return DIMACS


@dataclass(frozen=True)
class ProblemSource:
    """A problem as read: the raw text, its format, the parsed clauses and
    the path it was read from, if any."""

    text: str
    format: str
    clauses: ClauseSet
    path: Optional[str] = None


def load_problem(text: str, fmt: str = "auto", path: Optional[str] = None) -> ProblemSource:
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == DIMACS:
        clauses = parse_dimacs(text)
    elif fmt == TPTP_CNF:
        clauses = parse_tptp_cnf(text)
    else:
        raise ValueError(f"unknown problem format {fmt!r}")
    return ProblemSource(text, fmt, clauses, path)


def load_problem_file(path: str, fmt: str = "auto") -> ProblemSource:
    """Read a UTF-8 problem file; a leading byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return load_problem(handle.read(), fmt, path=path)
