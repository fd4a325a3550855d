"""DIMACS CNF reading and writing.

Variable i maps to the 0-ary predicate x<i>; negative integers give negative
literals; duplicate literals within a clause merge. Each distinct token is
read once per problem, so every occurrence of it is one Literal. A comment
line's first word is c (is_comment); a line starting with % ends the clause
data (the SATLIB trailer "%" / "0" follows it), and the clause count must
equal the header's.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from .errors import ParseError
from .logic import Clause, ClauseSet, Literal


def is_comment(line: str) -> bool:
    """Whether line is a DIMACS comment: its first word is c, which any
    whitespace may end. A line such as "comment" or "cnf(...)" is not one,
    so a TPTP clause is never skipped as a comment."""
    return line.lstrip()[:2].rstrip() == "c"


def parse_dimacs(text: str) -> ClauseSet:
    header = None
    clauses: List[Clause] = []
    pending: List[Literal] = []
    interned: Dict[str, Optional[Literal]] = {}  # token -> its literal, None for a 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or is_comment(line):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", line=line_no)
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", line=line_no)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError(f"malformed header {line!r}", line=line_no) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError(f"malformed header {line!r}", line=line_no)
            continue
        if header is None:
            raise ParseError("clause data before the 'p cnf' header", line=line_no)
        for token in line.split():
            if token not in interned:
                try:
                    value = int(token)
                except ValueError:
                    raise ParseError(f"unexpected token {token!r}", line=line_no) from None
                if abs(value) > header[0]:
                    raise ParseError(
                        f"literal {value} exceeds the declared {header[0]} variables",
                        line=line_no)
                interned[token] = Literal(value > 0, f"x{abs(value)}") if value else None
            if interned[token] is None:
                clauses.append(Clause(len(clauses) + 1, pending))
                pending = []
            else:
                pending.append(interned[token])
    if header is None:
        raise ParseError("missing 'p cnf' header")
    if pending:
        raise ParseError("last clause is missing its terminating 0")
    if len(clauses) != header[1]:
        raise ParseError(f"{len(clauses)} clause(s), but the header declares {header[1]}")
    return ClauseSet(clauses)


_VAR_NAME = re.compile(r"^x([1-9][0-9]*)$")


def render_dimacs(clause_set: ClauseSet) -> str:
    """Inverse of parse_dimacs on its own output; other propositional sets get
    variables numbered by first occurrence, with the name map in comments."""
    if not clause_set.is_propositional:
        raise ValueError("DIMACS output needs a propositional clause set")
    names = clause_set.predicates()
    matches = {name: _VAR_NAME.match(name) for name in names}
    lines = []
    if all(matches.values()):
        index = {name: int(m.group(1)) for name, m in matches.items()}
        nvars = max(index.values(), default=0)
    else:
        index = {name: i + 1 for i, name in enumerate(names)}
        nvars = len(names)
        for name, i in index.items():
            lines.append(f"c var {i} = {name}")
    lines.append(f"p cnf {nvars} {len(clause_set.clauses)}")
    for clause in clause_set.clauses:
        body = " ".join(str(index[l.predicate] if l.positive else -index[l.predicate])
                        for l in clause.literals)
        lines.append(f"{body} 0".strip())
    return "\n".join(lines) + "\n"
