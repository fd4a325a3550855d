"""A TPTP CNF subset: cnf(name, role, (lit | lit | ...)). annotations.

Lowercase leading letters give functors and constants, uppercase or
underscore give variables. Roles are ignored; include directives are
rejected. $false stands for the empty clause; every other $-prefixed
predicate, $true among them, is rejected, as is a negated $false.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import ParseError
from .logic import MAX_TERM_DEPTH, Clause, ClauseSet, Constant, Function, Literal, Variable

_TOKEN = re.compile(r"""
    (?P<comment>%[^\n]*)
  | (?P<name>[A-Za-z0-9_$]+)
  | (?P<punct>[(),.|~])
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    tokens = []
    line = 1
    col = 1
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line=line, column=col)
        if kind not in ("space", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, value: str):
        kind, got, line, col = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, found {got!r}", line=line, column=col)

    def parse_arguments(self, depth: int) -> tuple:
        """The parenthesized terms after a name, at depth; () when none follow."""
        token = self.peek()
        if token is None or token[1] != "(":
            return ()
        self.expect("(")
        args = [self.parse_term(depth)]
        while self.peek() is not None and self.peek()[1] == ",":
            self.expect(",")
            args.append(self.parse_term(depth))
        self.expect(")")
        return tuple(args)

    def parse_term(self, depth: int = 1):
        kind, name, line, col = self.next()
        if kind != "name":
            raise ParseError(f"expected a term, found {name!r}", line=line, column=col)
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH}",
                             line=line, column=col)
        if name[0].isupper() or name[0] == "_":
            return Variable(name)
        args = self.parse_arguments(depth + 1)
        return Function(name, args) if args else Constant(name)

    def parse_literal(self):
        positive = True
        while self.peek() is not None and self.peek()[1] == "~":
            self.expect("~")
            positive = not positive
        kind, name, line, col = self.next()
        if kind != "name":
            raise ParseError(f"expected a predicate, found {name!r}", line=line, column=col)
        if name == "$false":
            if not positive:
                raise ParseError("negated $false is not supported", line=line, column=col)
            return None  # contributes nothing: the empty disjunct
        if name[0] == "$":
            raise ParseError(f"predicate {name!r} is not supported", line=line, column=col)
        if name[0].isupper() or name[0] == "_":
            raise ParseError(f"predicate {name!r} must start lowercase", line=line, column=col)
        return Literal(positive, name, self.parse_arguments(1))

    def parse_disjunct(self, depth: int) -> List[Literal]:
        if self.peek() is not None and self.peek()[1] == "(":
            _, _, line, col = self.next()
            if depth > MAX_TERM_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_TERM_DEPTH}",
                                 line=line, column=col)
            inner = self.parse_clause_body(depth + 1)
            self.expect(")")
            return inner
        lit = self.parse_literal()
        return [] if lit is None else [lit]

    def parse_clause_body(self, depth: int = 1) -> List[Literal]:
        literals = self.parse_disjunct(depth)
        while self.peek() is not None and self.peek()[1] == "|":
            self.expect("|")
            literals.extend(self.parse_disjunct(depth))
        return literals

    def parse_annotated(self):
        kind, name, line, col = self.next()
        if name == "include":
            raise ParseError("include directives are not supported", line=line, column=col)
        if name != "cnf":
            raise ParseError(f"expected 'cnf', found {name!r}", line=line, column=col)
        self.expect("(")
        self.next()  # clause name
        self.expect(",")
        self.next()  # role, ignored
        self.expect(",")
        literals = self.parse_clause_body()
        self.expect(")")
        self.expect(".")
        return literals

    def parse_problem(self) -> List[List[Literal]]:
        out = []
        while self.peek() is not None:
            out.append(self.parse_annotated())
        return out


def parse_tptp_cnf(text: str) -> ClauseSet:
    bodies = _Parser(text).parse_problem()
    clauses = [Clause(i + 1, body) for i, body in enumerate(bodies)]
    return ClauseSet(clauses)


_LEGAL_FUNCTOR = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_LEGAL_VARIABLE = re.compile(r"^[A-Z_][A-Za-z0-9_]*$")


class _NameMap:
    """Injective renaming of symbols onto TPTP-legal spellings."""

    def __init__(self):
        self.functors = {}
        self.variables = {}
        self.taken = set()

    def _fresh(self, candidate):
        name = candidate
        bump = 1
        while name in self.taken:
            bump += 1
            name = f"{candidate}_{bump}"
        self.taken.add(name)
        return name

    def functor(self, name: str) -> str:
        if name not in self.functors:
            if _LEGAL_FUNCTOR.match(name):
                candidate = name
            else:
                candidate = "f_" + re.sub(r"[^A-Za-z0-9_]", "_", name).lower()
            self.functors[name] = self._fresh(candidate)
        return self.functors[name]

    def variable(self, name: str) -> str:
        if name not in self.variables:
            if _LEGAL_VARIABLE.match(name):
                candidate = name
            else:
                candidate = "X_" + re.sub(r"[^A-Za-z0-9_]", "_", name)
            self.variables[name] = self._fresh(candidate)
        return self.variables[name]


def _render_term(term, names: _NameMap) -> str:
    if isinstance(term, Variable):
        return names.variable(term.name)
    if isinstance(term, Constant):
        return names.functor(term.name)
    return f"{names.functor(term.name)}({','.join(_render_term(a, names) for a in term.args)})"


def render_literal_tptp(lit: Literal, names: _NameMap = None) -> str:
    names = names or _NameMap()
    atom = names.functor(lit.predicate)  # first: names are handed out in the order asked
    if lit.args:
        atom += f"({','.join(_render_term(a, names) for a in lit.args)})"
    return f"{'' if lit.positive else '~'}{atom}"


def render_tptp(clause_set: ClauseSet) -> str:
    """Emit parseable TPTP; symbols outside its lexical rules are renamed
    injectively (a set born from parse_tptp_cnf round-trips verbatim)."""
    names = _NameMap()
    lines = []
    for clause in clause_set.clauses:
        if clause.is_empty():
            body = "$false"
        else:
            body = " | ".join(render_literal_tptp(l, names) for l in clause.literals)
        lines.append(f"cnf(c{clause.id}, axiom, ({body})).")
    return "\n".join(lines) + "\n"
