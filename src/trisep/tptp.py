"""A TPTP CNF subset: cnf(name, role, (lit | lit | ...)). annotations.

Lowercase leading letters give functors and constants, uppercase or
underscore give variables. Roles are ignored; include directives are
rejected. $false stands for the empty clause; every other $-prefixed
predicate, $true among them, is rejected, as is a negated $false, and so
are equality literals (s = t and s != t).

TermReader reads the term grammar that these problems share with trace
documents (see render), in either spelling.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .logic import MAX_TERM_DEPTH, Clause, ClauseSet, Constant, Function, Literal, Variable


def _spelling(name: str, variable: str, blank: str) -> tuple:
    """One spelling of terms: the patterns of a name and of a variable
    (group 1) or name (group 2), each taking along the blanks that follow it,
    and the pattern of those blanks, None when a spelling allows none."""
    return (re.compile(f"({name}){blank}"), re.compile(f"(?:{variable}|({name})){blank}"),
            re.compile(blank) if blank else None)


# blanks and % comments may separate tokens; a variable starts uppercase or '_'
TPTP_SPELLING = _spelling(r"[A-Za-z0-9_$]+", r"([A-Z_][A-Za-z0-9_$]*)", r"(?:\s+|%[^\n]*)*")
# no blanks; names may also hold #, @ and ' (renamed variables); a variable has a '?' sigil
TRACE_SPELLING = _spelling(r"[A-Za-z0-9_$#@']+", r"\?([A-Za-z0-9_$#@']+)", "")


class TermReader:
    """Reads names, terms and punctuation from text in one spelling; pos is
    always where the next token starts. An error in a TPTP text names the
    line and column of that start, and an expected token the one found
    there; one in a trace field names the field and the offset, and the
    trace parser adds the record's line."""

    def __init__(self, text: str, spelling: tuple):
        self.text = text
        self.names, self.terms, self.blank = spelling
        self.pos = self.blank.match(text).end() if self.blank else 0

    def error(self, message: str, at: int = None):
        at = self.pos if at is None else at
        if self.blank is None:  # a trace field: one line, no blanks
            raise ParseError(f"{message} in {self.text!r} at offset {at}")
        raise ParseError(message, line=self.text.count("\n", 0, at) + 1,
                         column=at - self.text.rfind("\n", 0, at))

    def expected(self, what: str):
        if self.blank is not None:  # a TPTP error also names the token it found
            token = self.names.match(self.text, self.pos)
            found = token[1] if token else self.text[self.pos:self.pos + 1]
            what += f", found {found!r}" if found else ", found the end of the input"
        self.error(f"expected {what}")

    def eat(self, char: str) -> bool:
        if self.pos < len(self.text) and self.text[self.pos] == char:
            self.pos += 1
            if self.blank:
                self.pos = self.blank.match(self.text, self.pos).end()
            return True
        return False

    def expect(self, char: str):
        if not self.eat(char):
            self.expected(repr(char))

    def end(self):
        if self.pos != len(self.text):
            self.error("trailing input")

    def name(self, what: str = "a name") -> str:
        match = self.names.match(self.text, self.pos)
        if match is None:
            self.expected(what)
        self.pos = match.end()
        return match[1]

    def arguments(self, depth: int) -> tuple:
        """The parenthesized terms after a name, at depth; () when none follow."""
        if not self.eat("("):
            return ()
        args = [self.term(depth)]
        while self.eat(","):
            args.append(self.term(depth))
        self.expect(")")
        return tuple(args)

    def term(self, depth: int = 1):
        if depth > MAX_TERM_DEPTH:
            self.error(f"term nested deeper than {MAX_TERM_DEPTH}")
        match = self.terms.match(self.text, self.pos)
        if match is None:
            self.expected("a name")
        self.pos = match.end()
        variable, name = match.groups()
        if variable is not None:
            return Variable(variable)
        args = self.arguments(depth + 1)
        return Function(name, args) if args else Constant(name)


def _literal(reader: TermReader) -> list:
    """A literal as a list, empty for $false; any number of '~' may precede it."""
    positive = True
    while reader.eat("~"):
        positive = not positive
    at = reader.pos
    name = reader.name("a predicate")
    if name == "$false":
        if not positive:
            reader.error("negated $false is not supported", at)
        return []  # the empty disjunct
    if name[0] == "$":
        reader.error(f"predicate {name!r} is not supported", at)
    args = reader.arguments(1)
    # before the lowercase rule, which X = a breaks too
    if reader.text.startswith(("=", "!="), reader.pos):
        reader.error("equality is not supported")
    if name[0].isupper() or name[0] == "_":
        reader.error(f"predicate {name!r} must start lowercase", at)
    return [Literal(positive, name, args)]


def _disjunction(reader: TermReader, depth: int = 1) -> list:
    """Literals and parenthesized disjunctions, joined by '|'."""
    literals = []
    while True:
        at = reader.pos
        if reader.eat("("):
            if depth > MAX_TERM_DEPTH:
                reader.error(f"parentheses nested deeper than {MAX_TERM_DEPTH}", at)
            literals += _disjunction(reader, depth + 1)
            reader.expect(")")
        else:
            literals += _literal(reader)
        if not reader.eat("|"):
            return literals


def _annotated(reader: TermReader) -> list:
    at = reader.pos
    keyword = reader.name("'cnf'")
    if keyword == "include":
        reader.error("include directives are not supported", at)
    if keyword != "cnf":
        reader.error(f"expected 'cnf', found {keyword!r}", at)
    reader.expect("(")
    reader.name("a clause name")
    reader.expect(",")
    reader.name("a role")  # ignored
    reader.expect(",")
    literals = _disjunction(reader)
    reader.expect(")")
    reader.expect(".")
    return literals


def parse_tptp_cnf(text: str) -> ClauseSet:
    reader = TermReader(text, TPTP_SPELLING)
    bodies = []
    while reader.pos < len(text):
        bodies.append(_annotated(reader))
    return ClauseSet([Clause(i, body) for i, body in enumerate(bodies, start=1)])


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
