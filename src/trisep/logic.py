"""Terms, literals, clauses, and clause sets.

One syntax tree serves both logics: a propositional variable is a 0-ary
predicate, so the propositional engine is the substitution-free special case
of the first-order one. All values are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .errors import ArityError

PROPOSITIONAL = "propositional"
FIRST_ORDER = "first-order"


class _Term:
    """Shared by the three term kinds. A term is immutable and fixes three
    facts once, when it is built: its hash, hash((name,)) or hash((name,
    args)), which orders sets of terms and literals but no trace; the names
    of its variables; and its depth. Equality is structural and false across
    kinds; unequal hashes reject at once."""

    __slots__ = ("name", "variable_names", "depth", "_hash")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.name == other.name)

    @property
    def _fields(self) -> tuple:
        return (self.name,)

    def __reduce__(self):
        return type(self), self._fields

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields))})"

    def __str__(self):
        return self.name


class Variable(_Term):
    __slots__ = ()

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variable_names", frozenset((name,)))
        object.__setattr__(self, "depth", 1)
        object.__setattr__(self, "_hash", hash((name,)))


class Constant(_Term):
    __slots__ = ()

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variable_names", frozenset())
        object.__setattr__(self, "depth", 1)
        object.__setattr__(self, "_hash", hash((name,)))


class Function(_Term):
    __slots__ = ("args",)

    def __init__(self, name: str, args: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "variable_names",
                           frozenset().union(*(a.variable_names for a in args)))
        object.__setattr__(self, "depth", 1 + max((a.depth for a in args), default=0))
        object.__setattr__(self, "_hash", hash((name, args)))

    def __eq__(self, other):
        if other.__class__ is not Function:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.name == other.name
                                 and self.args == other.args)

    __hash__ = _Term.__hash__  # a class that defines __eq__ must name its hash

    @property
    def _fields(self) -> tuple:
        return (self.name, self.args)

    def __str__(self):
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Union[Variable, Constant, Function]

# Deepest term nesting the parsers accept (a constant or variable has depth 1,
# f(t) one more than t), and the engine admits (too_deep). A term's hash,
# variable names and depth are fixed when it is built, but substitution,
# unification, equality and printing still recurse, so deeper terms could end
# in RecursionError.
MAX_TERM_DEPTH = 128


class Literal(NamedTuple):
    """A possibly negated atom. ``args`` is empty in propositional problems.

    A named tuple, so that hashing and equality, which the construction does
    millions of times, run without a Python-level call; the hash is that of
    (positive, predicate, args). It fixes the iteration order of literal
    sets, on which no trace depends.
    """

    positive: bool
    predicate: str
    args: tuple = ()

    def complement(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args)

    @property
    def atom(self) -> tuple:
        return (self.predicate, self.args)

    def __str__(self):
        args = f"({','.join(map(str, self.args))})" if self.args else ""
        return f"{'' if self.positive else '~'}{self.predicate}{args}"


def pos(predicate: str, *args: Term) -> Literal:
    return Literal(True, predicate, tuple(args))


def neg(predicate: str, *args: Term) -> Literal:
    return Literal(False, predicate, tuple(args))


def complement(literal: Literal) -> Literal:
    """Flip the sign; predicate and arguments are untouched."""
    return literal.complement()


def merge_duplicate_literals(literals: Iterable[Literal]) -> tuple:
    """Drop exact duplicates, keeping first-occurrence order for deterministic rendering."""
    seen = set()
    out = []
    for lit in literals:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def too_deep(literals: Iterable[Literal]) -> bool:
    """Whether some literal holds a term nested deeper than MAX_TERM_DEPTH,
    counted as the parsers count."""
    return any(arg.depth > MAX_TERM_DEPTH for lit in literals for arg in lit.args)


def variable_names(literals: Iterable[Literal]) -> frozenset:
    """The names of the variables in the literals."""
    return frozenset(name for lit in literals for arg in lit.args for name in arg.variable_names)


def is_ground(literals: Iterable[Literal]) -> bool:
    return not any(arg.variable_names for lit in literals for arg in lit.args)


class Clause:
    """A duplicate-free disjunction of literals.

    The empty clause is permitted and is always false. Equality and hashing
    ignore the id: two clauses are equal when their literal sets are, which
    is what subsumption and duplicate detection want.
    """

    __slots__ = ("id", "literals", "literal_set", "_hash")

    def __init__(self, cid: int, literals: Iterable[Literal]):
        merged = merge_duplicate_literals(literals)
        object.__setattr__(self, "id", cid)
        object.__setattr__(self, "literals", merged)
        object.__setattr__(self, "literal_set", frozenset(merged))
        object.__setattr__(self, "_hash", hash(self.literal_set))

    def __setattr__(self, name, value):
        raise AttributeError("Clause is immutable")

    def is_empty(self) -> bool:
        return not self.literals

    def __len__(self):
        return len(self.literals)

    def __iter__(self):
        return iter(self.literals)

    def __contains__(self, literal):
        return literal in self.literals

    def __eq__(self, other):
        if not isinstance(other, Clause):
            return NotImplemented
        return self.literal_set == other.literal_set

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.literals:
            return "<empty>"
        return " | ".join(str(lit) for lit in self.literals)

    def __repr__(self):
        return f"Clause({self.id}, {self})"


def is_tautology(clause) -> bool:
    """True iff the clause holds a literal and its complement (syntactic check only)."""
    lits = clause.literal_set if isinstance(clause, Clause) else frozenset(clause)
    return any(lit.complement() in lits for lit in lits)


def _check_symbol_tables(clauses) -> None:
    pred_arity = {}
    fun_arity = {}
    var_names = set()
    nonvar_names = set()

    def walk(term):
        if isinstance(term, Variable):
            var_names.add(term.name)
        elif isinstance(term, Constant):
            nonvar_names.add(term.name)
        else:
            seen = fun_arity.setdefault(term.name, len(term.args))
            if seen != len(term.args):
                raise ArityError(
                    f"function '{term.name}' used with arity {len(term.args)} and {seen}")
            nonvar_names.add(term.name)
            for arg in term.args:
                walk(arg)

    for clause in clauses:
        for lit in clause.literals:
            seen = pred_arity.setdefault(lit.predicate, len(lit.args))
            if seen != len(lit.args):
                raise ArityError(
                    f"predicate '{lit.predicate}' used with arity {len(lit.args)} and {seen}")
            for arg in lit.args:
                walk(arg)

    clash = var_names & nonvar_names
    if clash:
        raise ArityError(f"names used both as variable and constant/function: {sorted(clash)}")


class ClauseSet:
    """An ordered collection of clauses with unique ids; the mode follows from the literals."""

    __slots__ = ("clauses", "mode")

    def __init__(self, clauses: Iterable[Clause]):
        clauses = tuple(clauses)
        ids = [c.id for c in clauses]
        if len(set(ids)) != len(ids):
            raise ValueError("clause ids must be unique")
        _check_symbol_tables(clauses)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "mode", PROPOSITIONAL if all(
            not lit.args for c in clauses for lit in c.literals) else FIRST_ORDER)

    def __setattr__(self, name, value):
        raise AttributeError("ClauseSet is immutable")

    @property
    def is_propositional(self) -> bool:
        return self.mode == PROPOSITIONAL

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)

    def by_id(self, cid: int) -> Clause:
        for clause in self.clauses:
            if clause.id == cid:
                return clause
        raise KeyError(cid)

    def next_id(self) -> int:
        return max((c.id for c in self.clauses), default=0) + 1

    def predicates(self) -> tuple:
        seen = set()
        out = []
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.predicate not in seen:
                    seen.add(lit.predicate)
                    out.append(lit.predicate)
        return tuple(out)

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.clauses) + "}"


def clause_set(literal_lists, start_id=1) -> ClauseSet:
    """Convenience builder: number clauses start_id, start_id+1, ..."""
    return ClauseSet(Clause(start_id + i, lits) for i, lits in enumerate(literal_lists))
