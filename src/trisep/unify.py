"""Substitutions, most general unifiers, and variable renaming."""

from __future__ import annotations

from typing import Iterable, Optional

from .logic import (
    Clause,
    Constant,
    Function,
    Literal,
    Variable,
    merge_duplicate_literals,
    variable_names,
)


class Substitution:
    """A finite map from variable names to terms.

    Identity bindings are dropped on construction and a variable may never map
    to a term containing itself. Substitutions produced by mgu() and by the
    engine's composition chains are idempotent; compose() itself follows the
    apply contract and does not force idempotence by closure.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings=None):
        cleaned = {}
        for name, term in dict(bindings or {}).items():
            if isinstance(term, Variable) and term.name == name:
                continue
            if name in term.variable_names:
                raise ValueError(f"binding {name} -> {term} fails the occurs check")
            cleaned[name] = term
        object.__setattr__(self, "_map", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def get(self, name: str):
        return self._map.get(name)

    def items(self):
        return self._map.items()

    @property
    def domain(self) -> tuple:
        return tuple(self._map)

    def is_empty(self) -> bool:
        return not self._map

    def __bool__(self):
        return bool(self._map)

    def __len__(self):
        return len(self._map)

    def __eq__(self, other):
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def restrict(self, names: Iterable[str]) -> "Substitution":
        names = set(names)
        return Substitution({k: v for k, v in self._map.items() if k in names})

    def __str__(self):
        if not self._map:
            return "{}"
        inner = ", ".join(f"{k} -> {v}" for k, v in sorted(self._map.items()))
        return "{" + inner + "}"

    __repr__ = __str__


EMPTY = Substitution()


def map_variables(term, replacement):
    """term with each variable v replaced by replacement(v); a replacement is
    not walked, and a ground term comes back as itself."""
    if not term.variable_names:
        return term
    if isinstance(term, Variable):
        return replacement(term)
    return Function(term.name, tuple(map_variables(a, replacement) for a in term.args))


def apply_term(sub: Substitution, term):
    return map_variables(term, lambda var: sub.get(var.name) or var)


def apply_literal(sub: Substitution, literal: Literal) -> Literal:
    if not literal.args or sub.is_empty():
        return literal
    return Literal(literal.positive, literal.predicate,
                   tuple(apply_term(sub, a) for a in literal.args))


def apply_literals(sub: Substitution, literals: Iterable[Literal]) -> tuple:
    """Substitute, then merge literals that became identical."""
    return merge_duplicate_literals(apply_literal(sub, lit) for lit in literals)


def apply(sub: Substitution, target):
    """Apply a substitution to a term, literal, literal tuple, or clause."""
    if isinstance(target, (Variable, Constant, Function)):
        return apply_term(sub, target)
    if isinstance(target, Literal):
        return apply_literal(sub, target)
    if isinstance(target, Clause):
        return Clause(target.id, apply_literals(sub, target.literals))
    return apply_literals(sub, target)


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution equivalent to applying inner first, then outer."""
    if outer.is_empty():
        return inner
    if inner.is_empty():
        return outer
    merged = {name: apply_term(outer, term) for name, term in inner.items()}
    for name, term in outer.items():
        if name not in merged:
            merged[name] = term
    return Substitution(merged)


def _resolve(term, bindings):
    """Follow variable bindings to a representative term (not a deep walk)."""
    while isinstance(term, Variable) and term.name in bindings:
        term = bindings[term.name]
    return term


def _occurs(name: str, term, bindings) -> bool:
    term = _resolve(term, bindings)
    if isinstance(term, Variable):
        return term.name == name
    if isinstance(term, Function):
        return any(_occurs(name, a, bindings) for a in term.args)
    return False


def _unify_terms(a, b, bindings) -> bool:
    a = _resolve(a, bindings)
    b = _resolve(b, bindings)
    if not (a.variable_names or b.variable_names):  # ground terms unify when equal
        return a == b
    if isinstance(a, Variable):
        if isinstance(b, Variable) and a.name == b.name:
            return True
        if _occurs(a.name, b, bindings):
            return False
        bindings[a.name] = b
        return True
    if isinstance(b, Variable):
        if _occurs(b.name, a, bindings):
            return False
        bindings[b.name] = a
        return True
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.name == b.name
    if isinstance(a, Function) and isinstance(b, Function):
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        return all(_unify_terms(x, y, bindings) for x, y in zip(a.args, b.args))
    return False


def _ground_out(bindings) -> Substitution:
    """Resolve every binding fully; acyclic by the occurs check, so this terminates."""

    def resolved(term):
        term = _resolve(term, bindings)
        return term if isinstance(term, Variable) else map_variables(term, resolved)

    return Substitution({name: resolved(term) for name, term in bindings.items()})


def mgu(a: Literal, b: Literal) -> Optional[Substitution]:
    """Most general unifier of two literals of the same sign, or None.

    The result is idempotent, and any other unifier of the pair factors
    through it.
    """
    if a.positive != b.positive or a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    if not a.args:
        return EMPTY
    bindings = {}
    for x, y in zip(a.args, b.args):
        if not _unify_terms(x, y, bindings):
            return None
    return _ground_out(bindings)


def rename_clause(clause: Clause, tag) -> Clause:
    """Suffix every variable with '#tag'; injective, so the result is a variant.
    A variable-free clause comes back as itself."""
    names = variable_names(clause.literals)
    if not names:
        return clause
    return apply(Substitution({name: Variable(f"{name}#{tag}") for name in names}), clause)


def rename_apart(clauses: Iterable[Clause]) -> list:
    """Rename so the clauses pairwise share no variable.

    A clause that shares none with the clauses before it passes through as
    itself; a colliding clause k (1-based) gets the '#k' suffix, escalated to
    '#k_2', '#k_3', ... in the unlikely event the suffixed names are taken.
    """
    renamed = []
    used = set()
    for k, clause in enumerate(clauses, start=1):
        new, names, bump = clause, variable_names(clause.literals), 1
        while not names.isdisjoint(used):
            new = rename_clause(clause, k if bump == 1 else f"{k}_{bump}")
            names, bump = variable_names(new.literals), bump + 1
        used |= names
        renamed.append(new)
    return renamed
