"""First-order machinery around the shared construction steps: variants,
preprocessing, unifier search and the redundancy guard.

Columns keep their renamed, pre-instantiation literals; the state's single
global substitution is the composition of every unifier applied during the
round (see trisep.triangle). greedy_pull searches the unifier that a column
is placed under.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from .logic import (
    Clause,
    ClauseSet,
    Constant,
    Literal,
    Variable,
    is_ground,
    is_tautology,
    variable_names,
)
from .errors import ConstructionError
from .triangle import Triangle
from .unify import EMPTY, Substitution, apply_literal, compose, map_variables, mgu, rename_apart


# -- variants ----------------------------------------------------------------


def _blind_term_key(term):
    if isinstance(term, Variable):
        return ("V",)
    if isinstance(term, Constant):
        return ("C", term.name)
    return ("F", term.name, tuple(_blind_term_key(a) for a in term.args))


def _blind_literal_key(lit):
    return (lit.predicate, not lit.positive, tuple(_blind_term_key(a) for a in lit.args))


def variant_key(literals: Collection[Literal]) -> frozenset:
    """A canonical form equal for alphabetic variants (conservative for
    symmetric clauses, which only means a missed dedup, never a wrong one).
    A ground clause is its own canonical form."""
    if is_ground(literals):
        return frozenset(literals)
    ordered = sorted(literals, key=_blind_literal_key)
    renaming = {}

    def canon(var):
        if var.name not in renaming:
            renaming[var.name] = Variable(f"v{len(renaming)}")
        return renaming[var.name]

    return frozenset(Literal(l.positive, l.predicate,
                             tuple(map_variables(a, canon) for a in l.args))
                     for l in ordered)


# -- preprocessing -------------------------------------------------------------


def preprocess(clause_set: ClauseSet) -> ClauseSet:
    """Deletion strategy plus renaming: drop tautologies and alphabetic
    duplicates, then rename the survivors apart. Ids are preserved. prove
    calls it on first-order input only: propositional input goes as parsed to
    conflict-driven learning, which drops the same clauses as it codes them. The
    result's mode follows the survivors, which on first-order input may be
    all 0-ary (or none at all). When nothing is dropped or renamed, the
    result is clause_set itself; otherwise it is a new ClauseSet of the
    survivors, whose symbol tables are checked again."""
    kept = []
    seen = set()
    for clause in clause_set.clauses:
        if is_tautology(clause):
            continue
        key = variant_key(clause.literals)
        if key in seen:
            continue
        seen.add(key)
        kept.append(clause)
    renamed = rename_apart(kept)
    if len(kept) == len(clause_set.clauses) and all(new is old for new, old in zip(renamed, kept)):
        return clause_set
    return ClauseSet(renamed)


# -- unifier search -------------------------------------------------------------


def greedy_pull(state: Triangle, literals, exclude: Optional[Literal] = None,
                seed: Substitution = EMPTY) -> Substitution:
    """Grow seed so that as many of the clause's literals as possible become
    syntactic complements of boundary literals. Boundary positions are tried
    in order, passes repeat to a fixpoint, and bindings may instantiate
    earlier columns (backward propagation is the caller's concern). The
    literals must be renamed apart from the state's columns; raises
    ConstructionError when they share a variable with the state, read off
    its fields (Triangle.holds_variable), not off its columns. The state's
    boundary comes instantiated, and its substitution binds none of the
    renamed literals' variables, so only the growing unifier is applied
    here."""
    overlap = [name for name in variable_names(literals) if state.holds_variable(name)]
    if overlap:
        raise ConstructionError(f"clause shares variables with the state: {sorted(overlap)}")
    increment = seed
    pulled = [lit for lit in literals if exclude is None or lit != exclude]

    def instantiate():  # only a new unifier changes increment
        return ([apply_literal(increment, b).complement() for b in state.boundary],
                [apply_literal(increment, lit) for lit in pulled])

    targets, insts = instantiate()
    changed = True
    while changed:
        changed = False
        for i in range(len(state.boundary)):
            for j in range(len(pulled)):
                inst, target = insts[j], targets[i]
                if inst == target:
                    continue
                unifier = mgu(inst, target)
                if unifier is None:
                    continue
                increment = compose(unifier, increment)
                targets, insts = instantiate()
                changed = True
    return increment


# -- redundancy guard -------------------------------------------------------------


def redundancy_guard(instance: Iterable[Literal], clause_id: int,
                     clauses: Iterable[Clause]) -> bool:
    """False (reject) when instance, the instantiated literals of clause
    clause_id, is a tautology or carries the literals of another of clauses
    wholesale (syntactic-superset subsumption only); clauses is any iterable
    of clauses, the engine's clause store among them."""
    instance_lits = frozenset(instance)
    if is_tautology(instance_lits):
        return False
    for other in clauses:
        if other.id == clause_id:
            continue
        if other.literal_set <= instance_lits:
            return False
    return True
