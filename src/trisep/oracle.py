"""Independent brute-force ground truth.

Everything here is deliberately naive: contradiction checking enumerates
literal tuples, satisfiability enumerates assignments. None of it shares
logic with the construction engine, so it can certify the engine's output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .errors import OracleError
from .logic import Clause, ClauseSet, Constant, Function, Literal, Variable, is_ground

DEFAULT_VARIABLE_CAP = 24

# Assignment: map from 0-ary predicate symbol to bool.
Assignment = Dict[str, bool]


def _require_ground(clauses) -> None:
    for clause in clauses:
        if not is_ground(clause.literals):
            raise OracleError(f"clause {clause.id} is not ground: {clause}")


def standard_contradiction_counterexample(clauses: Iterable[Clause]) -> Optional[tuple]:
    """First tuple (column-major by clause position) with no complementary pair.

    Returns None when every cross-clause literal tuple contains a
    complementary pair, i.e. when the clause list is a standard contradiction.
    Enumeration prunes any partial tuple that already holds a pair, since all
    of its extensions do too.
    """
    clauses = list(clauses)
    _require_ground(clauses)
    for clause in clauses:
        if clause.is_empty():
            raise OracleError(f"clause {clause.id} is empty")
    chosen: List[Literal] = []
    chosen_set = set()

    def search(i: int) -> Optional[tuple]:
        if i == len(clauses):
            return tuple(chosen)
        for lit in clauses[i].literals:
            if lit.complement() in chosen_set:
                continue
            chosen.append(lit)
            fresh = lit not in chosen_set
            if fresh:
                chosen_set.add(lit)
            found = search(i + 1)
            chosen.pop()
            if fresh:
                chosen_set.discard(lit)
            if found is not None:
                return found
        return None

    return search(0)


def is_standard_contradiction(clauses: Iterable[Clause]) -> bool:
    """Every tuple in the Cartesian product of the literal sets has a complementary pair."""
    return standard_contradiction_counterexample(clauses) is None


def _propositional_masks(clause_set: ClauseSet):
    if not clause_set.is_propositional:
        raise OracleError("truth-table oracle needs a propositional clause set")
    names = clause_set.predicates()
    index = {name: i for i, name in enumerate(names)}
    masks = []
    for clause in clause_set.clauses:
        pos_mask = 0
        neg_mask = 0
        for lit in clause.literals:
            bit = 1 << index[lit.predicate]
            if lit.positive:
                pos_mask |= bit
            else:
                neg_mask |= bit
        masks.append((pos_mask, neg_mask, clause.is_empty()))
    return names, masks


def is_unsatisfiable_bruteforce(clause_set: ClauseSet,
                                variable_cap: int = DEFAULT_VARIABLE_CAP) -> bool:
    """True iff no assignment satisfies every clause. Full truth-table sweep."""
    return find_model_bruteforce(clause_set, variable_cap) is None


def find_model_bruteforce(clause_set: ClauseSet,
                          variable_cap: int = DEFAULT_VARIABLE_CAP) -> Optional[Assignment]:
    """The first satisfying assignment in truth-table order, or None. The
    engine never calls this."""
    names, masks = _propositional_masks(clause_set)
    if len(names) > variable_cap:
        raise OracleError(f"{len(names)} variables exceed the cap of {variable_cap}")
    if any(empty for _, _, empty in masks):
        return None
    for assignment in range(1 << len(names)):
        if all(pos & assignment or neg & ~assignment for pos, neg, _ in masks):
            return {name: bool(assignment >> i & 1) for i, name in enumerate(names)}
    return None


def verify_model(clause_set: ClauseSet, assignment: Assignment) -> bool:
    """True iff every clause has a literal true under the assignment."""
    if not clause_set.is_propositional:
        raise OracleError("verify_model needs a propositional clause set")
    for name in clause_set.predicates():
        if name not in assignment:
            raise OracleError(f"assignment does not cover variable '{name}'")
    for clause in clause_set.clauses:
        if clause.is_empty():
            return False
        if not any(assignment[lit.predicate] == lit.positive for lit in clause.literals):
            return False
    return True


def propositional_shadow(clauses: Iterable[Clause]) -> List[Clause]:
    """Map each distinct ground atom to one propositional variable, bijectively.

    Clause structure (ids, signs, literal order) is preserved; atoms are
    numbered a1, a2, ... in first-occurrence order.
    """
    clauses = list(clauses)
    _require_ground(clauses)
    atom_names: Dict[tuple, str] = {}
    out = []
    for clause in clauses:
        literals = []
        for lit in clause.literals:
            name = atom_names.get(lit.atom)
            if name is None:
                name = f"a{len(atom_names) + 1}"
                atom_names[lit.atom] = name
            literals.append(Literal(lit.positive, name))
        out.append(Clause(clause.id, literals))
    return out


def ground_fresh(clauses: Iterable[Clause]) -> List[Clause]:
    """Ground residual variables, one fresh constant per variable, named
    _g1, _g2, ... in first-occurrence order.

    The injection preserves syntactic (dis)equality of atoms exactly, so the
    grounded clauses are a standard contradiction iff the originals are. The
    walk is this module's own, so that no fault in the engine's substitution
    code can reach the check that certifies first-order rounds.
    """
    grounding: Dict[str, Constant] = {}

    def ground(term):
        if isinstance(term, Variable):
            if term.name not in grounding:
                grounding[term.name] = Constant(f"_g{len(grounding) + 1}")
            return grounding[term.name]
        if isinstance(term, Function):
            return Function(term.name, tuple(ground(a) for a in term.args))
        return term

    return [clause if is_ground(clause.literals) else
            Clause(clause.id, [Literal(lit.positive, lit.predicate,
                                       tuple(ground(a) for a in lit.args))
                               for lit in clause.literals])
            for clause in clauses]


def shadow_contradiction_check(clauses: Iterable[Clause]) -> bool:
    """Standard-contradiction check for possibly non-ground first-order columns.

    Residual variables are grounded to fresh constants, the result is mapped
    through the propositional shadow, and the tuple enumeration runs there.
    Substitution invariance of standard contradictions makes one grounding
    sufficient.
    """
    return is_standard_contradiction(propositional_shadow(ground_fresh(clauses)))
