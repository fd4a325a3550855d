"""Independent brute-force ground truth, the trace records, and the trace
checker built on them.

Everything here is deliberately naive: contradiction checking enumerates
literal tuples, satisfiability enumerates assignments, and verify_trace
re-derives every column with this module's one term walk. None of it shares
logic with the construction engine (this module imports only trisep.logic and
trisep.errors), so it can certify the engine's output. The records that the
engine writes and trisep.render reads back (Column, RoundRecord, ProofTrace)
are defined here, so that checking a parsed trace runs no engine code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .errors import OracleError
from .logic import Clause, ClauseSet, Constant, Function, Literal, Variable, is_ground

DEFAULT_VARIABLE_CAP = 24

UNSATISFIABLE = "unsatisfiable"
SATISFIABLE = "satisfiable"
UNKNOWN = "unknown"

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
    if not clauses:
        return ()
    chosen: List[Literal] = []
    times: Dict[Literal, int] = {}  # how often each literal is chosen
    # the untried literals of each open clause: the search keeps its own
    # stack, so a round of any width fits in the interpreter's
    pending = [iter(clauses[0].literals)]
    while pending:
        if len(chosen) == len(pending):  # back at this clause: undo its choice
            times[chosen.pop()] -= 1
        lit = next((l for l in pending[-1] if not times.get(l.complement())), None)
        if lit is None:
            pending.pop()
            continue
        chosen.append(lit)
        times[lit] = times.get(lit, 0) + 1
        if len(chosen) == len(clauses):
            return tuple(chosen)
        pending.append(iter(clauses[len(chosen)].literals))
    return None


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


_BLOCK_BITS = 16  # assignments per block: 2**16, so each column holds 8 KiB


def find_model_bruteforce(clause_set: ClauseSet,
                          variable_cap: int = DEFAULT_VARIABLE_CAP) -> Optional[Assignment]:
    """The first satisfying assignment in truth-table order, or None. The
    engine never calls this.

    Assignment a makes variable i true when bit i of a is set. The
    assignments are swept in blocks of at most 2**16, all of a block at
    once: in column i, bit k is variable i's value under the block's k-th
    assignment. A clause's column of satisfied assignments is the union of
    its literals' columns, the set's is the intersection of its clauses',
    and the lowest set bit of the first nonzero one is the first model.
    The block's first assignment fixes every variable from the block size
    up, so a clause that one of those literals satisfies drops out of the
    block, and the others need only their low literals' columns."""
    names, masks = _propositional_masks(clause_set)
    if len(names) > variable_cap:
        raise OracleError(f"{len(names)} variables exceed the cap of {variable_cap}")
    if any(empty for _, _, empty in masks):
        return None
    low = min(len(names), _BLOCK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    # column i < low repeats 2**i zero bits, then 2**i one bits
    columns = [(((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (2 << i)) - 1))
               for i in range(low)]
    low_mask = size - 1
    clauses = []  # (high positive mask, high negative mask, low literals' column)
    for pos, neg, _ in masks:
        column = 0
        for i in range(low):
            if pos >> i & 1:
                column |= columns[i]
            if neg >> i & 1:
                column |= full ^ columns[i]
        clauses.append((pos & ~low_mask, neg & ~low_mask, column))
    for base in range(0, 1 << len(names), size):
        models = full
        for pos, neg, column in clauses:
            if not (pos & base or neg & ~base):
                models &= column
                if not models:
                    break
        if models:
            assignment = base + (models & -models).bit_length() - 1
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


def _replace(literals: Iterable[Literal], var: Callable[[Variable], object]) -> tuple:
    """The literals with each variable v replaced by var(v); a literal without
    arguments, and a term without variables, passes through unrebuilt (a
    term's variable names are fixed when it is built). This is the module's
    one term walk, so that no fault in the engine's substitution code can
    reach the checks that certify its rounds. It recurses: the parsers bound
    every source literal and every binding at MAX_TERM_DEPTH, so the literals
    walked here, instantiated ones included, are at most twice that (256
    levels) deep."""

    def walk(term):
        if isinstance(term, Variable):
            return var(term)
        if isinstance(term, Function) and term.variable_names:
            return Function(term.name, tuple(walk(a) for a in term.args))
        return term

    return tuple(lit if not lit.args else
                 Literal(lit.positive, lit.predicate, tuple(walk(a) for a in lit.args))
                 for lit in literals)


def _numbering(make: Callable[[int], object]) -> Callable[[Variable], object]:
    """A replacement for _replace: the n-th distinct variable it meets,
    counted from 1, becomes make(n)."""
    names: Dict[str, object] = {}
    return lambda var: names.get(var.name) or names.setdefault(var.name, make(len(names) + 1))


def _instantiate(sigma, literals: Iterable[Literal]) -> tuple:
    """The literals under sigma in one pass: a binding is not walked again."""
    return _replace(literals, lambda var: sigma.get(var.name) or var)


def positional_variant(src: Iterable[Literal], orig: Iterable[Literal]) -> bool:
    """True when src is orig with variables renamed injectively, literal by
    literal in order: numbered by first occurrence, the variables of both
    give equal tuples. Engine traces always record literals positionally."""
    src, orig = tuple(src), tuple(orig)
    return src == orig or (_replace(src, _numbering(lambda n: Variable(str(n))))
                           == _replace(orig, _numbering(lambda n: Variable(str(n)))))


def ground_fresh(clauses: Iterable[Clause]) -> List[Clause]:
    """Ground residual variables, one fresh constant per variable, named
    _g1, _g2, ... in first-occurrence order; a ground clause comes back as
    itself.

    The injection preserves syntactic (dis)equality of atoms exactly, so the
    grounded clauses are a standard contradiction iff the originals are.
    """
    fresh = _numbering(lambda n: Constant(f"_g{n}"))
    return [clause if is_ground(clause.literals) else
            Clause(clause.id, _replace(clause.literals, fresh))
            for clause in clauses]


def shadow_contradiction_check(clauses: Iterable[Clause]) -> bool:
    """Standard-contradiction check for possibly non-ground first-order columns.

    Residual variables are grounded to fresh constants, and the tuple
    enumeration runs on the grounded clauses. Substitution invariance of
    standard contradictions makes one grounding sufficient; ground
    (propositional among them) clauses are checked as they are.
    """
    return is_standard_contradiction(ground_fresh(clauses))


# ---------------------------------------------------------------------------
# Trace records and their verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """One selected clause. boundary_source is None for stair and closing columns."""

    clause_id: int
    source_literals: tuple
    boundary_source: Optional[Literal] = None
    closing: bool = False


@dataclass(frozen=True)
class RoundRecord:
    """One round: its closed state (a trisep.triangle.Triangle, or a
    trisep.render.RawState read back from a trace document) and the clause
    it separated."""

    state: object
    csc: Clause

    @property
    def clause_ids_used(self) -> tuple:
        return tuple(col.clause_id for col in self.state.columns)


@dataclass(frozen=True)
class ProofTrace:
    rounds: tuple
    verdict: str
    model: Optional[Assignment] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    diagnostic: str = ""

    def __bool__(self):
        return self.ok


def complete_model(model: Assignment, clause_set: ClauseSet) -> Assignment:
    """model extended to every predicate of clause_set, unassigned ones false."""
    full = {name: False for name in clause_set.predicates()}
    full.update(model)
    return full


def verify_trace(clause_set: ClauseSet, trace) -> VerificationResult:
    """Certify every round of a ProofTrace, as prove returns it or as
    trisep.render parses it, as a contradiction-separation step.

    Checks per round, column by column: cited clauses are inputs or earlier
    separated clauses; each column's pre-instantiation literals are a
    (positional) variant of the cited clause; the recorded partition
    re-derives from the substitution and is disjoint with a nonempty inside
    part; and the column was placed in a legal order: its inside part holds
    only its own boundary literal and complements of earlier columns'
    boundary literals. Then the inside parts pass the brute-force
    standard-contradiction check (grounded first), and the separated clause
    is exactly the union of the leftovers, under a fresh id. Finally the
    verdict must be unsatisfiable, satisfiable or unknown, match the last
    round, come with a model exactly when it is satisfiable, and come with a
    reason only when it is unknown.

    The order check comes before the contradiction check because it bounds
    that check's search, which is exponential on inside parts in general.
    Lemma: if every column passes the order check and the round has a
    closing column, which has no boundary literal, then the inside parts are
    a standard contradiction, and the search follows one path. For take any
    tuple: it picks some ~b_j in the closing column. Column j picked either
    b_j, which makes a pair, or some ~b_k with k < j; descend this way, and
    column 1 can pick only b_1. The same argument shows that each column's
    only open choice is its own boundary literal, so every other choice is
    pruned at once. The search is kept as the independent check of the
    paper's definition.
    """
    registry: Dict[int, Clause] = {c.id: c for c in clause_set.clauses}

    def fail(number, message):
        return VerificationResult(False, f"round {number}: {message}")

    for number, record in enumerate(trace.rounds, start=1):
        state = record.state
        if not state.closed:
            return fail(number, "state is not closed")
        sigma = state.sigma
        earlier = set()  # complements of the boundary literals placed so far
        for pos, col in enumerate(state.columns):
            origin = registry.get(col.clause_id)
            if origin is None:
                return fail(number, f"column {pos + 1} cites unknown clause {col.clause_id}")
            if not positional_variant(col.source_literals, origin.literals):
                return fail(number, f"column {pos + 1} is not a variant of clause "
                                    f"{col.clause_id}")
            inst = set(_instantiate(sigma, col.source_literals))
            d_minus, d_plus = set(state.d_minus(pos)), set(state.d_plus(pos))
            if d_minus & d_plus:
                return fail(number, f"column {pos + 1} partition overlaps")
            if not d_minus:
                return fail(number, f"column {pos + 1} has an empty inside part")
            if inst != d_minus | d_plus:
                return fail(number, f"column {pos + 1} partition does not match the "
                                    "instantiated clause")
            own = set(_instantiate(sigma, (col.boundary_source,) if col.boundary_source else ()))
            if not d_minus <= own | earlier:
                return fail(number, f"column {pos + 1} holds an inside literal that is neither "
                                    "its boundary literal nor the complement of an earlier one")
            earlier |= {lit.complement() for lit in own}
        inside = [Clause(i + 1, state.d_minus(i)) for i in range(len(state.columns))]
        if not shadow_contradiction_check(inside):
            return fail(number, "inside parts are not a standard contradiction")
        if set(record.csc.literals) != set(state.csc):
            return fail(number, "separated clause does not equal the leftover union")
        if record.csc.id in registry:
            return fail(number, f"separated clause id {record.csc.id} already used")
        registry[record.csc.id] = record.csc

    if trace.model is not None and trace.verdict != SATISFIABLE:
        return VerificationResult(False, f"a model with verdict {trace.verdict}")
    if trace.reason is not None and trace.verdict in (SATISFIABLE, UNSATISFIABLE):
        return VerificationResult(False, f"a reason with verdict {trace.verdict}")
    if trace.verdict == UNSATISFIABLE:
        if trace.rounds:
            if trace.rounds[-1].csc.literals:
                return VerificationResult(
                    False, "verdict unsatisfiable but the last separated clause is nonempty")
        elif not any(c.is_empty() for c in clause_set.clauses):
            return VerificationResult(
                False, "verdict unsatisfiable with no rounds and no empty input clause")
    elif trace.verdict == SATISFIABLE:
        if not clause_set.is_propositional:
            return VerificationResult(False, "satisfiable verdict on a first-order problem")
        if trace.model is None:
            return VerificationResult(False, "satisfiable verdict without a model")
        if not verify_model(clause_set, complete_model(trace.model, clause_set)):
            return VerificationResult(False, "recorded model does not satisfy the input")
    elif trace.verdict != UNKNOWN:
        return VerificationResult(False, f"unknown verdict {trace.verdict!r}")
    return VerificationResult(True)
