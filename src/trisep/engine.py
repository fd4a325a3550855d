"""The outer deduction loop and the bridge from linear resolution.

Propositional input goes as parsed straight to _saturate, which drops its
tautologies and repeated clauses and settles it by conflict-driven clause
learning on integer-coded clauses: each learned clause is the separated
clause of one round whose columns are the reasons of the literals its
conflict analysis resolves, in trail order, and whose closing column is the
conflict clause, so a refutation's trace holds one round per learned clause
that the empty clause depends on, and a satisfiable answer is the full
trail. Clauses and closed states are built only for those rounds, straight
from their derivations.

First-order input runs the main loop first. One round builds one closed
construction, separates its leftover clause, and feeds it back into the
working set. An empty separated clause refutes the input. The first round
that stalls (no closed state, or a separated clause that is a known variant,
a tautology or subsumed by the working set) ends the loop, and _saturate
continues from the admitted clauses with a bounded best effort: one
given-clause loop, as in OTTER and E, of binary resolution (the k=2 special
case of separation) with subsumption, whose resolvents are the closings of
one-column states, under the unifiers that the main loop's closings are
scored under (_unifiers). Ground first-order input takes the same path: its
rounds are those in which every unifier is empty.

Both procedures of _saturate poll one deadline and one clause cap, and both
build the proof chain in one place. A trace is the ordered list of its
rounds, so a round's number is its position there, and derived clause ids
grow in round order. One deadline serves the whole run: reaching it ends the
run without a verdict, so the clock never shapes the trace of a run that
finishes. No derived clause that holds a term deeper than the parsers accept
is admitted: such a separated clause stalls the main loop, and such a
resolvent is dropped.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ConstructionError
from .logic import (
    Clause,
    ClauseSet,
    Literal,
    is_tautology,
    merge_duplicate_literals,
    too_deep,
)
from .oracle import (SATISFIABLE, UNKNOWN, UNSATISFIABLE, Assignment, ProofTrace, RoundRecord,
                     complete_model, verify_model)
from .triangle import (
    EMPTY_STATE,
    Triangle,
    close,
    closing_parts,
    extend,
    prune_redundant_columns,
    start,
)
from .fol import (
    greedy_pull,
    preprocess,
    redundancy_guard,
    variant_key,
)
from .unify import EMPTY, apply, apply_literal, compose, mgu, rename_clause

DEPTH_BOUND_REACHED = "term depth bound reached"


@dataclass(frozen=True)
class Outcome:
    verdict: str
    model: Optional[Assignment] = None
    reason: Optional[str] = None

    @property
    def unsatisfiable(self):
        return self.verdict == UNSATISFIABLE

    @property
    def satisfiable(self):
        return self.verdict == SATISFIABLE


@dataclass(frozen=True)
class EngineConfig:
    max_rounds: int = 40  # the main loop's round cap; first-order input only
    fallback_enabled: bool = True  # first-order input only
    time_budget: float = 10.0

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds!r}")
        # no comparison with NaN holds, so a NaN budget would end every loop at once
        if not self.time_budget >= 0:
            raise ValueError(f"time_budget must be >= 0 seconds, got {self.time_budget!r}")


# ---------------------------------------------------------------------------
# Round construction
# ---------------------------------------------------------------------------


def _seeds(state: Triangle, placed: Clause) -> list:
    """The mgu of each clause literal with each boundary complement, or None
    where none exists: one row per boundary literal, in boundary order."""
    return [[mgu(lit, target) for lit in placed.literals]
            for target in [b.complement() for b in state.boundary]]


def _unifiers(state: Triangle, placed: Clause, by_boundary: list):
    """The distinct unifiers under which placed, a clause already renamed
    apart from state's columns, may close state: the greedy unifier plus one
    per seeded (clause literal, boundary complement) unifier, literal by
    literal, since the greedy pull order can miss the useful instantiation.
    by_boundary is _seeds(state, placed). On ground input every seed is
    empty, so only the greedy unifier remains. Without a seed, no instance of
    the clause holds a boundary complement: none is tried.

    Each distinct seed is grown once. The greedy pull from the empty seed
    binds first the first seed met boundary by boundary, and then goes on as
    it would from that seed, since a pair that did not unify has no unifying
    instance: the greedy unifier is that seed's, and is grown from it (from
    the empty seed when every seed is empty). A seed equal to one tried
    grows the same unifier again, and so may a distinct seed; each unifier
    is yielded once. No repeat changes a ranking (min keeps the first of
    equal keys) or the fallback (it skips a variant it has seen)."""
    if all(seed is None for row in by_boundary for seed in row):
        return
    # the greedy unifier grows from its first seed; then the distinct other
    # non-empty seeds, literal by literal
    first = next(filter(None, chain.from_iterable(by_boundary)), EMPTY)
    seeds = dict.fromkeys(filter(None, chain.from_iterable(zip(*by_boundary))))
    seeds.pop(first, None)
    grown = set()
    for seed in chain((first,), seeds):
        try:
            unifier = greedy_pull(state, placed.literals, None, seed)
        except ConstructionError:
            continue
        if unifier not in grown:
            grown.add(unifier)
            yield unifier


def _closings(state: Triangle, placed: Clause):
    """Closed states for one clause, placed already renamed apart from
    state's columns: one per unifier of _unifiers under which the closing is
    legal, in its order. From a one-column state these are the two-column
    rounds: the binary resolvents, which the fallback builds."""
    for unifier in _unifiers(state, placed, _seeds(state, placed)):
        try:
            yield close(state, placed, unifier)
        except ConstructionError:  # no legal closed state under this unifier
            continue


class _ClauseStore:
    """A growing clause set in insertion order, indexed by literal: the round
    builder's working set, and the processed clauses of _saturate's
    first-order loop, which finds forward and backward subsumption through
    it (propositional input never reaches it: _conflict_driven holds its own
    clauses, integer-coded). Subsumption is syntactic literal-set inclusion.

    Each literal maps to the clauses that hold it. Each clause is also
    watched under its first literal (a stored clause is never empty): a
    clause whose literals are a subset of C's holds its watched literal,
    which is in C, so scanning the watches of C's literals tests every
    candidate subsumer once. Dicts keyed by clause id keep insertion order
    and delete in O(1). count_unifiable serves only should_stop's partner
    test; its counts are memoized until the store changes.
    """

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._clauses: Dict[int, Clause] = {}
        self._occurrences: Dict[Literal, Dict[int, Clause]] = {}
        self._watches: Dict[Literal, Dict[int, frozenset]] = {}
        self._unifiable: Dict[Literal, int] = {}
        for clause in clauses:
            self.add(clause)

    def __iter__(self):
        return iter(self._clauses.values())

    def __len__(self):
        return len(self._clauses)

    def add(self, clause: Clause) -> None:
        cid = clause.id
        self._clauses[cid] = clause
        for lit in clause.literals:
            self._occurrences.setdefault(lit, {})[cid] = clause
        self._watches.setdefault(clause.literals[0], {})[cid] = clause.literal_set
        self._unifiable.clear()

    def count_unifiable(self, literal: Literal) -> int:
        """How many clauses hold a literal that unifies with literal."""
        n = self._unifiable.get(literal)
        if n is None:
            n = self._unifiable[literal] = sum(
                1 for c in self if any(mgu(literal, other) is not None for other in c.literals))
        return n

    def subsumes(self, literal_set: frozenset) -> bool:
        """Whether some clause's literals are a subset of literal_set."""
        watches = self._watches
        for lit in literal_set:
            watched = watches.get(lit)
            if watched:
                for subset in watched.values():
                    if subset <= literal_set:
                        return True
        return False

    def remove_subsumed_by(self, clause: Clause) -> None:
        """Drop every clause whose literals strictly contain clause's."""
        literal_set = clause.literal_set
        fewest = min((self._occurrences.get(lit, {}) for lit in clause.literals), key=len)
        for other in [p for p in fewest.values() if literal_set < p.literal_set]:
            cid = other.id
            del self._clauses[cid]
            for lit in other.literals:
                del self._occurrences[lit][cid]
            del self._watches[other.literals[0]][cid]
        self._unifiable.clear()


def should_stop(closed: Triangle, working: _ClauseStore) -> Tuple[bool, Optional[str]]:
    """Whether a closed state is an acceptable stopping point, read from its
    closing column's leftovers.

    Reasons, strongest first: the closing column absorbed its whole clause
    (empty_dplus); no clause of working holds a literal that unifies with the
    complement of some closing leftover (no_complement_partner).
    """
    closing_plus = closed.d_plus(closed.closing_index)
    if not closing_plus:
        return True, "empty_dplus"
    if any(working.count_unifiable(lit.complement()) == 0 for lit in closing_plus):
        return True, "no_complement_partner"
    return False, None


class _RoundBuilder:
    """Strategy-guided construction of closed states, one per build.

    Selection order: unit clauses first; then extensions after which some
    clause would close fully absorbed; then extensions leaving the fewest new
    leftovers; clause id and literal position settle ties, so every key is
    unique and a build is deterministic. A build stops at the first closing
    that should_stop accepts, which asks the working set for complement
    partners.

    It serves first-order input only (propositional input goes straight to
    _saturate); ground input is the case in which every unifier is empty.

    Candidates are ranked before they are built. When a unit clause extends
    a state, no other clause is placed. The look-ahead asks only whether some
    closing leaves nothing over, and only of the clauses that could close
    that way. A least closing is a key and its unifier, read off the closing
    column's partition (closing_parts) without building the closed state,
    and _best_closure builds the one closed state it returns.

    Builds share their work through caches that live as long as the builder
    and are keyed by state identity: each placement (state, clause, literal
    position) with its column signature, each least closing (state, clause),
    each state's set of column signatures and each renaming (clause, column).
    A cached placement is the state placed before, so a build that takes a
    step an earlier build took walks the same states, and the least closings
    that the look-ahead computes are the ones _best_closure reads if the
    candidate wins. The caches are exact: a closing depends only on its state
    and clause; the working set only grows; and the one working-set input to
    a placement is redundancy_guard, whose answer can only turn to reject as
    the set grows, so a cached instantiated placement is checked against the
    clauses added since and placed again if one of them rejects it. A least
    closing keys each distinct unifier once, and stops at the least key that
    any closing of its clause could reach.

    Every build starts from the empty state. prove makes one builder for a run
    whose main loop runs (first-order input, max_rounds > 0), and it derives
    the column cap from the input before preprocessing. The working set is a
    clause store, to which prove adds each kept separated clause.
    """

    def __init__(self, inputs: Iterable[Clause], clause_set: ClauseSet, deadline: float):
        self.working = _ClauseStore(inputs)
        self.max_columns = max(8, 4 * len(clause_set.clauses))
        self.deadline = deadline
        # (state, clause id, position) -> (placement, guarded instance, working size)
        self._placements: Dict[tuple, tuple] = {}
        self._least: Dict[tuple, Optional[tuple]] = {}  # (state, clause id) -> least closing
        self._signatures: Dict[Triangle, set] = {}
        self._renamed: Dict[tuple, Clause] = {}  # (clause id, column) -> renamed clause

    # -- helpers ------------------------------------------------------------

    def _rename(self, clause: Clause, column: int) -> Clause:
        """clause renamed for column (1-based)."""
        key = clause.id, column
        renamed = self._renamed.get(key)
        if renamed is None:
            renamed = self._renamed[key] = rename_clause(clause, column)
        return renamed

    def _place(self, state: Triangle, clause: Clause, idx: int) -> Optional[tuple]:
        """state plus clause, renamed for its column, with its literal idx on
        the boundary, as (placed state, its new column's signature), or None
        when that literal repeats a boundary literal or no column is legal;
        cached (see the class docstring)."""
        key = state, clause.id, idx
        entry = self._placements.get(key)
        if entry is not None:
            placement, instance, size = entry
            if instance is None or size == len(self.working):
                return placement
            if not any(other.literal_set <= instance
                       for other in islice(self.working, size, None)):
                self._placements[key] = placement, instance, len(self.working)
                return placement
        placement, instance = self._placement(state, clause, idx)
        self._placements[key] = placement, instance, len(self.working)
        return placement

    def _placement(self, state: Triangle, clause: Clause, idx: int) -> tuple:
        """What _place caches, computed: the placement, and the literal set
        of the instance that redundancy_guard accepted (None when the guard
        was not asked). The clause is placed under the greedy unifier, and
        uninstantiated when that unifier breaks an invariant or makes a
        redundant instance."""
        placed = self._rename(clause, len(state.columns) + 1)
        lit = placed.literals[idx]
        # renaming makes a non-ground literal fresh, so only a ground one can
        # repeat a boundary literal here; a repeat that the column's unifier
        # would create is not caught
        if lit in state.boundary:
            return None, None
        result = instance = None
        try:
            searched = greedy_pull(state, placed.literals, lit)
            if searched:
                try:
                    result = extend(state, placed, lit, searched)
                except ConstructionError:
                    pass
                else:
                    if result.instantiated(-1) != placed.literals:
                        instance = frozenset(result.instantiated(-1))
                        if not redundancy_guard(instance, placed.id, self.working):
                            result = instance = None
            if result is None:
                result = extend(state, placed, lit)
        except ConstructionError:
            return None, None
        return (result, self._column_signature(result, len(result.columns) - 1)), instance

    def _least_closing(self, state: Triangle, clause: Clause) -> Optional[tuple]:
        """The least key of clause's closings of state, with its unifier, as
        (key, unifier), the first of equal keys, or None; the key is
        (leftover count, -inside count, clause id), read off the closing
        column's partition (closing_parts) without building the closed
        state. Cached per (state, clause).

        The scan stops at a closing whose key is the least any could reach: a
        literal that unifies with no boundary complement is left over in
        every closing (merging may join such literals, so one is counted),
        and only the literals that do can be inside."""
        cache_key = state, clause.id
        try:
            return self._least[cache_key]
        except KeyError:
            pass
        placed = self._rename(clause, len(state.columns) + 1)
        by_boundary = _seeds(state, placed)
        seeded = [any(seed is not None for seed in column) for column in zip(*by_boundary)]
        floor = (0 if all(seeded) else 1, -sum(seeded), clause.id)
        least = None
        for unifier in _unifiers(state, placed, by_boundary):
            try:
                d_minus, d_plus = closing_parts(state, placed, unifier)
            except ConstructionError:  # no legal closed state under this unifier
                continue
            key = (len(d_plus), -len(d_minus), clause.id)
            if least is None or key < least[0]:
                least = key, unifier
                if key == floor:
                    break
        self._least[cache_key] = least
        return least

    def _best_closure(self, state: Triangle) -> Optional[Triangle]:
        """state's best closing over the working set, or None: the closing of
        least key among the least closings of its clauses, the only one
        closed."""
        best = None
        for clause in self.working:
            least = self._least_closing(state, clause)
            if least is not None and (best is None or least[0] < best[0][0]):
                best = least, clause
        if best is None:
            return None
        (_, unifier), clause = best
        return close(state, self._rename(clause, len(state.columns) + 1), unifier)

    def _separates_empty(self, state: Triangle) -> bool:
        """The look-ahead of a state without leftovers: whether its best
        closing separates the empty clause. Closing such a state leaves
        exactly the closing column's leftovers (an instantiation keeps every
        complement a complement, so the earlier columns stay leftover-free,
        and an illegal one raises), so that holds iff some clause has a least
        closing without leftovers. Only a clause whose every literal has the
        sign and predicate of some boundary complement can close that way;
        those are asked in working order, up to the first that does, through
        the least closings that _best_closure reads."""
        shapes = {(lit.positive, lit.predicate) for lit in state.boundary_complements}
        for clause in self.working:
            if all((lit.positive, lit.predicate) in shapes for lit in clause.literals):
                least = self._least_closing(state, clause)
                if least is not None and least[0][0] == 0:
                    return True
        return False

    def _column_signature(self, state: Triangle, index: int):
        col = state.columns[index]
        boundary_idx = None
        if col.boundary_source is not None:
            boundary_idx = col.source_literals.index(col.boundary_source)
        return (col.clause_id, boundary_idx, variant_key(state.instantiated(index)))

    def _extensions(self, state: Triangle) -> List[Tuple[tuple, Triangle]]:
        """The extensions of state that can rank best, in scan order, as (key,
        the extended state). Key: (unit, look-ahead, new leftover count,
        clause id, literal position); keys are unique, and the least one
        ranks best. The unit clauses are placed first; when one of them
        extends state, the others are not placed, since unit leads the key.
        A key depends on the column's unifier, so each candidate is placed
        here (_place). The look-ahead of a candidate without leftovers is
        _separates_empty; a candidate with leftovers is not looked ahead
        from, and its look-ahead field is 1."""
        signatures = self._signatures.get(state)
        if signatures is None:
            signatures = self._signatures[state] = {
                self._column_signature(state, i) for i in range(len(state.columns))}
        extensions = []
        for wanted in (0, 1):  # unit clauses first
            for clause in self.working:
                unit = 0 if len(clause) == 1 else 1
                if unit != wanted:
                    continue
                for idx in range(len(clause)):
                    placement = self._place(state, clause, idx)
                    if placement is None or placement[1] in signatures:
                        continue
                    candidate = placement[0]
                    look = 0 if not candidate.leftovers and self._separates_empty(candidate) else 1
                    extensions.append(((unit, look, len(candidate.d_plus(-1)), clause.id, idx),
                                       candidate))
            if extensions:
                break
        return extensions

    # -- main ---------------------------------------------------------------

    def build(self) -> Optional[Triangle]:
        """One closed state, or None: the best closing of the first state
        whose best closing should_stop accepts, of the state at the column
        cap, or of the state that no extension grows; the deadline ends a
        build with None."""
        state = EMPTY_STATE
        best = None  # state's best closing, None before the first column
        while time.monotonic() < self.deadline:
            if state.columns:
                best = self._best_closure(state)
                if best is not None and should_stop(best, self.working)[0]:
                    break
                if len(state.columns) >= self.max_columns:
                    break
            extensions = self._extensions(state)
            if not extensions:
                break
            state = min(extensions)[1]
        else:
            return None
        return best


# ---------------------------------------------------------------------------
# Saturation fallback
# ---------------------------------------------------------------------------

_SATURATION_CLAUSE_CAP = 20000


def _spent(deadline: float, held: int) -> Optional[str]:
    """Why the fallback must end with held clauses, or None."""
    if time.monotonic() > deadline:
        return "time budget exhausted during saturation"
    return "saturation clause cap exceeded" if held > _SATURATION_CLAUSE_CAP else None


def _proof_chain(last: int, premises: Dict[int, tuple], existing: Dict[int, RoundRecord],
                 derived: Callable[[int], RoundRecord]) -> List[RoundRecord]:
    """The rounds that derive clause last, its own included, in id order.
    premises maps each round's clause id to the ids of the clauses it used;
    ids grow in derivation order, so each round follows its premises. A main
    loop round (existing maps its clause id to it) is recorded afresh, and
    derived(id) records a fallback round: the fallback records exactly the
    rounds it returns."""
    needed, frontier = {last}, [last]
    while frontier:
        for used in premises.get(frontier.pop(), ()):
            if used not in needed:
                needed.add(used)
                frontier.append(used)
    return [RoundRecord(existing[i].state, existing[i].csc) if i in existing else derived(i)
            for i in sorted(needed & premises.keys())]


def _trail_model(names: Sequence[str], value: List[int]) -> Assignment:
    """The model that a full trail without a conflict gives: each atom's
    value, where atom i's positive literal is coded 2i."""
    return {name: value[2 * i] > 0 for i, name in enumerate(names)}


def _conflict_driven(working: Sequence[Clause], next_id: int, deadline: float):
    """_saturate on propositional input: conflict-driven clause learning,
    with the 1-UIP learning and backjumping of GRASP (Marques-Silva and
    Sakallah, 1999) and the two watched literals of Chaff (Moskewicz et al.,
    2001), on integer-coded clauses.

    working is the input as parsed. Coding drops, in input order, each
    tautology (two literals on one atom) and each clause whose literal set
    came before, which is what preprocess drops from ground input. Atom i of
    the kept clauses, in name order, is coded 2i positive and 2i + 1
    negative, so a code's complement is code ^ 1; value holds 1 (true), -1
    (false) or 0 (free) per code. A clause is a list of codes, watched by its
    first two when it has two or more; a unit clause is put on the trail at
    level 0. A decision sets the first free atom in name order true; there
    are no restarts and no clause deletion.

    A conflict resolves the conflict clause with the reasons of its literals
    of the current level, latest first, until one is left (at level 0, until
    none is). That resolves each atom at most once, so the learned clause's
    derivation is one round: its columns are the reasons in trail order,
    each with its implied literal on the boundary, and its closing column is
    the conflict clause. Each learned clause takes the next id and keeps its
    derivation, (conflict clause index, [(reason index, implied code), ...]);
    once the empty clause is learned, the rounds it depends on are built
    from their derivations, one extend per reason and one close, which is
    the round that linear_to_etc makes of the same complement-free chain."""
    first: Dict[frozenset, Clause] = {}  # literal set -> the first clause that holds it
    for clause in working:
        if len({lit.predicate for lit in clause.literals}) == len(clause.literals):
            first.setdefault(clause.literal_set, clause)
    # id -> clause: the kept input clauses, then each derived round's csc
    clauses = {clause.id: clause for clause in first.values()}
    names = sorted({lit.predicate for clause in clauses.values() for lit in clause.literals})
    atom = {name: 2 * i for i, name in enumerate(names)}
    lits = [[atom[lit.predicate] + (not lit.positive) for lit in clause.literals]
            for clause in clauses.values()]
    ids = list(clauses)
    value = [0] * (2 * len(names))
    level, reason = [0] * len(names), [0] * len(names)
    watches = [[] for _ in value]
    trail, starts = [], []  # starts[k]: where level k + 1 begins on the trail
    derivations: Dict[int, tuple] = {}
    qhead = free = 0  # no atom before free is free

    def assign(code: int, why: Optional[int]) -> None:
        value[code], value[code ^ 1] = 1, -1
        level[code >> 1], reason[code >> 1] = len(starts), why
        trail.append(code)

    def propagate() -> Optional[int]:
        """Unit propagation from qhead; a conflict clause's index or None."""
        nonlocal qhead
        while qhead < len(trail):
            false = trail[qhead] ^ 1
            qhead += 1
            watching, kept = watches[false], []
            for k, ci in enumerate(watching):
                codes = lits[ci]
                if codes[0] == false:
                    codes[0], codes[1] = codes[1], false
                other = codes[0]
                if value[other] > 0:
                    kept.append(ci)
                    continue
                for m in range(2, len(codes)):
                    if value[codes[m]] >= 0:
                        codes[1], codes[m] = codes[m], false
                        watches[codes[1]].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value[other]:
                        watches[false] = kept + watching[k + 1:]
                        return ci
                    assign(other, ci)
            watches[false] = kept
        return None

    def analyze(conflict: int) -> tuple:
        """The learned clause's codes, its asserting code first, and its
        derivation's steps, latest first."""
        current = len(starts)
        marked, learned, steps = set(), [], []
        pending, codes, i = 0, lits[conflict], len(trail)
        while True:
            for code in codes:
                if code >> 1 not in marked:
                    marked.add(code >> 1)
                    if level[code >> 1] == current:
                        pending += 1
                    else:
                        learned.append(code)
            if not pending:  # level 0: every literal is resolved
                return learned, steps
            i -= 1
            while trail[i] >> 1 not in marked:
                i -= 1
            implied = trail[i]
            pending -= 1
            if current and not pending:  # the first unique implication point
                return [implied ^ 1] + learned, steps
            steps.append((reason[implied >> 1], implied))
            codes = lits[reason[implied >> 1]]

    conflict = None
    for ci, codes in enumerate(lits):
        if len(codes) > 1:
            watches[codes[0]].append(ci)
            watches[codes[1]].append(ci)
        elif conflict is None and value[codes[0]] < 0:
            conflict = ci
        elif not value[codes[0]]:
            assign(codes[0], ci)
    while True:
        if conflict is None:
            conflict = propagate()
            if conflict is None:  # decide
                while free < len(names) and value[2 * free]:
                    free += 1
                if free == len(names):
                    return SATISFIABLE, [], _trail_model(names, value), None
                starts.append(len(trail))
                assign(2 * free, None)
                continue
        if spent := _spent(deadline, len(derivations) + 1):
            return UNKNOWN, [], None, spent
        learned, steps = analyze(conflict)
        derivations[next_id] = conflict, steps
        if not learned:
            break
        back = 0
        if len(learned) > 1:  # watch the literal of the highest level below
            j = max(range(1, len(learned)), key=lambda k: level[learned[k] >> 1])
            learned[1], learned[j] = learned[j], learned[1]
            back = level[learned[1] >> 1]
            watches[learned[0]].append(len(lits))
            watches[learned[1]].append(len(lits))
        undone = trail[starts[back]:]
        for code in undone:
            value[code] = value[code ^ 1] = 0
        free = min(free, min(code >> 1 for code in undone))
        qhead = starts[back]
        del trail[qhead:], starts[back:]
        lits.append(learned)
        ids.append(next_id)
        assign(learned[0], len(lits) - 1)
        next_id += 1
        conflict = None

    premises = {cid: (ids[top], *(ids[r] for r, _ in steps))
                for cid, (top, steps) in derivations.items()}

    def derived(cid: int) -> RoundRecord:
        top, steps = derivations[cid]
        state = EMPTY_STATE
        for r, code in reversed(steps):
            state = extend(state, clauses[ids[r]], Literal(not code & 1, names[code >> 1]))
        state = close(state, clauses[ids[top]])
        clauses[cid] = Clause(cid, state.csc)
        return RoundRecord(state, clauses[cid])

    return UNSATISFIABLE, _proof_chain(next_id, premises, {}, derived), None, None


def _saturate(working: Iterable[Clause], seen: set, next_id: int, prop: bool,
              deadline: float, existing_rounds: Sequence[RoundRecord]):
    """The fallback: conflict-driven clause learning (_conflict_driven) on
    propositional input, which prove hands over as parsed, and a given-clause
    loop of binary resolution with subsumption, smallest clauses first, on
    first-order input, after the main loop. The logic is the input's, since
    preprocessing can leave first-order input 0-ary.

    On first-order input it continues from the clauses prove admitted:
    working holds no tautology and no two variants, seen holds their variant
    keys, which every kept resolvent's key joins, and existing_rounds are the
    main loop's rounds, which the fallback's rounds follow. Propositional
    input comes with neither keys nor rounds; _conflict_driven drops its
    tautologies and repeated clauses itself. Both procedures poll the
    deadline and the clause cap through _spent: the propositional one at each
    conflict, before its clause is learned, with the cap on learned clauses;
    the first-order one at each selection, with the cap on processed clauses.
    Both return the rounds that the empty clause depends on, through
    _proof_chain.

    The first-order loop selects the clause of least (length, arrival); it
    is dropped if a processed clause subsumes it, and otherwise drops the
    processed clauses it strictly subsumes, joins them and is resolved with
    each of them in processing order (itself last, once), each pair both
    ways. A first-order csc depends on the unifier, so each resolvent is
    built as a round, as in round building: _closings closes one clause's
    one-column state with the other clause, renamed for a second column.
    Each clause's one-column states, one per literal, and its renaming are
    built once, as it is processed. A resolvent that is a tautology, a
    variant of a clause seen, too deep or subsumed by a processed clause is
    not kept; dropping a deep one makes the saturation incomplete. A kept
    resolvent's round is held as (closed state, csc) until the loop ends,
    and a RoundRecord is built only for those on the proof chain. The loop
    ends at the deadline, past the clause cap, at the empty clause or when
    no clause is left to select.

    Returns (verdict, rounds, model, reason): verdict is UNSATISFIABLE with
    the derivation chain, SATISFIABLE with the model of a full trail
    (propositional input only), or UNKNOWN on budget or cap exhaustion, or
    when first-order saturation ends without the empty clause.
    """
    if prop:
        return _conflict_driven(working, next_id, deadline)
    existing = {rec.csc.id: rec for rec in existing_rounds}
    premises = {cid: rec.clause_ids_used for cid, rec in existing.items()}
    processed = _ClauseStore()
    openings: Dict[int, tuple] = {}  # clause id -> (one-column states, second-column renaming)
    rounds: Dict[int, tuple] = {}  # kept resolvent id -> (closed state, csc)
    deep = False
    heap = [(len(c), tick, c) for tick, c in enumerate(working)]
    heapq.heapify(heap)
    tick = len(heap)
    while heap:
        if spent := _spent(deadline, len(processed)):
            return UNKNOWN, [], None, spent
        given = heapq.heappop(heap)[2]
        if processed.subsumes(given.literal_set):
            continue
        processed.remove_subsumed_by(given)
        processed.add(given)
        first = rename_clause(given, 1)
        openings[given.id] = (tuple(start(first, lit) for lit in first.literals),
                              rename_clause(given, 2))
        for a, b in chain.from_iterable(
                ((given, other),) if other is given else ((given, other), (other, given))
                for other in processed):
            second = openings[b.id][1]
            for opened in openings[a.id][0]:
                for closed in _closings(opened, second):
                    lits = closed.csc
                    if is_tautology(lits) or (key := variant_key(lits)) in seen:
                        continue
                    if too_deep(lits):
                        deep = True
                        continue
                    if processed.subsumes(frozenset(lits)):
                        continue
                    premises[next_id] = a.id, b.id
                    csc = Clause(next_id, lits)
                    rounds[next_id] = closed, csc
                    seen.add(key)
                    if csc.is_empty():
                        return (UNSATISFIABLE, _proof_chain(next_id, premises, existing,
                                                            lambda i: RoundRecord(*rounds[i])),
                                None, None)
                    heapq.heappush(heap, (len(csc), tick, csc))
                    tick += 1
                    next_id += 1
    return UNKNOWN, [], None, (DEPTH_BOUND_REACHED if deep else
                               "first-order saturation completed without the empty clause")


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def _finish(rounds: Sequence[RoundRecord], verdict: str, model: Optional[Assignment] = None,
            reason: Optional[str] = None) -> Tuple[Outcome, ProofTrace]:
    return Outcome(verdict, model, reason), ProofTrace(tuple(rounds), verdict, model, reason)


def prove(clause_set: ClauseSet, config: Optional[EngineConfig] = None
          ) -> Tuple[Outcome, ProofTrace]:
    config = config or EngineConfig()
    deadline = time.monotonic() + config.time_budget
    prop = clause_set.is_propositional

    if any(c.is_empty() for c in clause_set.clauses):
        return _finish((), UNSATISFIABLE)

    # a clause dropped before the fallback may hold the highest input id
    next_id = clause_set.next_id()
    working, known = clause_set.clauses, set()
    rounds: List[RoundRecord] = []
    deep = False

    # propositional input goes straight to the fallback, which drops its
    # tautologies and repeated clauses; on first-order input the first
    # stalled round hands the admitted clauses to it, and a build at the
    # deadline returns None
    if not prop:
        working = preprocess(clause_set).clauses
        if not working:
            return _finish((), UNKNOWN, reason="all clauses deleted in preprocessing")
        known = {variant_key(c.literals) for c in working}
    if not prop and config.max_rounds:
        builder = _RoundBuilder(working, clause_set, deadline)
        working = builder.working
        while len(rounds) < config.max_rounds:
            state = builder.build()
            if state is None:
                break
            state = prune_redundant_columns(state)
            csc = Clause(next_id, state.csc)
            if csc.is_empty():
                return _finish(rounds + [RoundRecord(state, csc)], UNSATISFIABLE)
            key = variant_key(csc.literals)
            deep = too_deep(csc.literals)
            if deep or key in known or is_tautology(csc) or working.subsumes(csc.literal_set):
                break
            rounds.append(RoundRecord(state, csc))
            known.add(key)
            working.add(csc)
            next_id += 1

    if (prop or config.fallback_enabled) and time.monotonic() < deadline:
        verdict, fb_rounds, model, reason = _saturate(
            working, known, next_id, prop, deadline, rounds)
        if verdict == SATISFIABLE:
            model = complete_model(model, clause_set)
            if not verify_model(clause_set, model):
                verdict, model, reason = UNKNOWN, None, "the saturation model failed verification"
        return _finish(fb_rounds if verdict == UNSATISFIABLE else rounds, verdict, model, reason)
    if time.monotonic() >= deadline:
        reason = "time budget exhausted"
    elif deep:
        reason = DEPTH_BOUND_REACHED
    else:
        reason = "round budget exhausted or a round stalled, fallback disabled"
    return _finish(rounds, UNKNOWN, reason=reason)


# ---------------------------------------------------------------------------
# Linear deduction bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearDeduction:
    """A resolution chain: the top clause is resolved with each side clause in
    turn on the given pivot (the pivot sits in the side clause, its complement
    in the running resolvent)."""

    top_clause: Clause
    side_clauses: tuple
    pivots: tuple
    unifiers: Optional[tuple] = None  # per-step, composed and applied up front

    def __post_init__(self):
        if len(self.side_clauses) != len(self.pivots):
            raise ValueError("one pivot per side clause")
        if self.unifiers is not None and len(self.unifiers) != len(self.pivots):
            raise ValueError("one unifier per step when given")


def _instantiate_linear(ld: LinearDeduction):
    if not ld.unifiers:
        return ld.top_clause, list(ld.side_clauses), list(ld.pivots)
    total = EMPTY
    for sub in ld.unifiers:
        total = compose(sub, total)
    top = apply(total, ld.top_clause)
    sides = [apply(total, c) for c in ld.side_clauses]
    pivots = [apply_literal(total, p) for p in ld.pivots]
    return top, sides, pivots


def linear_resolvent(ld: LinearDeduction) -> tuple:
    """Fold the chain to its final resolvent; raises on a malformed step."""
    top, sides, pivots = _instantiate_linear(ld)
    running = set(top.literals)
    for step, (side, pivot) in enumerate(zip(sides, pivots), start=1):
        if pivot not in side.literals:
            raise ConstructionError(f"step {step}: pivot {pivot} not in side clause "
                                    f"{side.id}")
        if pivot.complement() not in running:
            raise ConstructionError(f"step {step}: resolvent lacks {pivot.complement()}")
        running = (running - {pivot.complement()}) | (set(side.literals) - {pivot})
    return merge_duplicate_literals(sorted(running, key=str))


def linear_to_etc(ld: LinearDeduction, start_id: Optional[int] = None) -> List[RoundRecord]:
    """Realize a linear chain as separation rounds.

    Complement-free pivots give a single round whose separated clause is the
    final resolvent. Otherwise the chain splits into maximal complement-free
    pivot segments, scanned from the top end; each segment becomes one round
    whose separated clause feeds the next as its top clause. The engine
    builds the same one round for each learned clause's complement-free
    chain directly (_conflict_driven), without validating the chain again.
    """
    linear_resolvent(ld)  # validates every step
    top, sides, pivots = _instantiate_linear(ld)
    if start_id is None:
        start_id = max([top.id] + [c.id for c in sides]) + 1
    rounds: List[RoundRecord] = []
    while sides:
        seen, seg = set(), 0
        while seg < len(pivots) and pivots[seg].complement() not in seen:
            seen.add(pivots[seg])
            seg += 1
        state = EMPTY_STATE
        for j in range(seg - 1, -1, -1):
            state = extend(state, sides[j], pivots[j])
        state = close(state, top)
        top = Clause(start_id, state.csc)
        rounds.append(RoundRecord(state, top))
        sides = sides[seg:]
        pivots = pivots[seg:]
        start_id += 1
    return rounds
