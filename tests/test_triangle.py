import random
from collections import Counter
from itertools import chain

import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    EngineConfig,
    Variable,
    clause_set,
    close,
    extend,
    is_standard_contradiction,
    is_unsatisfiable_bruteforce,
    neg,
    normalize_stairs,
    pos,
    prove,
    prune_redundant_columns,
    should_stop,
    start,
)
from trisep import engine
from trisep.engine import _ClauseStore, _RoundBuilder
from trisep.errors import ConstructionError
from trisep.triangle import EMPTY_STATE, closing_parts
from trisep.unify import EMPTY, apply_literal, rename_clause
from conftest import (pulled_close, pulled_extend, random_closed_state, random_first_order_set,
                      random_instance, reference_ranking)


def d_columns(state):
    return [Clause(i + 1, state.d_minus(i)) for i in range(len(state.columns))]


# -- start / extend / close ----------------------------------------------------


def test_start_unit_clause():
    state = start(Clause(1, [pos("p1")]), pos("p1"))
    assert state.d_minus(0) == (pos("p1"),)
    assert state.d_plus(0) == ()
    assert state.boundary == (pos("p1"),)
    assert not state.closed


def test_start_splits_leftovers():
    state = start(Clause(1, [pos("p"), pos("q")]), pos("p"))
    assert state.d_minus(0) == (pos("p"),)
    assert state.d_plus(0) == (pos("q"),)


def test_start_requires_membership():
    with pytest.raises(ConstructionError):
        start(Clause(1, [pos("p")]), pos("q"))


def test_extend_pulls_boundary_complements(ex41):
    c1, c2, c3, _ = ex41.clauses
    state = start(c1, pos("p1"))
    state = extend(state, c2, pos("p4"))
    assert set(state.d_minus(1)) == {pos("p4"), neg("p1")}
    assert state.d_plus(1) == ()
    state = extend(state, c3, pos("p3"))
    assert set(state.d_minus(2)) == {pos("p3"), neg("p4")}


def test_extend_without_complement_hits():
    state = start(Clause(1, [pos("p")]), pos("p"))
    state = extend(state, Clause(2, [pos("r"), pos("s")]), pos("r"))
    assert state.d_minus(1) == (pos("r"),)
    assert state.d_plus(1) == (pos("s"),)


def test_extend_rejects_boundary_complement_as_boundary():
    state = start(Clause(1, [pos("p")]), pos("p"))
    with pytest.raises(ConstructionError):
        extend(state, Clause(2, [neg("p"), pos("q")]), neg("p"))


def test_close_full_table(ex41):
    c1, c2, c3, c4 = ex41.clauses
    state = close(extend(extend(start(c1, pos("p1")), c2, pos("p4")), c3, pos("p3")), c4)
    assert state.closed
    assert set(state.d_minus(3)) == {neg("p1"), neg("p3")}
    assert state.csc == ()


def test_close_separates_leftovers():
    state = start(Clause(1, [pos("p1")]), pos("p1"))
    state = close(state, Clause(2, [neg("p1"), pos("p4")]))
    assert state.csc == (pos("p4"),)
    # brute force confirms the two clauses entail the separated unit
    s = clause_set([[pos("p1")], [neg("p1"), pos("p4")], [neg("p4")]])
    assert is_unsatisfiable_bruteforce(s)


def test_close_requires_a_complement():
    state = start(Clause(1, [pos("p")]), pos("p"))
    with pytest.raises(ConstructionError):
        close(state, Clause(2, [pos("q")]))


def test_closed_state_rejects_more_work():
    state = close(start(Clause(1, [pos("p")]), pos("p")), Clause(2, [neg("p")]))
    with pytest.raises(ConstructionError):
        extend(state, Clause(3, [pos("r")]), pos("r"))
    with pytest.raises(ConstructionError):
        close(state, Clause(3, [neg("p")]))


def test_boundary_repeats_are_legal_at_this_level(ex61):
    d1, d2, d3, d4, d5, d6 = ex61.clauses
    state = start(d6, pos("x5"))
    state = extend(state, d5, pos("x3"))
    state = extend(state, d4, pos("x4"))
    state = extend(state, d3, pos("x3"))  # repeated boundary literal
    state = extend(state, d2, pos("x2"))
    state = close(state, d1)
    assert set(state.csc) == {neg("x1"), neg("x4")}


# -- stop conditions -------------------------------------------------------------


def test_should_stop_empty_leftover(ex41):
    c1, c2, c3, c4 = ex41.clauses
    state = close(extend(extend(start(c1, pos("p1")), c2, pos("p4")), c3, pos("p3")), c4)
    stop, reason = should_stop(state, _ClauseStore(ex41.clauses))
    assert stop and reason == "empty_dplus"


def test_should_stop_no_complement_partner():
    s = clause_set([[pos("p")], [neg("p"), pos("q")]])
    state = close(start(s.clauses[0], pos("p")), s.clauses[1])
    # leftover q has no clause holding ~q anywhere in the set
    stop, reason = should_stop(state, _ClauseStore(s.clauses))
    assert stop and reason == "no_complement_partner"


def test_should_stop_asks_for_a_unifiable_partner_on_first_order_input():
    a, b, x, y = Constant("a"), Constant("b"), Variable("X"), Variable("Y")
    top, step = Clause(1, [pos("p", a)]), Clause(2, [neg("p", y), pos("q", y)])
    state = pulled_close(start(top, pos("p", a)), step)
    assert state.csc == (pos("q", a),)
    # ~q(X) unifies with ~q(a), the complement of the closing leftover
    partnered = _ClauseStore([top, step, Clause(3, [neg("q", x)])])
    assert should_stop(state, partnered) == (False, None)
    # ~q(b) does not, so q(a) has no partner
    unpartnered = _ClauseStore([top, step, Clause(3, [neg("q", b)])])
    assert should_stop(state, unpartnered) == (True, "no_complement_partner")


# -- closing parts -------------------------------------------------------------------


def _random_first_order_state(rng, clauses):
    """A state of up to four of clauses, each renamed for its column and
    placed under its greedy unifier with a random boundary literal; a clause
    that cannot be placed is left out."""
    state = EMPTY_STATE
    for _ in range(rng.randint(1, 4)):
        placed = rename_clause(rng.choice(clauses), len(state.columns) + 1)
        try:
            state = pulled_extend(state, placed, rng.choice(placed.literals))
        except ConstructionError:
            continue
    return state


def test_closing_parts_agree_with_close():
    """On random first-order states and clauses, for the empty unifier and
    every distinct unifier that the closing generator grows (the empty one
    closes a clause that holds a boundary complement as it is, and is
    rejected otherwise), closing_parts gives the partition of
    the closing column of close's closed state, so the two key a closing
    alike, and raises exactly when close does, also when the unifier
    re-instantiates the earlier columns and close rebuilds the state. A
    closed state without leftovers before its closing column separates
    exactly that column's leftovers."""
    rng = random.Random(51)
    covered = Counter()
    for _ in range(400):
        clauses = random_first_order_set(rng).clauses
        state = _random_first_order_state(rng, clauses)
        for clause in clauses:
            placed = rename_clause(clause, len(state.columns) + 1)
            unifiers = engine._unifiers(state, placed, engine._seeds(state, placed))
            for unifier in dict.fromkeys(chain((EMPTY,), unifiers)):
                rebuilt = any(state.holds_variable(name) for name in unifier.domain)
                try:
                    closed = close(state, placed, unifier)
                except ConstructionError:
                    closed = None
                try:
                    parts = closing_parts(state, placed, unifier)
                except ConstructionError:
                    parts = None
                assert (parts is None) == (closed is None)
                boundary = [apply_literal(unifier, b) for b in state.boundary]
                if any(b.complement() in boundary[:i] for i, b in enumerate(boundary)):
                    covered["a boundary clash"] += 1
                    assert closed is None
                if closed is None:
                    covered["rejected", rebuilt] += 1
                    continue
                covered["closed", rebuilt] += 1
                k = closed.closing_index
                assert parts == (closed.d_minus(k), closed.d_plus(k))
                if not state.leftovers:
                    covered["without leftovers"] += 1
                    assert closed.csc == closed.d_plus(k)
    assert len(covered) == 6 and min(covered.values()) > 0, covered


# -- stair columns and transformations --------------------------------------------


def _stair_state():
    # boundary p, q; stair clause {~p, ~q}; closer {~q, r}
    s = clause_set([[pos("p"), pos("a")], [pos("q"), pos("b")],
                    [neg("p"), neg("q")], [neg("q"), pos("r")]])
    c1, c2, c3, c4 = s.clauses
    state = start(c1, pos("p"))
    state = extend(state, c2, pos("q"))
    state = extend(state, c3, None)  # stair: both literals complement the boundary
    state = close(state, c4)
    return state


def test_stair_column_has_no_boundary_literal():
    state = _stair_state()
    assert state.is_stair(2)
    assert set(state.d_minus(2)) == {neg("p"), neg("q")}
    assert state.d_plus(2) == ()
    assert len(state.boundary) == 2


def test_stair_requires_full_containment():
    state = start(Clause(1, [pos("p")]), pos("p"))
    with pytest.raises(ConstructionError):
        extend(state, Clause(2, [neg("p"), pos("z")]), None)


def test_normalize_stairs_moves_stairs_without_changing_csc():
    state = _stair_state()
    before = state.csc
    moved = normalize_stairs(state)
    assert moved.csc == before
    assert moved.is_stair(len(moved.columns) - 1)
    assert [c.clause_id for c in moved.columns] == [1, 2, 4, 3]


def test_normalize_stairs_is_identity_without_stairs(ex41):
    c1, c2, c3, c4 = ex41.clauses
    state = close(extend(extend(start(c1, pos("p1")), c2, pos("p4")), c3, pos("p3")), c4)
    assert normalize_stairs(state) is state


def test_normalize_two_stairs_keeps_relative_order():
    s = clause_set([[pos("p"), pos("a")], [pos("q"), pos("b")],
                    [neg("p")], [neg("q"), neg("p")], [neg("q"), pos("r")]])
    c1, c2, c3, c4, c5 = s.clauses
    state = start(c1, pos("p"))
    state = extend(state, c2, pos("q"))
    state = extend(state, c3, None)
    state = extend(state, c4, None)
    state = close(state, c5)
    csc_before = state.csc
    moved = normalize_stairs(state)
    assert moved.csc == csc_before
    assert [c.clause_id for c in moved.columns] == [1, 2, 5, 3, 4]


def test_prune_drops_unused_boundary_columns():
    # r's complement never appears later: that column is deductive dead weight
    s = clause_set([[pos("p")], [pos("r"), pos("z")], [neg("p"), pos("q")]])
    c1, c2, c3 = s.clauses
    state = close(extend(start(c1, pos("p")), c2, pos("r")), c3)
    pruned = prune_redundant_columns(state)
    assert [c.clause_id for c in pruned.columns] == [1, 3]
    assert set(pruned.csc) == {pos("q")}  # lost exactly the pruned column's leftovers


def test_prune_drops_stairs_and_keeps_minimal_pair():
    state = _stair_state()
    pruned = prune_redundant_columns(state)
    assert all(not pruned.is_stair(i) for i in range(len(pruned.columns)))
    assert pruned.closed


def test_prune_no_op_on_fully_linked_table(ex41):
    c1, c2, c3, c4 = ex41.clauses
    state = close(extend(extend(start(c1, pos("p1")), c2, pos("p4")), c3, pos("p3")), c4)
    assert prune_redundant_columns(state) is state


def test_prune_no_op_on_minimal_pair():
    state = close(start(Clause(1, [pos("p")]), pos("p")), Clause(2, [neg("p")]))
    assert prune_redundant_columns(state) is state


def test_transformations_preserve_satisfiability_status():
    rng = random.Random(21)
    for _ in range(100):
        state, s = random_closed_state(rng, force_stair=rng.random() < 0.5)
        if state is None:
            continue
        for transform in (normalize_stairs, prune_redundant_columns):
            changed = transform(state)
            base = is_unsatisfiable_bruteforce(
                ClauseSet(list(s.clauses)
                          + [Clause(s.next_id(), state.csc)]))
            after = is_unsatisfiable_bruteforce(
                ClauseSet(list(s.clauses)
                          + [Clause(s.next_id(), changed.csc)]))
            assert base == after


# -- candidate ranking (the engine's, shared by both logics) ---------------------------


def ranked(state, s):
    """(clause id, boundary literal) of each extension, best first, as the
    reference ranking places them. The round builder's least key must be
    the reference's first."""
    builder = _RoundBuilder(s, s, float("inf"))
    expected = reference_ranking(builder.working, state)
    assert min(builder._extensions(state))[0] == expected[0][0]
    return [(p.columns[-1].clause_id, p.columns[-1].boundary_source) for _, p in expected]


def test_select_candidates_unit_first(ex41):
    order = ranked(EMPTY_STATE, ex41)
    assert order[0] == (1, pos("p1"))


def test_select_candidates_tie_breaks_by_clause_id_then_position():
    s = clause_set([[pos("c"), pos("a")], [pos("a"), pos("d")], [neg("a")]])
    order = ranked(EMPTY_STATE, s)
    assert order[0] == (3, neg("a"))  # the unit leads
    assert order.index((1, pos("a"))) < order.index((2, pos("a")))  # id tie-break
    # ~a occurs in a clause and ~c in none, yet the literal position alone
    # puts c ahead of a
    assert order.index((1, pos("c"))) < order.index((1, pos("a")))


def _reference_least_extension(working, state):
    """The least extension of state as (key, placed state), computed the way
    the ranking was before candidates were ranked before they were built, on
    a fresh builder: every clause's every candidate is placed, and the
    look-ahead of each one without leftovers reads the closed state that
    _best_closure builds."""
    builder = _RoundBuilder(working, ClauseSet(working), float("inf"))
    taken = {builder._column_signature(state, i) for i in range(len(state.columns))}
    scored = []
    for clause in builder.working:
        for idx in range(len(clause)):
            placement = builder._place(state, clause, idx)
            if placement is None or placement[1] in taken:
                continue
            candidate = placement[0]
            closed = None if candidate.leftovers else builder._best_closure(candidate)
            look = 0 if closed is not None and not closed.csc else 1
            key = (0 if len(clause) == 1 else 1, look, len(candidate.d_plus(-1)), clause.id, idx)
            scored.append((key, candidate))
    return min(scored, key=lambda item: item[0], default=None)


def test_first_order_ranking_matches_a_reference_that_builds_every_closing(monkeypatch):
    """On every state that a build reaches on the random first-order corpus,
    the least extension that _extensions returns is the reference's. The
    main loop is the same under the corpus's two configurations (fallback
    off, and a 0.3 s budget), so its builds see the same working sets; the
    check runs without the fallback and without a deadline."""
    real = _RoundBuilder._extensions
    covered = Counter()

    def checked(self, state):
        extensions = real(self, state)
        expected = _reference_least_extension(list(self.working), state)
        assert (expected is None) == (not extensions)
        if extensions:
            key, candidate = min(extensions)
            assert key == expected[0]
            assert (candidate.columns, candidate.sigma) == (expected[1].columns,
                                                            expected[1].sigma)
            covered["unit" if key[0] == 0 else "non-unit"] += 1
            covered["look-ahead"] += key[1] == 0
        return extensions

    monkeypatch.setattr(_RoundBuilder, "_extensions", checked)
    rng = random.Random(2026)
    config = EngineConfig(max_rounds=8, fallback_enabled=False, time_budget=float("inf"))
    for _ in range(200):
        prove(random_first_order_set(rng), config)
    assert min(covered[name] for name in ("unit", "non-unit", "look-ahead")) > 0, covered


def test_select_candidates_filters_boundary_violations():
    s = clause_set([[pos("p")], [neg("p"), pos("q")]])
    state = start(s.clauses[0], pos("p"))
    order = ranked(state, s)
    assert all(lit != neg("p") for _, lit in order)
    assert all(lit != pos("p") for _, lit in order)  # no boundary literal repeats


# -- randomized construction (generators shared via conftest) --------------------------


def test_random_closed_states_are_contradictions():
    rng = random.Random(3)
    built = 0
    for _ in range(200):
        state, _ = random_closed_state(rng)
        if state is None:
            continue
        built += 1
        assert is_standard_contradiction(d_columns(state))
    assert built > 150


def test_padding_to_the_full_triangular_shape_stays_a_contradiction():
    # widen every inside part to its maximal allowed form: the boundary
    # literal plus every earlier complement, all complements for the closer
    rng = random.Random(31)
    checked = 0
    for _ in range(150):
        state, _ = random_closed_state(rng)
        if state is None:
            continue
        checked += 1
        padded = []
        boundary_so_far = []
        for i, col in enumerate(state.columns):
            if col.boundary_source is not None:
                blit = col.boundary_source
                full = [blit] + [b.complement() for b in boundary_so_far]
                boundary_so_far.append(blit)
            else:
                full = [b.complement() for b in boundary_so_far]
            padded.append(Clause(i + 1, full))
        assert is_standard_contradiction(padded)
    assert checked > 100


def test_every_clause_can_be_placed_with_repeats_allowed():
    # drive construction to exhaustion: each clause enters as a boundary
    # column when it still holds a non-complement literal, as a stair otherwise
    rng = random.Random(17)
    covered_runs = 0
    for _ in range(100):
        s = random_instance(rng, min_vars=3, max_vars=6, min_clauses=3, max_clauses=8)
        has_pair = any(l.complement() in c2.literals
                       for c1 in s.clauses for l in c1.literals for c2 in s.clauses)
        if not has_pair:
            continue
        clauses = list(s.clauses)
        state = None
        boundary = []
        ok = True
        for clause in clauses:
            complements = {b.complement() for b in boundary}
            fresh = [l for l in clause.literals if l not in complements]
            try:
                if state is None:
                    state = start(clause, fresh[0])
                    boundary.append(fresh[0])
                elif fresh:
                    state = extend(state, clause, fresh[0])
                    boundary.append(fresh[0])
                else:
                    state = extend(state, clause, None)
            except ConstructionError:
                ok = False
                break
        if not ok or state is None:
            continue
        complements = {b.complement() for b in boundary}
        closer = next((c for c in clauses
                       if any(l in complements for l in c.literals)), None)
        if closer is None:
            continue
        state = close(state, closer)
        placed = set(state.clause_ids())
        assert placed >= {c.id for c in clauses}
        covered_runs += 1
    assert covered_runs > 50


def test_separated_clause_preserves_satisfiability():
    rng = random.Random(47)
    checked = 0
    for _ in range(150):
        state, s = random_closed_state(rng)
        if state is None:
            continue
        checked += 1
        base = is_unsatisfiable_bruteforce(s)
        augmented = ClauseSet(list(s.clauses) + [Clause(s.next_id(), state.csc)])
        assert is_unsatisfiable_bruteforce(augmented) == base
    assert checked > 100


def test_scripted_six_column_variant_of_the_ten_clause_set(ex42):
    # the third recorded construction: boundary x1, x2, x4, x5, ~x3, closed by
    # the ~x1|~x2|x3 clause whose every literal complements the boundary
    c = {cl.id: cl for cl in ex42.clauses}
    state = start(c[1], pos("x1"))
    state = extend(state, c[2], pos("x2"))
    state = extend(state, c[4], pos("x4"))
    state = extend(state, c[5], pos("x5"))
    state = extend(state, c[6], neg("x3"))
    state = close(state, c[3])
    assert state.csc == ()
    assert set(state.d_minus(2)) == {pos("x4"), neg("x1")}
    assert set(state.d_minus(3)) == {pos("x5"), neg("x4")}
    assert set(state.d_minus(4)) == {neg("x3"), neg("x5")}
    assert set(state.d_minus(5)) == {pos("x3"), neg("x1"), neg("x2")}
    assert is_standard_contradiction(d_columns(state))
