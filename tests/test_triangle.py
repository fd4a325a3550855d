import random

import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Variable,
    clause_set,
    close,
    extend,
    is_standard_contradiction,
    is_unsatisfiable_bruteforce,
    neg,
    normalize_stairs,
    pos,
    prune_redundant_columns,
    should_stop,
    start,
)
from trisep.engine import _ClauseStore, _RoundBuilder
from trisep.errors import ConstructionError
from trisep.triangle import EMPTY_STATE
from conftest import pulled_close, random_closed_state, random_instance, reference_ranking


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
    stop, reason = should_stop(state, None, _ClauseStore(ex41.clauses))
    assert stop and reason == "empty_dplus"


def test_should_stop_no_complement_partner():
    s = clause_set([[pos("p")], [neg("p"), pos("q")]])
    state = close(start(s.clauses[0], pos("p")), s.clauses[1])
    # leftover q has no clause holding ~q anywhere in the set
    stop, reason = should_stop(state, None, _ClauseStore(s.clauses))
    assert stop and reason == "no_complement_partner"


def test_should_stop_asks_for_a_unifiable_partner_on_first_order_input():
    a, b, x, y = Constant("a"), Constant("b"), Variable("X"), Variable("Y")
    top, step = Clause(1, [pos("p", a)]), Clause(2, [neg("p", y), pos("q", y)])
    state = pulled_close(start(top, pos("p", a)), step)
    assert state.csc == (pos("q", a),)
    # ~q(X) unifies with ~q(a), the complement of the closing leftover
    partnered = _ClauseStore([top, step, Clause(3, [neg("q", x)])])
    assert should_stop(state, None, partnered) == (False, None)
    # ~q(b) does not, so q(a) has no partner
    unpartnered = _ClauseStore([top, step, Clause(3, [neg("q", b)])])
    assert should_stop(state, None, unpartnered) == (True, "no_complement_partner")


def test_should_stop_threshold():
    s = clause_set([
        [pos("p")],
        [neg("p"), pos("a"), pos("b"), pos("c")],
        [neg("a")], [neg("b")], [neg("c")],
    ])
    state = close(start(s.clauses[0], pos("p")), s.clauses[1])
    working = _ClauseStore(s.clauses)
    stop, reason = should_stop(state, 2, working)
    assert stop and reason == "threshold"
    keep_going, _ = should_stop(state, 10, working)
    assert not keep_going


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
