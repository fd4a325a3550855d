import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Substitution,
    Variable,
    apply,
    close,
    extend,
    greedy_pull,
    neg,
    pos,
    preprocess,
    redundancy_guard,
    rename_clause,
    shadow_contradiction_check,
    start,
)
from trisep import logic
from trisep.engine import _ClauseStore
from trisep.errors import ConstructionError
from trisep.fol import variant_key
from trisep.logic import variable_names
from trisep.oracle import positional_variant
from conftest import fn, pulled_close, pulled_extend


def d_columns(state):
    return [Clause(i + 1, state.d_minus(i)) for i in range(len(state.columns))]


# -- preprocessing ---------------------------------------------------------------


def test_preprocess_removes_tautologies():
    x = Variable("x")
    s = ClauseSet([
        Clause(1, [pos("P", x), neg("P", x)]),
        Clause(2, [pos("Q", Constant("a"))]),
    ])
    cleaned = preprocess(s)
    assert [c.id for c in cleaned.clauses] == [2]


def test_preprocess_drops_alphabetic_variants():
    s = ClauseSet([
        Clause(1, [pos("P", Variable("x")), neg("Q", Variable("x"))]),
        Clause(2, [pos("P", Variable("y")), neg("Q", Variable("y"))]),
        Clause(3, [pos("P", Variable("z")), neg("Q", Variable("w"))]),  # not a variant
    ])
    cleaned = preprocess(s)
    assert [c.id for c in cleaned.clauses] == [1, 3]


def test_preprocess_keeps_distinct_clauses(ex51):
    cleaned = preprocess(ex51)
    assert len(cleaned.clauses) == 7
    for before, after in zip(ex51.clauses, cleaned.clauses):
        assert positional_variant(after.literals, before.literals)


def test_preprocess_renames_shared_variables_apart():
    x = Variable("x")
    s = ClauseSet([Clause(1, [pos("P", x)]), Clause(2, [neg("P", x), pos("Q", x)])])
    cleaned = preprocess(s)
    names = [variable_names(clause.literals) for clause in cleaned.clauses]
    assert not names[0] & names[1]


def test_preprocess_checks_symbol_tables_again_only_when_it_drops_or_renames(monkeypatch):
    # a set that loses a clause is built anew, checked once, from the
    # surviving clauses themselves, and its mode follows the survivors; so
    # is a set with a renamed clause; a set that loses and renames nothing is
    # returned as it is, unchecked
    x = Variable("x")
    dropping = ClauseSet([Clause(1, [pos("P", x), neg("P", x)]), Clause(2, [pos("q")]),
                          Clause(3, [neg("q"), pos("r")]), Clause(4, [pos("r"), neg("q")])])
    renaming = ClauseSet([Clause(1, [pos("P", x)]), Clause(2, [neg("P", x), pos("Q", x)])])
    checked = []
    check = logic._check_symbol_tables

    def counting(clauses):
        checked.append([c.id for c in clauses])
        return check(clauses)

    monkeypatch.setattr(logic, "_check_symbol_tables", counting)
    cleaned = preprocess(dropping)
    assert [c.id for c in cleaned] == [2, 3]
    assert all(c is dropping.by_id(c.id) for c in cleaned)
    assert cleaned.is_propositional and not dropping.is_propositional
    assert checked == [[2, 3]]
    assert preprocess(cleaned) is cleaned and checked == [[2, 3]]
    assert [c.id for c in preprocess(renaming)] == [1, 2]
    assert checked == [[2, 3], [1, 2]]


# -- scripted construction: the one-variable chain (Table 5.1 shape) ---------------


def test_scripted_three_column_table(ex51):
    _, _, c3, c4, _, c6, _ = ex51.clauses
    x31, x41, x61 = Variable("x31"), Variable("x41"), Variable("x61")
    state = start(c6, neg("P5", x61))
    state = extend(state, c3, pos("P4", x31), sigma=Substitution({"x61": x31}))
    state = close(state, c4, sigma=Substitution({"x41": x31}))
    assert set(state.csc) == {pos("P3", fn("f", x31)), neg("P3", x31)}
    # per-column substitutions match the recorded ones
    assert state.column_sigma(0) == Substitution({"x61": x31})
    assert state.column_sigma(1).is_empty()
    assert state.column_sigma(2) == Substitution({"x41": x31})
    assert shadow_contradiction_check(d_columns(state))


def test_searched_three_column_table_is_a_variant(ex51):
    _, _, c3, c4, _, c6, _ = ex51.clauses
    x31, x61 = Variable("x31"), Variable("x61")
    state = start(c6, neg("P5", x61))
    state = pulled_extend(state, c3, pos("P4", x31))
    state = pulled_close(state, c4)
    got = sorted(str(l) for l in state.csc)
    assert got in (
        sorted(["P3(f(x31))", "~P3(x31)"]),
        sorted(["P3(f(x61))", "~P3(x61)"]),
    )
    assert shadow_contradiction_check(d_columns(state))


def test_pulled_extend_with_no_unifiable_complement_uses_empty_sigma():
    a = Constant("a")
    state = start(Clause(1, [pos("P", a)]), pos("P", a))
    other = Clause(2, [pos("Q", Variable("y")), pos("R", Variable("y"))])
    assert greedy_pull(state, other.literals, pos("Q", Variable("y"))).is_empty()
    state = pulled_extend(state, other, pos("Q", Variable("y")))
    assert state.column_sigma(1).is_empty()
    assert state.d_minus(1) == (pos("Q", Variable("y")),)


def test_first_order_extend_raises_on_boundary_conflict():
    a = Constant("a")
    state = start(Clause(1, [pos("P", a)]), pos("P", a))
    with pytest.raises(ConstructionError):
        pulled_extend(state, Clause(2, [neg("P", a), pos("Q", a)]), neg("P", a))


def test_greedy_pull_rejects_shared_variables():
    x = Variable("x")
    state = start(Clause(1, [pos("P", x)]), pos("P", x))
    with pytest.raises(ConstructionError):
        greedy_pull(state, (pos("Q", x),), pos("Q", x))
    # the step itself does not check: placing instantiated clauses that share
    # variables is how linear chains become rounds
    assert extend(state, Clause(2, [pos("Q", x)]), pos("Q", x)).boundary == (
        pos("P", x), pos("Q", x))


def test_close_raises_without_unifiable_complement():
    a = Constant("a")
    state = start(Clause(1, [pos("P", a)]), pos("P", a))
    with pytest.raises(ConstructionError):
        pulled_close(state, Clause(2, [pos("Q", Constant("b"))]))


# -- scripted construction: the five-column merge case (Table 5.2 shape) -----------


def test_scripted_five_column_merge_case(ex52):
    c1, c2, c3, c4, _, c6, c7 = ex52.clauses
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    x = {i: Variable(f"x{i}") for i in range(1, 12)}
    state = start(c1, pos("P1", a))
    state = pulled_extend(state, c2, neg("P2", a, b))
    state = pulled_extend(state, c3, pos("P3", a, fn("f", c), fn("f", b)))
    state = pulled_extend(state, c4, pos("P3", x[1], x[1], fn("f", x[1])))
    state = pulled_extend(state, c6, pos("P2", x[5], x[7]))
    state = pulled_close(state, c7)
    assert state.closed
    assert state.csc == ()
    # the searched substitutions reproduce the recorded ground bindings
    assert state.column_sigma(3) == Substitution({"x1": b})
    assert state.column_sigma(4) == Substitution(
        {"x5": a, "x6": fn("f", c), "x7": fn("f", b)})
    assert state.column_sigma(5) == Substitution(
        {"x8": a, "x9": b, "x10": b, "x11": fn("f", b)})
    # duplicate instances merged into one literal in the closing column
    closing_minus = state.d_minus(5)
    assert closing_minus.count(pos("P2", a, b)) == 1
    assert shadow_contradiction_check(d_columns(state))


# -- scripted construction: the two-round and one-round derivations (5.3-5.5) ------


def _script_first_round(ex53):
    c1, c2, c3, c4, c5, c6, c7 = ex53.clauses
    a1, a3 = Constant("a1"), Constant("a3")
    state = start(c6, pos("P3", a1))
    state = pulled_extend(state, c7, pos("P2", a1, a3))
    state = pulled_extend(state, c5, pos("P1", a1, fn("f1", a1), fn("f1", a3)))
    state = pulled_extend(state, c4, pos("P1", Variable("x41"), Variable("x41"),
                                         fn("f1", Variable("x41"))))
    state = pulled_extend(state, c2, pos("P1", Variable("x22"), Variable("x21"),
                                         Variable("x23")))
    state = pulled_extend(state, c1, neg("P1", Variable("x11"), Variable("x12"),
                                         Variable("x13")))
    return pulled_close(state, c3)


def test_scripted_two_round_derivation(ex53):
    a1, a3 = Constant("a1"), Constant("a3")
    first = _script_first_round(ex53)
    assert set(first.csc) == {pos("P2", a1, fn("f1", a3))}
    # recorded substitutions for the instantiated columns
    assert first.column_sigma(3) == Substitution({"x41": a3})
    assert first.column_sigma(4) == Substitution(
        {"x21": a1, "x22": fn("f1", a1), "x23": fn("f1", a3)})
    assert first.column_sigma(6) == Substitution(
        {"x31": a1, "x32": a3, "x33": a3, "x34": fn("f1", a3)})
    assert shadow_contradiction_check(d_columns(first))

    c1, _, _, _, c5, _, _ = ex53.clauses
    separated = Clause(8, first.csc)
    second = start(separated, pos("P2", a1, fn("f1", a3)))
    second = pulled_extend(second, c1, neg("P1", Variable("x11"), Variable("x12"),
                                           Variable("x13")))
    second = pulled_close(second, c5)
    assert second.csc == ()
    assert second.column_sigma(1) == Substitution(
        {"x11": a1, "x12": fn("f1", a1), "x13": fn("f1", a3)})
    assert shadow_contradiction_check(d_columns(second))


def test_scripted_single_round_derivation(ex53):
    c1, _, c3, c4, c5, c6, c7 = ex53.clauses
    a1, a3 = Constant("a1"), Constant("a3")
    state = start(c6, pos("P3", a1))
    state = pulled_extend(state, c7, pos("P2", a1, a3))
    state = pulled_extend(state, c5, pos("P1", a1, fn("f1", a1), fn("f1", a3)))
    state = pulled_extend(state, c4, pos("P1", Variable("x41"), Variable("x41"),
                                         fn("f1", Variable("x41"))))
    state = pulled_extend(state, c1, neg("P2", Variable("x11"), Variable("x13")))
    state = pulled_close(state, c3)
    assert state.csc == ()
    assert state.column_sigma(4) == Substitution(
        {"x11": a1, "x12": fn("f1", a1), "x13": fn("f1", a3)})
    assert state.column_sigma(3) == Substitution({"x41": a3})
    assert shadow_contradiction_check(d_columns(state))


# -- redundancy guard ------------------------------------------------------------------


def test_redundancy_guard_rejects_tautology_instances():
    x, y = Variable("x"), Variable("y")
    a = Constant("a")
    clause = Clause(1, [pos("P", x), neg("P", y)])
    s = ClauseSet([clause, Clause(2, [pos("Q", a)])])
    # the instance under {x -> a, y -> a}
    assert not redundancy_guard((pos("P", a), neg("P", a)), clause.id, s)


def test_redundancy_guard_rejects_supersets():
    a = Constant("a")
    existing = Clause(2, [pos("Q", a)])
    clause = Clause(1, [pos("P", Variable("x")), pos("Q", Variable("x"))])
    s = ClauseSet([clause, existing])
    assert not redundancy_guard((pos("P", a), pos("Q", a)), clause.id, s)


def test_redundancy_guard_accepts_fresh_instances():
    a = Constant("a")
    clause = Clause(1, [pos("P", Variable("x")), pos("Q", Variable("x"))])
    s = ClauseSet([clause, Clause(2, [pos("Q", Constant("b"))])])
    assert redundancy_guard((pos("P", a), pos("Q", a)), clause.id, s)


def test_redundancy_guard_ignores_the_clause_whose_instance_it_judges():
    # a separated clause over X#1, placed in column 3 as X#1#3, which the
    # column's unifier binds back to X#1: its instance equals the stored
    # clause, which must not count as a subsumer of its own instance
    x1 = Variable("X#1")
    separated = Clause(7, [neg("p", x1), pos("q", fn("f", x1))])
    placed = rename_clause(separated, 3)
    assert variable_names(placed.literals) == {"X#1#3"}
    instance = apply(Substitution({"X#1#3": x1}), placed).literals
    assert instance == separated.literals
    assert redundancy_guard(instance, placed.id, _ClauseStore([separated]))
    # an equal clause under another id does subsume the instance
    twin = Clause(8, separated.literals)
    assert not redundancy_guard(instance, placed.id, _ClauseStore([separated, twin]))


# -- stair placement in first-order mode -------------------------------------------


def test_extend_stair_first_order():
    a = Constant("a")
    state = start(Clause(1, [pos("P", a)]), pos("P", a))
    state = extend(state, Clause(2, [pos("Q", a)]), pos("Q", a))
    stair = pulled_extend(state, Clause(3, [neg("P", Variable("s1")),
                                            neg("Q", Variable("s2"))]))
    assert stair.is_stair(2)
    assert stair.d_plus(2) == ()


# -- variant machinery -----------------------------------------------------------------


def test_variant_key_identifies_renamings():
    x, y = Variable("x"), Variable("y")
    a = Clause(1, [pos("P", x), neg("Q", x, y)])
    b = Clause(2, [pos("P", y), neg("Q", y, Variable("z"))])
    assert variant_key(a.literals) == variant_key(b.literals)
    c = Clause(3, [pos("P", x), neg("Q", y, y)])
    assert variant_key(a.literals) != variant_key(c.literals)


def test_positional_variant_requires_bijection():
    x, y = Variable("x"), Variable("y")
    assert positional_variant([pos("P", x, y)], [pos("P", y, x)])
    assert not positional_variant([pos("P", x, x)], [pos("P", x, y)])
    assert not positional_variant([pos("P", x, y)], [pos("P", x, x)])
    assert not positional_variant([pos("P", x)], [pos("Q", x)])
