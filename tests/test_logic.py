import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Function,
    Variable,
    clause_set,
    complement,
    is_tautology,
    merge_duplicate_literals,
    neg,
    pos,
)
from trisep.errors import ArityError


def test_complement_flips_sign_only():
    assert complement(pos("p")) == neg("p")
    x, y = Variable("x"), Variable("y")
    lit = neg("P1", x, y)
    assert complement(lit) == pos("P1", x, y)
    assert complement(lit).args == lit.args


def test_complement_is_an_involution():
    for lit in (pos("p"), neg("q"), pos("P", Variable("x")), neg("R", Constant("a"))):
        assert complement(complement(lit)) == lit


def test_merge_duplicates_keeps_first_occurrence_order():
    p, q = pos("p"), pos("q")
    assert merge_duplicate_literals([p, p, q]) == (p, q)
    assert merge_duplicate_literals([p, q]) == (p, q)
    assert merge_duplicate_literals([q, p, q, p]) == (q, p)


def test_merge_duplicates_idempotent():
    lits = [pos("a"), neg("a"), pos("a"), pos("b")]
    once = merge_duplicate_literals(lits)
    assert merge_duplicate_literals(once) == once


def test_merge_after_substitution_collapses_equal_instances():
    # P(a) arriving twice from different source literals merges into one
    a = Constant("a")
    assert merge_duplicate_literals([pos("P", a), pos("P", a)]) == (pos("P", a),)


def test_tautology_detection():
    assert is_tautology(Clause(1, [pos("p"), neg("p")]))
    assert not is_tautology(Clause(2, [pos("p"), pos("q")]))
    # distinct variables: syntactic check only, no unification
    assert not is_tautology(Clause(3, [pos("P", Variable("x")), neg("P", Variable("y"))]))


def test_clause_equality_ignores_literal_order_and_id():
    c1 = Clause(1, [pos("p"), pos("q")])
    c2 = Clause(9, [pos("q"), pos("p")])
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.literals == (pos("p"), pos("q"))  # rendering order is deterministic


def test_empty_clause_is_permitted():
    empty = Clause(1, [])
    assert empty.is_empty() and len(empty) == 0


def test_clause_set_mode_inference():
    assert clause_set([[pos("p")], [neg("q")]]).is_propositional
    fol = ClauseSet([Clause(1, [pos("P", Variable("x"))])])
    assert fol.mode == "first-order"


def test_clause_set_rejects_inconsistent_arity():
    with pytest.raises(ArityError):
        ClauseSet([
            Clause(1, [pos("P", Constant("a"))]),
            Clause(2, [pos("P", Constant("a"), Constant("b"))]),
        ])
    with pytest.raises(ArityError):
        ClauseSet([Clause(1, [pos("P", Function("f", (Constant("a"),))),
                              pos("Q", Function("f", (Constant("a"), Constant("b"))))])])


def test_clause_set_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        ClauseSet([Clause(1, [pos("p")]), Clause(1, [pos("q")])])


def test_clause_set_rejects_variable_constant_name_clash():
    with pytest.raises(ArityError):
        ClauseSet([Clause(1, [pos("P", Variable("a"), Constant("a"))])])
