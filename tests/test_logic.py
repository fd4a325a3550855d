import pickle
import random

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
from trisep.logic import MAX_TERM_DEPTH, too_deep, variable_names


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
    # the literal set is a plain slot, and written once: hash and equality read it
    assert c1.literal_set == frozenset([pos("p"), pos("q")])
    with pytest.raises(AttributeError):
        c1.literal_set = frozenset()
    assert c1.literal_set == c2.literal_set


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


def _random_term(rng, depth=1):
    """Leaves share names across kinds, so that a variable and a constant of
    equal hash meet."""
    draw = rng.random()
    if depth < 5 and draw < 0.2:
        return Function("f", (_random_term(rng, depth + 1),))
    if depth < 5 and draw < 0.35:
        return Function("g", (_random_term(rng, depth + 1), _random_term(rng, depth + 1)))
    return rng.choice((Variable, Constant))(rng.choice("aXY"))


def _walk_names(term):
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, Constant):
        return set()
    return set().union(*(_walk_names(a) for a in term.args))


def _walk_depth(term):
    if isinstance(term, Function):
        return 1 + max((_walk_depth(a) for a in term.args), default=0)
    return 1


def _structure(term):
    args = tuple(_structure(a) for a in term.args) if isinstance(term, Function) else None
    return type(term).__name__, term.name, args


def _rebuild(term):
    if isinstance(term, Function):
        return Function(term.name, tuple(_rebuild(a) for a in term.args))
    return type(term)(term.name)


def test_term_cache_matches_a_fresh_walk():
    """Each term's hash, variable names and depth, fixed when it is built,
    equal what a walk of the finished term gives; the hash is that of the
    term's fields, on which set order and so the traces depend."""
    rng = random.Random(27)
    deepest = Variable("X")
    for _ in range(MAX_TERM_DEPTH - 1):
        deepest = Function("f", (deepest,))
    terms = [_random_term(rng) for _ in range(300)] + [deepest, Constant("f"),
                                                       Function("f", ())]
    for term in terms:
        fields = (term.name, term.args) if isinstance(term, Function) else (term.name,)
        assert hash(term) == hash(fields)
        assert term.variable_names == _walk_names(term)
        assert term.depth == _walk_depth(term)
        copy = _rebuild(term)
        assert copy == term and hash(copy) == hash(term) and not copy != term
        assert pickle.loads(pickle.dumps(term)) == term
    assert deepest.depth == MAX_TERM_DEPTH
    assert not too_deep([pos("p", deepest)]) and too_deep([pos("p", Function("f", (deepest,)))])
    assert variable_names([pos("p", deepest, Constant("a"))]) == {"X"}
    for left in terms[:120]:
        for right in terms[:120]:
            same = _structure(left) == _structure(right)
            assert (left == right) is same and (left != right) is not same
    assert Variable("a") != Constant("a") and hash(Variable("a")) == hash(Constant("a"))
    with pytest.raises(AttributeError):
        deepest.name = "g"
