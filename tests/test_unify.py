import random

import pytest

from trisep import (
    Clause,
    Constant,
    Function,
    Substitution,
    Variable,
    apply,
    compose,
    mgu,
    neg,
    pos,
    rename_apart,
)
from trisep.oracle import positional_variant


def fn(name, *args):
    return Function(name, tuple(args))


x31, x41, x61 = Variable("x31"), Variable("x41"), Variable("x61")


def test_apply_renames_through_function_terms():
    # the worked one-variable chain: x41 goes to x31 inside f as well
    sub = Substitution({"x41": x31})
    clause = Clause(4, [neg("P4", x41), pos("P3", fn("f", x41))])
    assert apply(sub, clause).literals == (neg("P4", x31), pos("P3", fn("f", x31)))


def test_apply_empty_substitution_is_identity():
    clause = Clause(1, [pos("P", x31), neg("Q", fn("g", x41))])
    assert apply(Substitution(), clause).literals == clause.literals


def test_apply_unit_rename():
    assert apply(Substitution({"x61": x31}), neg("P5", x61)) == neg("P5", x31)


def test_apply_merges_literals_that_become_equal():
    sub = Substitution({"x": Constant("a"), "y": Constant("a")})
    clause = Clause(1, [pos("P", Variable("x")), pos("P", Variable("y"))])
    assert apply(sub, clause).literals == (pos("P", Constant("a")),)


def test_compose_identity_elements():
    s = Substitution({"x": Constant("a")})
    empty = Substitution()
    assert compose(empty, s) == s
    assert compose(s, empty) == s


def test_compose_matches_sequential_application():
    outer = Substitution({"y": Constant("a")})
    inner = Substitution({"x": Variable("y")})
    target = pos("P", Variable("x"))
    assert apply(compose(outer, inner), target) == pos("P", Constant("a"))


def test_compose_associative_up_to_effect():
    rng = random.Random(7)
    names = ["x", "y", "z", "w"]
    consts = [Constant(n) for n in ("a", "b", "c")]

    def random_sub():
        bindings = {}
        for name in rng.sample(names, rng.randint(0, 3)):
            choice = rng.choice(consts + [Variable(n) for n in names if n != name])
            bindings[name] = choice
        try:
            return Substitution(bindings)
        except ValueError:
            return Substitution()

    for _ in range(200):
        a, b, c = random_sub(), random_sub(), random_sub()
        t = pos("P", *(Variable(n) for n in names))
        left = apply(compose(a, compose(b, c)), t)
        right = apply(compose(compose(a, b), c), t)
        assert left == right


def test_substitution_drops_identity_and_rejects_occurs():
    assert Substitution({"x": Variable("x")}).is_empty()
    with pytest.raises(ValueError):
        Substitution({"x": fn("f", Variable("x"))})


def test_mgu_single_variable_against_ground():
    a = pos("P3", Variable("x1"), Variable("x1"), fn("f", Variable("x1")))
    b = pos("P3", Constant("b"), Constant("b"), fn("f", Constant("b")))
    sub = mgu(a, b)
    assert sub == Substitution({"x1": Constant("b")})


def test_mgu_constant_clash_and_occurs_check():
    assert mgu(pos("P", Constant("a")), pos("P", Constant("b"))) is None
    assert mgu(pos("P", Variable("x")), pos("P", fn("f", Variable("x")))) is None


def test_mgu_requires_same_sign_and_predicate():
    assert mgu(pos("P", Variable("x")), neg("P", Variable("x"))) is None
    assert mgu(pos("P", Variable("x")), pos("Q", Variable("x"))) is None


def test_mgu_application_equalizes():
    a = pos("P", Variable("x"), fn("f", Variable("y")))
    b = pos("P", fn("g", Variable("z")), Variable("w"))
    sub = mgu(a, b)
    assert sub is not None
    assert apply(sub, a) == apply(sub, b)


def test_mgu_found_for_randomly_instantiated_pairs():
    rng = random.Random(11)
    base_vars = [Variable(f"v{i}") for i in range(4)]
    consts = [Constant(c) for c in "abc"]

    def random_term(depth=0):
        roll = rng.random()
        if roll < 0.4 or depth > 2:
            return rng.choice(consts)
        if roll < 0.7:
            return Variable(f"u{rng.randint(0, 5)}")
        return fn(rng.choice("fg"), random_term(depth + 1))

    for _ in range(300):
        common = pos("P", *base_vars)
        sub_a = Substitution({v.name: random_term() for v in rng.sample(base_vars, 2)})
        sub_b = Substitution({v.name: random_term() for v in rng.sample(base_vars, 2)})
        a, b = apply(sub_a, common), apply(sub_b, common)
        unifier = mgu(a, b)
        if unifier is not None:
            assert apply(unifier, a) == apply(unifier, b)


def test_mgu_is_most_general():
    # any other unifier factors through the mgu
    a = pos("P", Variable("x"), Variable("y"))
    b = pos("P", Variable("u"), fn("f", Variable("u")))
    general = mgu(a, b)
    specific = Substitution({"x": Constant("a"), "u": Constant("a"),
                             "y": fn("f", Constant("a"))})
    factor = compose(specific, general)
    assert apply(factor, a) == apply(specific, a)
    assert apply(factor, b) == apply(specific, b)


def test_rename_apart_disjoint_input_is_untouched():
    c1 = Clause(1, [pos("P", Variable("x"))])
    c2 = Clause(2, [pos("Q", Variable("y"))])
    renamed = rename_apart([c1, c2])
    assert renamed[0].literals == c1.literals
    assert renamed[1].literals == c2.literals
    assert renamed[0] is c1 and renamed[1] is c2


def test_rename_apart_separates_shared_variables():
    x = Variable("x")
    clauses = [Clause(1, [pos("P", x), pos("Q", x)]), Clause(2, [neg("P", x)]),
               Clause(3, [pos("R", x)])]
    renamed = rename_apart(clauses)
    var_sets = []
    for clause in renamed:
        names = {v.name for lit in clause.literals for a in lit.args
                 for v in _vars(a)}
        var_sets.append(names)
    for i in range(len(var_sets)):
        for j in range(i + 1, len(var_sets)):
            assert not var_sets[i] & var_sets[j]
    # each output is a variant and literal counts are preserved
    for before, after in zip(clauses, renamed):
        assert len(before) == len(after)
        assert positional_variant(after.literals, before.literals)


def _vars(term):
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Function):
        for arg in term.args:
            yield from _vars(arg)


def test_mgu_always_succeeds_on_pattern_instance_pairs():
    # an idempotent substitution (range disjoint from domain) unifies a
    # literal with its own instance, so the most general unifier must exist
    # and equalize the pair
    rng = random.Random(23)
    base_vars = [Variable(f"v{i}") for i in range(4)]
    fresh_vars = [Variable(f"u{i}") for i in range(4)]
    consts = [Constant(c) for c in "ab"]

    def random_term(depth=0):
        roll = rng.random()
        if roll < 0.4 or depth > 2:
            return rng.choice(consts)
        if roll < 0.75:
            return rng.choice(fresh_vars)
        return fn(rng.choice("fg"), random_term(depth + 1))

    for _ in range(300):
        pattern = pos("P", *base_vars)
        picked = rng.sample(base_vars, rng.randint(1, 3))
        sub = Substitution({v.name: random_term() for v in picked})
        instance = apply(sub, pattern)
        unifier = mgu(pattern, instance)
        assert unifier is not None
        assert apply(unifier, pattern) == apply(unifier, instance)
