import ast
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import trisep
from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Variable,
    clause_set,
    is_standard_contradiction,
    is_unsatisfiable_bruteforce,
    neg,
    pos,
    propositional_shadow,
    shadow_contradiction_check,
    prove,
    standard_contradiction_counterexample,
    verify_model,
    verify_trace,
)
from trisep.errors import OracleError
from trisep.logic import is_ground, merge_duplicate_literals
from trisep.oracle import find_model_bruteforce, ground_fresh
from conftest import fn, random_clause_list


def clauses(*literal_lists):
    return [Clause(i + 1, lits) for i, lits in enumerate(literal_lists)]


def test_standard_contradiction_worked_four_clause_case(ex41):
    assert is_standard_contradiction(list(ex41.clauses))


def test_standard_contradiction_trivial_cases():
    assert is_standard_contradiction(clauses([pos("p")], [neg("p")]))
    assert not is_standard_contradiction(clauses([pos("p")], [pos("q")]))


def test_counterexample_is_first_pair_free_tuple():
    found = standard_contradiction_counterexample(
        clauses([pos("p"), pos("q")], [pos("r")]))
    assert found == (pos("p"), pos("r"))


def test_the_tuple_search_runs_through_a_chain_wider_than_the_recursion_limit():
    # x1, ~x1 | x2, ..., ~x1999 | x2000, ~x2000
    n = 2000
    chain = clauses([pos("x1")], *([neg(f"x{k}"), pos(f"x{k + 1}")] for k in range(1, n)),
                    [neg(f"x{n}")])
    assert is_standard_contradiction(chain)
    found = standard_contradiction_counterexample(chain[:-1])
    assert found == tuple(pos(f"x{k}") for k in range(1, n + 1))


def test_standard_contradiction_rejects_non_ground_and_empty():
    with pytest.raises(OracleError):
        is_standard_contradiction(clauses([pos("P", Variable("x"))]))
    with pytest.raises(OracleError):
        is_standard_contradiction(clauses([pos("p")], []))


def test_bruteforce_on_worked_sets(ex41, ex43):
    assert is_unsatisfiable_bruteforce(ex41)
    assert is_unsatisfiable_bruteforce(ex43)
    assert not is_unsatisfiable_bruteforce(clause_set([[pos("p")]]))


def test_bruteforce_rejects_first_order_input():
    fol = ClauseSet([Clause(1, [pos("P", Constant("a"))])])
    with pytest.raises(OracleError):
        is_unsatisfiable_bruteforce(fol)


def test_bruteforce_variable_cap():
    wide = clause_set([[neg(f"v{i}")] for i in range(30)])
    with pytest.raises(OracleError):
        is_unsatisfiable_bruteforce(wide)
    # raising the cap admits the sweep; all-false satisfies immediately
    assert not is_unsatisfiable_bruteforce(wide, variable_cap=30)


def _first_model_by_enumeration(s):
    """The first model in truth-table order: variable i, in order of first
    occurrence, is bit i of the assignment's number."""
    names = s.predicates()
    for number in range(1 << len(names)):
        model = {name: bool(number >> i & 1) for i, name in enumerate(names)}
        if all(any(model[lit.predicate] == lit.positive for lit in clause.literals)
               for clause in s.clauses):
            return model
    return None


def test_the_bit_column_sweep_finds_the_first_model_in_truth_table_order():
    rng = random.Random(34)
    sets = [clause_set([]), clause_set([[]]), clause_set([[pos("p")], []])]
    for _ in range(400):
        names = [f"v{i}" for i in range(rng.randint(1, 10))]
        bodies = [[(pos if rng.random() < 0.5 else neg)(name)
                   for name in rng.sample(names, rng.randint(1, min(3, len(names))))]
                  for _ in range(rng.randint(1, 4 * len(names)))]
        if rng.random() < 0.05:
            bodies.insert(rng.randrange(len(bodies) + 1), [])
        sets.append(clause_set(bodies))
    answers, sizes = Counter(), set()
    for s in sets:
        model = find_model_bruteforce(s)
        assert model == _first_model_by_enumeration(s)
        answers[model is None] += 1
        sizes.add(len(s.predicates()))
    assert answers[True] and answers[False] and sizes == set(range(11))


def test_the_bit_column_sweep_answers_a_24_variable_set_within_a_second():
    # satisfied only by the last assignment of the sweep: every variable true
    names = [f"v{i}" for i in range(24)]
    s = clause_set([[pos(name), neg(other)] for name, other in zip(names, names[1:] + names[:1])]
                   + [[pos("v0")]])
    started = time.perf_counter()
    model = find_model_bruteforce(s)
    assert time.perf_counter() - started < 1.0
    assert model == dict.fromkeys(names, True)


def test_verify_model_basic():
    s = clause_set([[pos("p1")], [neg("p1"), pos("p4")]])
    # brute force over the 4 assignments confirms this is the model family
    assert verify_model(s, {"p1": True, "p4": True})
    assert not verify_model(s, {"p1": True, "p4": False})
    assert not verify_model(clause_set([[pos("p")]]), {"p": False})


def test_verify_model_empty_clause_and_coverage():
    with_empty = ClauseSet([Clause(1, [pos("p")]), Clause(2, [])])
    assert not verify_model(with_empty, {"p": True})
    with pytest.raises(OracleError):
        verify_model(clause_set([[pos("p"), pos("q")]]), {"p": True})


def test_verify_model_implies_satisfiable():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(5)]
    for _ in range(100):
        lits_lists = [[(pos if rng.random() < 0.5 else neg)(rng.choice(names))
                       for _ in range(rng.randint(1, 3))]
                      for _ in range(rng.randint(1, 6))]
        s = clause_set(lits_lists)
        model = find_model_bruteforce(s)
        if model is not None:
            assert verify_model(s, model)
            assert not is_unsatisfiable_bruteforce(s)


def test_propositional_shadow_bijection():
    a = Constant("a")
    cs = clauses([pos("P3", fn("f", a))], [neg("P3", a)])
    shadow = propositional_shadow(cs)
    assert [[str(l) for l in c.literals] for c in shadow] == [["a1"], ["~a2"]]

    same_atom = clauses([pos("P", a)], [neg("P", a)])
    shadow2 = propositional_shadow(same_atom)
    assert shadow2[0].literals[0].predicate == shadow2[1].literals[0].predicate


def test_propositional_shadow_empty_and_non_ground():
    assert propositional_shadow([]) == []
    with pytest.raises(OracleError):
        propositional_shadow(clauses([pos("P", Variable("x"))]))


def test_shadow_check_on_instantiated_first_order_columns():
    # the three inside parts of the worked first-order table, grounded at one
    # fresh constant for the shared variable; enumerating the literal tuples
    # by hand gives 1*2*1 = 2 tuples, each holding a complementary pair
    x31 = Variable("x31")
    cols = clauses(
        [neg("P5", x31)],
        [pos("P4", x31), pos("P5", x31)],
        [neg("P4", x31)],
    )
    assert shadow_contradiction_check(cols)
    grounded = ground_fresh(cols)
    assert is_standard_contradiction(propositional_shadow(grounded))


def test_ground_fresh_uses_one_constant_per_variable():
    cols = clauses([pos("P", Variable("x"), Variable("y"))])
    grounded = ground_fresh(cols)
    args = grounded[0].literals[0].args
    assert args[0] != args[1]


def test_ground_fresh_names_constants_in_first_occurrence_order():
    x, y = Variable("x"), Variable("y")
    grounded = ground_fresh(clauses([neg("P", y, fn("f", x))], [pos("Q", x), pos("R", y)]))
    assert [str(c) for c in grounded] == ["~P(_g1,f(_g2))", "Q(_g2) | R(_g1)"]


def test_the_oracle_survives_a_fault_in_the_engine_substitution_code(monkeypatch):
    # the oracle certifies first-order rounds, so it must not share the
    # engine's substitution code: break it and ground the columns anyway
    import trisep.unify
    monkeypatch.setattr(trisep.unify, "apply", lambda sub, target: target)
    x, y = Variable("x"), Variable("y")
    contradiction = clauses([neg("P", x, fn("f", y))], [pos("P", x, fn("f", y)), pos("Q", y)],
                            [neg("Q", y)])
    assert all(is_ground(c.literals) for c in ground_fresh(contradiction))
    assert shadow_contradiction_check(contradiction)
    assert not shadow_contradiction_check(clauses([pos("P", x)], [neg("P", y)]))


def test_verify_trace_rejects_a_trace_built_with_faulty_substitution_code(monkeypatch):
    # the checker must not share the engine's substitution code either: make
    # the construction steps drop one binding (the variable that sorts last),
    # build a refutation with them, and the checker must see the wrong
    # instances. The unifier search (trisep.fol) reads the boundary that the
    # faulty steps derive, but applies its growing unifier with its own code,
    # and renaming (trisep.unify) keeps its code too: with a binding dropped
    # there, greedy_pull re-finds the same unifier forever and renamed clauses
    # share variables.
    real = trisep.unify.apply_literal

    def faulty_literal(sub, lit):
        dropped = max(sub.domain, default=None)
        return real(trisep.unify.Substitution(
            {name: term for name, term in sub.items() if name != dropped}), lit)

    def faulty_literals(sub, literals):
        return merge_duplicate_literals(faulty_literal(sub, lit) for lit in literals)

    faults = {"apply_literal": faulty_literal, "apply_literals": faulty_literals}
    for module in (trisep.engine, trisep.render, trisep.triangle):
        for name in faults.keys() & vars(module).keys():
            monkeypatch.setattr(module, name, faults[name])
    a, b, x, y = Constant("a"), Constant("b"), Variable("x"), Variable("y")
    problem = ClauseSet([Clause(1, [pos("p", a)]), Clause(2, [pos("r", b)]),
                         Clause(3, [neg("p", x), neg("r", y), pos("q", x, y)]),
                         Clause(4, [neg("q", a, b)])])
    outcome, trace = prove(problem)
    assert outcome.unsatisfiable and trace.rounds
    result = verify_trace(problem, trace)
    assert not result and "partition does not match" in result.diagnostic


def _package_imports(module) -> set:
    """The trisep modules that module's source imports, as '.name'."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported |= ({base} if node.module else {base + a.name for a in node.names})
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    return {name.replace("trisep.", ".") for name in imported
            if name.startswith((".", "trisep."))}


def test_the_oracle_imports_only_logic_and_errors():
    # so it imports nothing from unify, fol, triangle or engine, whose code
    # builds the rounds it certifies
    assert _package_imports(trisep.oracle) <= {".logic", ".errors"}


def test_the_checker_imports_only_its_trusted_base():
    # trisep check reads a trace with render, whose terms tptp reads, and
    # verifies it with the oracle; none of them may reach the prover, even
    # on a path that no profiled check happens to call
    from trisep import render, tptp
    trusted = {".errors", ".logic", ".tptp", ".oracle"}
    for module in (trisep.oracle, render, tptp):
        assert _package_imports(module) <= trusted, module.__name__


def test_substitution_invariance_of_standard_contradictions():
    # consistent renaming of atoms preserves the contradiction property
    rng = random.Random(12)
    base = clauses([pos("p"), pos("q")], [neg("p"), pos("q")], [neg("q")])
    assert is_standard_contradiction(base)
    for _ in range(20):
        mapping = {"p": rng.choice(["p", "r", "s"]), "q": rng.choice(["q", "t"])}
        renamed = [Clause(c.id, [type(l)(l.positive, mapping[l.predicate]) for l in c.literals])
                   for c in base]
        assert is_standard_contradiction(renamed)


def test_tuple_check_agrees_with_truth_table_both_directions():
    rng = random.Random(99)
    for _ in range(300):
        cs = random_clause_list(rng)
        tuple_side = is_standard_contradiction(cs)
        table_side = is_unsatisfiable_bruteforce(
            ClauseSet([Clause(i + 1, c.literals) for i, c in enumerate(cs)]))
        assert tuple_side == table_side
