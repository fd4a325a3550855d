"""The acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here: the randomized suites demand zero failures
over their full sample sizes, and the timed fixtures assert their budgets.
"""

import functools
import random
import time

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    EngineConfig,
    LinearDeduction,
    ProofTrace,
    Substitution,
    Variable,
    clause_set,
    close,
    extend,
    is_standard_contradiction,
    is_unsatisfiable_bruteforce,
    linear_resolvent,
    linear_to_etc,
    neg,
    normalize_stairs,
    pos,
    prove,
    shadow_contradiction_check,
    start,
    verify_model,
    verify_trace,
)
from trisep.errors import ConstructionError
from conftest import (fn, pulled_close, pulled_extend, random_clause_list,
                      random_closed_state, random_instance)


def _report(number, description):
    def decorator(test):
        @functools.wraps(test)
        def wrapped(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:2d}: {description}")
                raise
            print(f"PASS  criterion {number:2d}: {description}")
        return wrapped
    return decorator


def d_columns(state):
    return [Clause(i + 1, state.d_minus(i)) for i in range(len(state.columns))]


@_report(1, "four-clause fixture: one round, empty separation, verified trace, <1s")
def test_criterion_01(ex41):
    started = time.monotonic()
    outcome, trace = prove(ex41, EngineConfig())
    elapsed = time.monotonic() - started
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1
    assert trace.rounds[0].csc.literals == ()
    assert verify_trace(ex41, trace)
    assert elapsed < 1.0


@_report(2, "ten-clause fixture: refuted, oracle agrees, scripted table reproduced, <1s")
def test_criterion_02(ex42):
    started = time.monotonic()
    outcome, trace = prove(ex42, EngineConfig())
    assert outcome.unsatisfiable
    assert verify_trace(ex42, trace)
    assert is_unsatisfiable_bruteforce(ex42)
    # scripted column/literal selections for the middle of the three worked
    # constructions: boundary x1, x2, x3, x4, x5, closed by the ~x3|~x5 clause
    c = {cl.id: cl for cl in ex42.clauses}
    state = start(c[1], pos("x1"))
    state = extend(state, c[2], pos("x2"))
    state = extend(state, c[3], pos("x3"))
    state = extend(state, c[4], pos("x4"))
    state = extend(state, c[5], pos("x5"))
    state = close(state, c[6])
    assert state.csc == ()
    assert set(state.d_minus(2)) == {pos("x3"), neg("x1"), neg("x2")}
    assert is_standard_contradiction(d_columns(state))
    assert time.monotonic() - started < 1.0


@_report(3, "eight-clause fixture: scripted rounds give x4 then empty; prove <= 10 rounds")
def test_criterion_03(ex43):
    c = {cl.id: cl for cl in ex43.clauses}
    state = start(c[8], pos("x7"))
    state = extend(state, c[1], neg("x3"))
    state = extend(state, c[6], pos("x6"))
    state = extend(state, c[7], neg("x1"))
    state = extend(state, c[4], neg("x5"))
    state = extend(state, c[2], pos("x2"))
    state = close(state, c[3])
    assert state.csc == (pos("x4"),)

    separated = Clause(9, state.csc)
    second = start(c[8], pos("x7"))
    second = extend(second, separated, pos("x4"))
    second = extend(second, c[5], neg("x1"))
    second = extend(second, c[4], neg("x5"))
    second = extend(second, c[3], neg("x2"))
    second = extend(second, c[2], pos("x3"))
    second = close(second, c[1])
    assert second.csc == ()

    outcome, trace = prove(ex43, EngineConfig(max_rounds=10))
    assert outcome.unsatisfiable
    assert len(trace.rounds) <= 10
    assert verify_trace(ex43, trace)


@_report(4, "first-order chain fixture: scripted sigmas give the recorded separation")
def test_criterion_04(ex51):
    _, _, c3, c4, _, c6, _ = ex51.clauses
    x31, x41, x61 = Variable("x31"), Variable("x41"), Variable("x61")
    state = start(c6, neg("P5", x61))
    state = extend(state, c3, pos("P4", x31), sigma=Substitution({"x61": x31}))
    state = close(state, c4, sigma=Substitution({"x41": x31}))
    assert set(state.csc) == {pos("P3", fn("f", x31)), neg("P3", x31)}
    assert state.column_sigma(0) == Substitution({"x61": x31})
    assert state.column_sigma(2) == Substitution({"x41": x31})
    # grounded inside parts pass the brute-force standard-contradiction check
    assert shadow_contradiction_check(d_columns(state))


@_report(5, "first-order merge fixture: one unscripted round, redundant clause unused, "
            "scripted sigmas reproduced")
def test_criterion_05(ex52):
    outcome, trace = prove(ex52, EngineConfig())
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1
    assert all(5 not in record.clause_ids_used for record in trace.rounds)
    assert verify_trace(ex52, trace)

    c1, c2, c3, c4, _, c6, c7 = ex52.clauses
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    x = {i: Variable(f"x{i}") for i in range(1, 12)}
    state = start(c1, pos("P1", a))
    state = pulled_extend(state, c2, neg("P2", a, b))
    state = pulled_extend(state, c3, pos("P3", a, fn("f", c), fn("f", b)))
    state = pulled_extend(state, c4, pos("P3", x[1], x[1], fn("f", x[1])))
    state = pulled_extend(state, c6, pos("P2", x[5], x[7]))
    state = pulled_close(state, c7)
    assert state.csc == ()
    assert state.column_sigma(0).is_empty()
    assert state.column_sigma(1).is_empty()
    assert state.column_sigma(2).is_empty()
    assert state.column_sigma(3) == Substitution({"x1": b})
    assert state.column_sigma(4) == Substitution(
        {"x5": a, "x6": fn("f", c), "x7": fn("f", b)})
    assert state.column_sigma(5) == Substitution(
        {"x8": a, "x9": b, "x10": b, "x11": fn("f", b)})


@_report(6, "seven-clause first-order fixture: scripted two-round and one-round runs")
def test_criterion_06(ex53):
    c1, c2, c3, c4, c5, c6, c7 = ex53.clauses
    a1, a3 = Constant("a1"), Constant("a3")

    first = start(c6, pos("P3", a1))
    first = pulled_extend(first, c7, pos("P2", a1, a3))
    first = pulled_extend(first, c5, pos("P1", a1, fn("f1", a1), fn("f1", a3)))
    first = pulled_extend(first, c4, pos("P1", Variable("x41"), Variable("x41"),
                                         fn("f1", Variable("x41"))))
    first = pulled_extend(first, c2, pos("P1", Variable("x22"), Variable("x21"),
                                         Variable("x23")))
    first = pulled_extend(first, c1, neg("P1", Variable("x11"), Variable("x12"),
                                         Variable("x13")))
    first = pulled_close(first, c3)
    assert set(first.csc) == {pos("P2", a1, fn("f1", a3))}
    assert shadow_contradiction_check(d_columns(first))

    separated = Clause(8, first.csc)
    second = start(separated, pos("P2", a1, fn("f1", a3)))
    second = pulled_extend(second, c1, neg("P1", Variable("x11"), Variable("x12"),
                                           Variable("x13")))
    second = pulled_close(second, c5)
    assert second.csc == ()
    assert shadow_contradiction_check(d_columns(second))

    direct = start(c6, pos("P3", a1))
    direct = pulled_extend(direct, c7, pos("P2", a1, a3))
    direct = pulled_extend(direct, c5, pos("P1", a1, fn("f1", a1), fn("f1", a3)))
    direct = pulled_extend(direct, c4, pos("P1", Variable("x41"), Variable("x41"),
                                           fn("f1", Variable("x41"))))
    direct = pulled_extend(direct, c1, neg("P2", Variable("x11"), Variable("x13")))
    direct = pulled_close(direct, c3)
    assert direct.csc == ()
    assert shadow_contradiction_check(d_columns(direct))


@_report(7, "six-clause fixture: scripted table separates ~x1 | ~x4, oracle-entailed")
def test_criterion_07(ex61):
    d1, d2, d3, d4, d5, d6 = ex61.clauses
    state = start(d6, pos("x5"))
    state = extend(state, d5, pos("x3"))
    state = extend(state, d4, pos("x4"))
    state = extend(state, d3, pos("x3"))
    state = extend(state, d2, pos("x2"))
    state = close(state, d1)
    assert set(state.csc) == {neg("x1"), neg("x4")}
    augmented = ClauseSet(list(ex61.clauses)
                          + [Clause(7, [pos("x1")]), Clause(8, [pos("x4")])])
    assert is_unsatisfiable_bruteforce(augmented)


@_report(8, "1000 random closed constructions: inside parts always a contradiction")
def test_criterion_08():
    rng = random.Random(8080)
    built = 0
    failures = 0
    while built < 1000:
        state, _ = random_closed_state(rng, force_stair=rng.random() < 0.3)
        if state is None:
            continue
        built += 1
        if not is_standard_contradiction(d_columns(state)):
            failures += 1
    assert built == 1000 and failures == 0


@_report(9, "500 mixed random instances: verdicts and models agree with the oracle, <60s")
def test_criterion_09():
    rng = random.Random(909)
    started = time.monotonic()
    disagreements = 0
    for _ in range(500):
        s = random_instance(rng)
        truth = is_unsatisfiable_bruteforce(s)
        outcome, _ = prove(s, EngineConfig(time_budget=20.0, max_rounds=20))
        if outcome.unsatisfiable and not truth:
            disagreements += 1
        if outcome.satisfiable:
            if truth or not verify_model(s, outcome.model):
                disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 60.0


@_report(10, "200 oracle-unsatisfiable instances: fallback closes every one, zero GaveUp")
def test_criterion_10():
    rng = random.Random(1010)
    refuted = 0
    gave_up = 0
    while refuted + gave_up < 200:
        s = random_instance(rng, min_vars=4, max_vars=8, min_clauses=4, max_clauses=14)
        if not is_unsatisfiable_bruteforce(s):
            continue
        outcome, _ = prove(s, EngineConfig(time_budget=30.0))
        if outcome.unsatisfiable:
            refuted += 1
        else:
            gave_up += 1
    assert gave_up == 0 and refuted == 200


@_report(11, "200 stair-bearing constructions: moving stairs leaves the separation intact")
def test_criterion_11():
    rng = random.Random(1111)
    built = 0
    violations = 0
    while built < 200:
        state, _ = random_closed_state(rng, force_stair=True)
        if state is None or not any(state.is_stair(i) for i in range(len(state.columns))):
            continue
        built += 1
        if normalize_stairs(state).csc != state.csc:
            violations += 1
    assert built == 200 and violations == 0


def _random_chain(rng, complementary):
    names = [f"v{i}" for i in range(10)]
    k = rng.randint(2, 6)
    pivots = [(pos if rng.random() < 0.5 else neg)(n) for n in rng.sample(names, k)]
    if complementary:
        target = rng.randrange(1, k)
        pivots[target] = pivots[rng.randrange(0, target)].complement()
    extras = [n for n in names if n not in {p.predicate for p in pivots}]

    def noise():
        return [(pos if rng.random() < 0.5 else neg)(name)
                for name in rng.sample(extras, rng.randint(0, 2))]

    top = Clause(1, [p.complement() for p in pivots] + noise())
    sides = [Clause(i + 2, [pivots[i]] + noise()) for i in range(k)]
    return LinearDeduction(top, tuple(sides), tuple(pivots))


@_report(12, "linear chains: 100 complement-free realized in one round, 50 split "
             "piecewise, all rounds verified")
def test_criterion_12():
    rng = random.Random(1212)
    single = 0
    while single < 100:
        ld = _random_chain(rng, complementary=False)
        try:
            expected = linear_resolvent(ld)
        except ConstructionError:
            continue
        rounds = linear_to_etc(ld)
        assert len(rounds) == 1
        assert set(rounds[0].csc.literals) == set(expected)
        s = ClauseSet([ld.top_clause, *ld.side_clauses])
        assert verify_trace(s, ProofTrace(tuple(rounds), "unknown"))
        single += 1
    split = 0
    while split < 50:
        ld = _random_chain(rng, complementary=True)
        try:
            expected = linear_resolvent(ld)
        except ConstructionError:
            continue
        rounds = linear_to_etc(ld)
        assert set(rounds[-1].csc.literals) == set(expected)
        s = ClauseSet([ld.top_clause, *ld.side_clauses])
        assert verify_trace(s, ProofTrace(tuple(rounds), "unknown"))
        split += 1


@_report(13, "500 random clause lists: tuple enumeration matches the truth table "
             "in both directions")
def test_criterion_13():
    rng = random.Random(1313)
    contradictions = 0
    non_contradictions = 0
    disagreements = 0
    for _ in range(500):
        cs = random_clause_list(rng)
        tuple_side = is_standard_contradiction(cs)
        table_side = is_unsatisfiable_bruteforce(
            ClauseSet([Clause(i + 1, c.literals) for i, c in enumerate(cs)]))
        if tuple_side != table_side:
            disagreements += 1
        if tuple_side:
            contradictions += 1
        else:
            non_contradictions += 1
    assert disagreements == 0
    assert contradictions > 50 and non_contradictions > 50  # both directions exercised
