import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    EngineConfig,
    LinearDeduction,
    ProofTrace,
    RoundRecord,
    Substitution,
    Variable,
    VerificationResult,
    clause_set,
    close,
    extend,
    is_unsatisfiable_bruteforce,
    linear_resolvent,
    linear_to_etc,
    neg,
    parse_dimacs,
    pos,
    prove,
    render_dimacs,
    render_tptp,
    start,
    verify_model,
    verify_trace,
)
from trisep import engine, logic
from trisep.cli import main as cli_main
from trisep.errors import ConstructionError
from trisep.render import RawState, parse_trace_document, render_trace
from conftest import fn, random_first_order_set, random_instance, three_sat

FAST = EngineConfig(time_budget=30.0)


# -- prove: worked propositional sets -----------------------------------------------


def test_prove_four_clause_set_single_round(ex41):
    outcome, trace = prove(ex41, FAST)
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1
    assert trace.rounds[0].csc.literals == ()
    assert verify_trace(ex41, trace)


def test_prove_ten_clause_set(ex42):
    outcome, trace = prove(ex42, FAST)
    assert outcome.unsatisfiable
    assert is_unsatisfiable_bruteforce(ex42)
    assert verify_trace(ex42, trace)


def test_prove_eight_clause_set_within_ten_rounds(ex43):
    outcome, trace = prove(ex43, EngineConfig(max_rounds=10, time_budget=30.0))
    assert outcome.unsatisfiable
    assert len(trace.rounds) <= 10
    assert verify_trace(ex43, trace)


def test_prove_unit_pair():
    s = clause_set([[pos("p")], [neg("p")]])
    outcome, trace = prove(s, FAST)
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1
    assert len(trace.rounds[0].state.columns) == 2


def test_prove_satisfiable_two_clause_set():
    s = clause_set([[pos("p1")], [neg("p1"), pos("p4")]])
    outcome, trace = prove(s, FAST)
    assert outcome.satisfiable
    assert outcome.model == {"p1": True, "p4": True}
    assert verify_model(s, outcome.model)
    assert verify_trace(s, trace)


def test_prove_empty_input_is_satisfiable():
    # no clause constrains any atom, so the empty model satisfies the set
    s = ClauseSet([])
    outcome, trace = prove(s, FAST)
    assert outcome.satisfiable
    assert outcome.model == {}
    assert trace.rounds == ()
    assert verify_trace(s, trace)


def test_prove_short_circuits_on_empty_input_clause():
    s = ClauseSet([Clause(1, [pos("p")]), Clause(2, [])])
    outcome, trace = prove(s, FAST)
    assert outcome.unsatisfiable
    assert trace.rounds == ()
    assert verify_trace(s, trace)


def test_prove_all_tautologies_is_satisfiable():
    s = clause_set([[pos("p"), neg("p")], [pos("q"), pos("r"), neg("q")]])
    outcome, trace = prove(s, FAST)
    assert outcome.satisfiable and trace.rounds == ()
    assert outcome.model == {"p": False, "q": False, "r": False}
    assert verify_model(s, outcome.model)


def test_prove_first_order_input_that_preprocessing_reduces_to_0_ary_atoms():
    x = Variable("X")
    tautology = Clause(1, [pos("P", x), neg("P", x)])
    outcome, _ = prove(ClauseSet([tautology]), FAST)
    assert outcome.reason == "all clauses deleted in preprocessing"
    # first-order input never ends satisfiable, even when only 0-ary atoms survive
    s = ClauseSet([tautology, Clause(2, [pos("p")])])
    outcome, trace = prove(s, FAST)
    assert not outcome.satisfiable and verify_trace(s, trace)


@pytest.mark.parametrize("budget", [float("nan"), -1.0, float("-inf")])
def test_engine_config_rejects_a_time_budget_that_is_not_a_number_of_seconds(budget):
    # a NaN budget used to end both loops at once with a false "fallback disabled" reason
    with pytest.raises(ValueError, match="time_budget"):
        EngineConfig(time_budget=budget)
    assert EngineConfig(time_budget=0.0).time_budget == 0.0


def test_engine_config_rejects_a_negative_max_rounds(tmp_path, capsys):
    # -1 used to act as 0
    with pytest.raises(ValueError, match="max_rounds"):
        EngineConfig(max_rounds=-1)
    assert EngineConfig(max_rounds=0).max_rounds == 0
    problem = tmp_path / "p.cnf"
    problem.write_text("p cnf 1 1\n1 0\n")
    assert cli_main(["prove", str(problem), "--max-rounds", "-1", "--quiet"]) == 2
    assert "max_rounds" in capsys.readouterr().err


def test_prove_single_unit_satisfiable_via_fallback():
    outcome, _ = prove(clause_set([[pos("p")]]), FAST)
    assert outcome.satisfiable and outcome.model == {"p": True}


def test_a_fallback_model_that_fails_verification_ends_in_unknown(monkeypatch):
    # p | q, ~p holds only with q true; a trail model that makes every atom
    # false must not become a Satisfiable verdict
    monkeypatch.setattr(engine, "_trail_model", lambda names, value: dict.fromkeys(names, False))
    s = clause_set([[pos("p"), pos("q")], [neg("p")]])
    outcome, trace = prove(s, EngineConfig(max_rounds=0, time_budget=30.0))
    assert outcome.verdict == "unknown" and outcome.model is None
    assert outcome.reason == "the saturation model failed verification"
    assert trace.reason == outcome.reason
    assert verify_trace(s, trace)


def test_prove_fallback_disabled_gives_up():
    s = clause_set([[pos("p", Constant("a"))]])
    outcome, trace = prove(s, EngineConfig(fallback_enabled=False, time_budget=5.0))
    assert outcome.verdict == "unknown"
    assert trace.reason


def test_a_zero_time_budget_gives_up_with_a_trace_that_verifies(ex43):
    outcome, trace = prove(ex43, EngineConfig(time_budget=0.0))
    assert outcome.verdict == "unknown" and outcome.reason == "time budget exhausted"
    assert verify_trace(ex43, trace)
    assert parse_trace_document(render_trace(trace)).reason == "time budget exhausted"


class _SlowClock:
    """Stands in for the time module on a machine far slower than any real
    one: every reading of the clock advances it by a millisecond."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 0.001
        return self.now


@pytest.mark.parametrize("name", ["ex43", "ex53"])
def test_a_slow_clock_leaves_the_trace_of_a_finished_run_unchanged(monkeypatch, request, name):
    # the clock decides only whether a run gives up: a run that ends inside
    # its budget, with a third of it to spare, has the trace of the real clock
    problem = request.getfixturevalue(name)
    _, expected = prove(problem, FAST)
    clock = _SlowClock()
    monkeypatch.setattr(engine, "time", clock)
    prove(problem, EngineConfig(time_budget=1e9))
    budget, clock.now = 1.5 * clock.now, 0.0
    _, trace = prove(problem, EngineConfig(time_budget=budget))
    assert render_trace(trace) == render_trace(expected)
    assert clock.now < budget


@pytest.mark.parametrize("name", ["ex43", "ex51"])
def test_the_budget_running_out_during_the_fallback_ends_it(monkeypatch, request, name):
    problem = request.getfixturevalue(name)
    clock = _SlowClock()
    monkeypatch.setattr(engine, "time", clock)
    saturate = engine._saturate

    def late(*args):
        clock.now += 60.0  # the budget runs out as the fallback starts
        return saturate(*args)

    monkeypatch.setattr(engine, "_saturate", late)
    outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=30.0))
    assert outcome.reason == "time budget exhausted during saturation"
    assert verify_trace(problem, trace)


def test_the_propositional_fallback_polls_the_deadline_at_each_conflict(monkeypatch):
    # prove reads the clock twice before the fallback starts, and the fallback
    # once per conflict, before it learns a clause: with a 4.5 ms budget on a
    # clock that advances 1 ms per reading, the fourth of the five conflicts
    # that refute the set ends the run
    problem = three_sat(random.Random(5), 8, 40)
    config = EngineConfig(max_rounds=0, time_budget=30.0)
    assert prove(problem, config)[0].unsatisfiable
    clock = _SlowClock()
    monkeypatch.setattr(engine, "time", clock)
    outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=0.0045))
    assert outcome.reason == "time budget exhausted during saturation"
    assert trace.rounds == () and verify_trace(problem, trace)
    assert round(clock.now * 1000) == 6


@pytest.mark.parametrize("name", ["ex43", "ex51"])
def test_the_saturation_clause_cap_ends_the_fallback(monkeypatch, request, name):
    problem = request.getfixturevalue(name)
    monkeypatch.setattr(engine, "_SATURATION_CLAUSE_CAP", 0)
    outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=30.0))
    assert outcome.verdict == "unknown"
    assert outcome.reason == "saturation clause cap exceeded"
    assert verify_trace(problem, trace)


def test_the_first_order_fallback_skips_subsumed_clauses(monkeypatch):
    # q(a) | r(b) waits on the heap behind the unit r(b), which subsumes it
    # once processed; q(a), resolved from p(a) and ~p(X) | q(X), subsumes the
    # resolvent q(a) | r(a) of p(a) and ~p(Y) | q(Y) | r(Y)
    a, b, x, y, z = Constant("a"), Constant("b"), Variable("X"), Variable("Y"), Variable("Z")
    problem = clause_set([
        [pos("p", a)], [neg("p", x), pos("q", x)], [pos("q", a), pos("r", b)],
        [neg("p", y), pos("q", y), pos("r", y)], [neg("r", z), pos("s", z), pos("t", z)],
        [pos("r", b)], [neg("s", b), neg("q", a)], [neg("t", b)]])
    subsumed = []
    subsumes = engine._ClauseStore.subsumes

    def recording(store, literal_set):
        found = subsumes(store, literal_set)
        if found:
            subsumed.append(literal_set)
        return found

    monkeypatch.setattr(engine._ClauseStore, "subsumes", recording)
    outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=30.0))
    assert outcome.unsatisfiable
    assert {pos("q", a), pos("r", b)} in subsumed
    assert {pos("q", a), pos("r", a)} in subsumed
    assert verify_trace(problem, trace)
    assert verify_trace(problem, parse_trace_document(render_trace(trace)))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_first_order_fallback_refutation_records_exactly_the_rounds_it_returns(monkeypatch, n):
    # p(a), ~p(X) | p(f(X)), ~p(f^n(a)) under the fallback alone: its rounds
    # are held unrecorded until the proof chain is known, so every RoundRecord
    # built is one the trace holds, n + 1 of them
    x, target = Variable("X"), Constant("a")
    for _ in range(n):
        target = fn("f", target)
    problem = clause_set([[pos("p", Constant("a"))], [neg("p", x), pos("p", fn("f", x))],
                          [neg("p", target)]])
    built = []
    record = engine.RoundRecord

    def counting(*args):
        built.append(record(*args))
        return built[-1]

    monkeypatch.setattr(engine, "RoundRecord", counting)
    outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=30.0))
    assert outcome.unsatisfiable
    assert len(built) == len(trace.rounds) == n + 1
    assert verify_trace(problem, trace)


@pytest.mark.parametrize("steps, config", [
    ([("p", "p")], EngineConfig(time_budget=30.0)),
    ([("p", "p")], EngineConfig(max_rounds=0, time_budget=30.0)),
    # rounds alone: the first round past the bound stalls the main loop
    ([("q", "p"), ("p", "q")], EngineConfig(fallback_enabled=False, time_budget=30.0)),
])
def test_the_term_depth_bound_ends_an_infinite_chain(monkeypatch, steps, config):
    # p(a), p(f(a)), p(f(f(a))), ... never end; the engine admits no term
    # deeper than the bound, here patched small to reach it fast
    monkeypatch.setattr(logic, "MAX_TERM_DEPTH", 6)
    x = Variable("X")
    s = clause_set([[pos("p", Constant("a"))]]
                   + [[neg(a, x), pos(b, fn("f", x))] for a, b in steps])
    outcome, trace = prove(s, config)
    assert outcome.verdict == "unknown"
    assert outcome.reason == "term depth bound reached"
    assert verify_trace(s, trace)
    parsed = parse_trace_document(render_trace(trace))
    assert parsed.reason == "term depth bound reached"
    assert verify_trace(s, parsed)


def test_prove_sat_mode_finds_model():
    s = clause_set([[pos("a"), pos("b")], [neg("a"), pos("c")], [pos("d")]])
    outcome, _ = prove(s, EngineConfig(time_budget=30.0))
    assert outcome.satisfiable
    assert verify_model(s, outcome.model)


# -- prove: worked first-order sets ---------------------------------------------------


def test_prove_first_order_chain(ex51):
    outcome, trace = prove(ex51, FAST)
    assert outcome.unsatisfiable
    assert verify_trace(ex51, trace)


def test_prove_first_order_merge_case_single_round(ex52):
    outcome, trace = prove(ex52, FAST)
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1
    assert all(5 not in record.clause_ids_used for record in trace.rounds)
    assert verify_trace(ex52, trace)


def test_prove_first_order_seven_clause_set(ex53):
    outcome, trace = prove(ex53, FAST)
    assert outcome.unsatisfiable
    assert verify_trace(ex53, trace)


def test_prove_first_order_never_satisfiable():
    x = Variable("x")
    s = ClauseSet([Clause(1, [pos("P", x)]), Clause(2, [pos("Q", Variable("y"))])])
    outcome, _ = prove(s, EngineConfig(time_budget=5.0))
    assert outcome.verdict == "unknown"


def test_a_clause_without_a_unifiable_boundary_complement_tries_no_close(monkeypatch):
    # neither q(y) nor ~p(b) unifies with ~p(f(x)), the one boundary
    # complement, so no instance of the clause can close the state
    calls = []
    real = engine.greedy_pull
    monkeypatch.setattr(engine, "greedy_pull", lambda *args: calls.append(args) or real(*args))
    x, y = Variable("x"), Variable("y")
    opened = start(Clause(1, [pos("p", fn("f", x))]), pos("p", fn("f", x)))
    stranger = Clause(2, [pos("q", y), neg("p", Constant("b"))])
    assert list(engine._closings(opened, stranger)) == []
    assert calls == []
    partner = Clause(3, [neg("p", y)])
    assert list(engine._closings(opened, partner)) and calls


@pytest.mark.parametrize("reverse", [False, True])
def test_a_build_closes_each_state_with_each_clause_once(monkeypatch, reverse):
    # over a whole run, each (state, clause) pair that some build reaches or
    # looks ahead to is scored at most once: the look-ahead's least closings
    # serve the winner, and a later build that takes the same steps walks the
    # same states, whose least closings are cached; states with equal columns
    # and substitution count as one. close runs only for the best closure
    # that build reads, once per read (the fallback, which closes one-column
    # states of its own, is off)
    scored, closed, read = Counter(), [], []
    real_unifiers, real_close = engine._unifiers, engine.close
    real_best = engine._RoundBuilder._best_closure

    def unifiers(state, placed, *rest):
        scored[state.columns, state.sigma, placed.id] += 1
        return real_unifiers(state, placed, *rest)

    def closing(*args):
        closed.append(real_close(*args))
        return closed[-1]

    def best_closure(self, state):
        read.append(real_best(self, state))
        return read[-1]

    monkeypatch.setattr(engine, "_unifiers", unifiers)
    monkeypatch.setattr(engine, "close", closing)
    monkeypatch.setattr(engine._RoundBuilder, "_best_closure", best_closure)
    outcome, trace = prove(_chain(8, reverse), EngineConfig(fallback_enabled=False))
    assert len(trace.rounds) > 1
    assert scored and max(scored.values()) == 1
    assert closed and [id(s) for s in closed] == [id(s) for s in read if s is not None]


def _random_first_order_set(rng):
    """Three to six clauses of one to three literals over p/1 and q/2, with
    terms over X, Y, Z, a, b and f of depth at most 2."""

    def term(depth=0):
        draw = rng.random()
        if depth < 2 and draw < 0.3:
            return fn("f", term(depth + 1))
        return Variable(rng.choice("XYZ")) if draw < 0.65 else Constant(rng.choice("ab"))

    bodies = []
    for _ in range(rng.randint(3, 6)):
        body = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.choice((1, 2))
            lit = (pos if rng.random() < 0.5 else neg)("pq"[arity - 1], *(term() for _ in range(arity)))
            if lit not in body:
                body.append(lit)
        bodies.append(body)
    return clause_set(bodies)


def test_each_build_of_a_run_equals_a_fresh_builders_build(monkeypatch):
    # the run's builder reuses the placements and closings of its earlier
    # builds; a fresh builder over the same working set computes them anew,
    # and both must build the same state; among the sets, a later separated
    # clause makes redundancy_guard reject a cached placement, which is then
    # placed again
    real_build, real_placement = engine._RoundBuilder.build, engine._RoundBuilder._placement
    builds, placed_again = Counter(), Counter()

    def placement(self, state, clause, idx):
        placed_again[(state, clause.id, idx) in self._placements] += 1
        return real_placement(self, state, clause, idx)

    def checked(self):
        built = real_build(self)
        fresh = engine._RoundBuilder(ClauseSet(list(self.working)), problem, float("inf"))
        fresh.max_columns = self.max_columns
        again = real_build(fresh)
        assert (built is None) == (again is None)
        if built is not None:
            assert (built.columns, built.sigma, built.parts) == (again.columns, again.sigma,
                                                                  again.parts)
        builds[self] += 1
        return built

    monkeypatch.setattr(engine._RoundBuilder, "_placement", placement)
    monkeypatch.setattr(engine._RoundBuilder, "build", checked)
    rng = random.Random(27)
    problems = [_chain(5, False), _chain(5, True), _pair_chain(3)]
    problems += [_random_first_order_set(rng) for _ in range(40)]
    # no deadline, so that the run's builds and the fresh ones see the same clock
    config = EngineConfig(max_rounds=4, fallback_enabled=False, time_budget=float("inf"))
    for problem in problems:
        if not problem.is_propositional:
            prove(problem, config)
    assert max(builds.values()) > 1 and placed_again[True] > 0


# -- verify_trace ----------------------------------------------------------------------


def test_verify_rejects_unknown_clause_citation(ex41):
    _, trace = prove(ex41, FAST)
    state = trace.rounds[0].state
    from trisep.triangle import Column, Triangle
    bad_columns = (Column(99, state.columns[0].source_literals,
                          state.columns[0].boundary_source),) + state.columns[1:]
    bad_state = Triangle(bad_columns, state.sigma)
    bad = ProofTrace((RoundRecord(bad_state, trace.rounds[0].csc),), "unsatisfiable")
    result = verify_trace(ex41, bad)
    assert not result and "unknown clause" in result.diagnostic


def test_verify_rejects_deleted_inside_literal(ex41):
    _, trace = prove(ex41, FAST)
    state = trace.rounds[0].state
    columns = state.columns
    parts_minus = [state.d_minus(i) for i in range(len(columns))]
    parts_plus = [state.d_plus(i) for i in range(len(columns))]
    victim = max(range(len(columns)), key=lambda i: len(parts_minus[i]))
    parts_minus[victim] = parts_minus[victim][1:]
    sigmas = [state.column_sigma(i) for i in range(len(columns))]
    raw = RawState(columns, sigmas, parts_minus, parts_plus)
    bad = ProofTrace((RoundRecord(raw, trace.rounds[0].csc),), "unsatisfiable")
    result = verify_trace(ex41, bad)
    assert not result


def test_verify_rejects_forward_citation(ex41):
    outcome, trace = prove(ex41, FAST)
    # cite the round's own separated clause inside the round
    state = trace.rounds[0].state
    from trisep.triangle import Column, Triangle
    csc_id = trace.rounds[0].csc.id
    bad_columns = (Column(csc_id, state.columns[0].source_literals,
                          state.columns[0].boundary_source),) + state.columns[1:]
    bad_state = Triangle(bad_columns, state.sigma)
    bad = ProofTrace((RoundRecord(bad_state, trace.rounds[0].csc),), "unsatisfiable")
    assert not verify_trace(ex41, bad)


def test_verify_rejects_wrong_csc(ex41):
    _, trace = prove(ex41, FAST)
    wrong = Clause(trace.rounds[0].csc.id, [pos("zz")])
    bad = ProofTrace((RoundRecord(trace.rounds[0].state, wrong),), "unsatisfiable")
    result = verify_trace(ex41, bad)
    assert not result and "separated clause" in result.diagnostic


def test_verify_rejects_verdict_mismatch(ex41):
    s = clause_set([[pos("p1")], [neg("p1"), pos("p4")]])
    c1, c2 = s.clauses
    state = close(start(c1, pos("p1")), c2)
    record = RoundRecord(state, Clause(3, state.csc))
    claimed = ProofTrace((record,), "unsatisfiable")
    result = verify_trace(s, claimed)
    assert not result and "nonempty" in result.diagnostic


def test_verify_rejects_model_free_sat_claim():
    s = clause_set([[pos("p")]])
    assert not verify_trace(s, ProofTrace((), "satisfiable"))
    assert not verify_trace(s, ProofTrace((), "satisfiable", model={"p": False}))
    assert verify_trace(s, ProofTrace((), "satisfiable", model={"p": True}))


def test_verify_accepts_unknown_traces(ex41):
    assert verify_trace(ex41, ProofTrace((), "unknown", reason="gave up"))


def test_verify_rejects_a_verdict_outside_the_three():
    # used to verify, as no branch of the verdict check matched it
    result = verify_trace(clause_set([[pos("p")]]), ProofTrace((), "maybe"))
    assert result == VerificationResult(False, "unknown verdict 'maybe'")


@pytest.mark.parametrize("verdict", ["unknown", "unsatisfiable"])
def test_verify_rejects_a_model_on_a_verdict_other_than_satisfiable(verdict):
    # an unknown trace with a model used to verify, and rendered a MODEL record
    s = clause_set([[pos("p")], [neg("p")]])
    _, trace = prove(s, FAST)
    assert trace.verdict == "unsatisfiable"
    with_model = ProofTrace(trace.rounds if verdict == "unsatisfiable" else (), verdict,
                            model={"p": False})
    assert verify_trace(s, with_model) == VerificationResult(
        False, f"a model with verdict {verdict}")


# -- soundness and completeness over random instances ------------------------------------


def _random_instance(rng, max_vars=8, max_clauses=12):
    names = [f"v{i}" for i in range(rng.randint(3, max_vars))]
    n_clauses = rng.randint(3, max_clauses)
    lists = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        body = []
        for name in rng.sample(names, min(width, len(names))):
            body.append((pos if rng.random() < 0.5 else neg)(name))
        lists.append(body)
    return clause_set(lists)


def test_random_instances_agree_with_oracle():
    rng = random.Random(2024)
    checked_traces = 0
    for _ in range(120):
        s = _random_instance(rng)
        truth = is_unsatisfiable_bruteforce(s)
        outcome, trace = prove(s, EngineConfig(time_budget=20.0, max_rounds=20))
        if outcome.unsatisfiable:
            assert truth
        elif outcome.satisfiable:
            assert not truth
            assert verify_model(s, outcome.model)
        if checked_traces < 30:
            assert verify_trace(s, trace)
            checked_traces += 1


def test_the_fallback_alone_and_the_default_run_agree_with_the_truth_table():
    """600 seeded random sets of 3-8 atoms and 3-14 clauses of width 1-3, each
    proved with max_rounds=0 and with the default config, both of which hand
    propositional input straight to conflict-driven learning. Every verdict
    is the truth table's, every model, read off a full trail, satisfies its
    set and every trace verifies."""
    rng = random.Random(2026)
    configs = (EngineConfig(max_rounds=0), EngineConfig())
    for _ in range(600):
        s = random_instance(rng, min_vars=3, max_vars=8, min_clauses=3, max_clauses=14)
        expected = "unsatisfiable" if is_unsatisfiable_bruteforce(s) else "satisfiable"
        for config in configs:
            outcome, trace = prove(s, config)
            assert outcome.verdict == expected
            assert not outcome.satisfiable or verify_model(s, outcome.model)
            assert verify_trace(s, trace)


def test_oracle_unsat_instances_all_refuted():
    rng = random.Random(77)
    refuted = 0
    attempts = 0
    while refuted < 40 and attempts < 4000:
        attempts += 1
        s = _random_instance(rng, max_vars=6, max_clauses=10)
        if not is_unsatisfiable_bruteforce(s):
            continue
        outcome, _ = prove(s, EngineConfig(time_budget=20.0))
        assert outcome.unsatisfiable
        refuted += 1
    assert refuted == 40


def _chain(k, reverse=False):
    """P(a), ~P(X) | P(f(X)), ~P(f^k(a)), in that clause order or reversed."""
    goal = Constant("a")
    for _ in range(k):
        goal = fn("f", goal)
    x = Variable("X")
    bodies = [[pos("P", Constant("a"))], [neg("P", x), pos("P", fn("f", x))], [neg("P", goal)]]
    return clause_set(bodies[::-1] if reverse else bodies)


def _pair_chain(k):
    """P(a, b), ~P(X, Y) | P(f(X), g(Y)), ~P(f^k(a), g^k(b)), and the
    distractor ~P(Z, W) | ~P(W, Z), which unifies with a boundary complement
    at either literal, so its closings have several seeds, some equal."""
    goal = (Constant("a"), Constant("b"))
    for _ in range(k):
        goal = (fn("f", goal[0]), fn("g", goal[1]))
    x, y, z, w = (Variable(name) for name in "XYZW")
    return clause_set([[pos("P", Constant("a"), Constant("b"))],
                       [neg("P", x, y), pos("P", fn("f", x), fn("g", y))],
                       [neg("P", *goal)], [neg("P", z, w), neg("P", w, z)]])


# sha256 of the rendered traces below; any change to round construction,
# candidate ranking or the saturation fallback shows up here
GOLDEN_TRACE_DIGEST = "0220c726f46069b935552c848b08b9f64adaf8be50d06c6d16d0022cde57fdd0"


def _golden_runs(ex51, ex52, ex53):
    """The golden problems, each with its engine config."""
    rng = random.Random(4711)
    runs = [(random_instance(rng, max_vars=7, max_clauses=10),
             EngineConfig(time_budget=30.0))
            for _ in range(30)]
    runs += [(s, FAST) for s in (ex51, ex52, ex53)]
    runs += [(_chain(k, reverse), FAST) for k in range(3, 7) for reverse in (False, True)]
    runs += [(_pair_chain(k), FAST) for k in (3, 4)]
    fallback_only = EngineConfig(max_rounds=0, time_budget=30.0)
    runs.append((three_sat(random.Random(5), 8, 40), fallback_only))
    three_sat_rng = random.Random(6)
    runs += [(three_sat(three_sat_rng, 10, 43), fallback_only) for _ in range(8)]
    runs += [(_chain(k, reverse), fallback_only) for k in range(3, 7) for reverse in (False, True)]
    runs += [(s, fallback_only) for s in (ex51, ex52, ex53)]
    runs += [(_pair_chain(k), fallback_only) for k in (3, 4)]
    runs += [(random_instance(rng, max_vars=7, max_clauses=10), EngineConfig(time_budget=30.0))
             for _ in range(30)]
    return runs


def _golden_digest(ex51, ex52, ex53):
    digest = hashlib.sha256()
    for s, config in _golden_runs(ex51, ex52, ex53):
        _, trace = prove(s, config)
        digest.update(render_trace(trace).encode("utf-8"))
    return digest.hexdigest()


def test_golden_traces_are_unchanged(ex51, ex52, ex53):
    assert _golden_digest(ex51, ex52, ex53) == GOLDEN_TRACE_DIGEST


# sha256 of the verdict of each of the 200 random first-order sets below, in
# order, and of the rendered trace of each refutation
RANDOM_FIRST_ORDER_DIGEST = "7cbaf7f2ce827757af1d87dcdc3f6efa304cf1b1be0bc53970f412ea8e88ea0e"


def test_random_first_order_corpus_keeps_its_verdicts_and_traces():
    """The main loop alone on the random first-order corpus: every
    refutation verifies after a render/parse round trip, no set is answered
    satisfiable, and the verdicts and refutation traces are pinned."""
    rng = random.Random(2026)
    digest = hashlib.sha256()
    refuted = 0
    for _ in range(200):
        s = random_first_order_set(rng)
        outcome, trace = prove(s, EngineConfig(fallback_enabled=False))
        assert not outcome.satisfiable
        digest.update(f"{outcome.verdict}\n".encode("utf-8"))
        if outcome.unsatisfiable:
            refuted += 1
            document = render_trace(trace)
            assert verify_trace(s, parse_trace_document(document))
            digest.update(document.encode("utf-8"))
    assert refuted
    assert digest.hexdigest() == RANDOM_FIRST_ORDER_DIGEST


def test_check_accepts_every_document_that_prove_writes_on_the_golden_problems(
        ex51, ex52, ex53, tmp_path, capsys):
    for number, (s, config) in enumerate(_golden_runs(ex51, ex52, ex53)):
        problem, trace_path = tmp_path / f"{number}.in", tmp_path / f"{number}.trace"
        problem.write_text(render_dimacs(s) if s.is_propositional else render_tptp(s))
        cli_main(["prove", str(problem), "--quiet", "--trace", str(trace_path),
                  "--max-rounds", str(config.max_rounds), "--timeout", str(config.time_budget)])
        assert "SZS status Error" not in capsys.readouterr().out
        assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
        assert "verified" in capsys.readouterr().out


def test_checking_a_parsed_trace_runs_no_prover_code(ex51, ex52, ex53):
    # the de Bruijn criterion: the checker must not trust the code whose
    # output it certifies, so no call made while parsing and verifying a
    # document may land in a module that builds rounds
    documents = [(s, render_trace(prove(s, config)[1]))
                 for s, config in _golden_runs(ex51, ex52, ex53)]
    assert any(not s.is_propositional and ":=" in text and "VERDICT\tunsatisfiable" in text
               for s, text in documents)  # a first-order refutation that binds a variable
    prover = {"trisep.engine", "trisep.triangle", "trisep.fol", "trisep.unify"}
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") in prover:
            entered[frame.f_globals["__name__"], frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        results = [verify_trace(s, parse_trace_document(text)) for s, text in documents]
    finally:
        sys.setprofile(previous)
    assert all(results)
    assert not entered


def test_traces_do_not_depend_on_hashing(monkeypatch, request):
    """The golden traces, which include fallback-only 3-SAT runs, stay the
    same when every term's hash is salted and under two string-hash seeds:
    no trace depends on the order in which a set or dict keyed by terms or
    literals is iterated."""

    def salted(value):
        return hash(("salt", value))

    # logic reads hash as a module global: every term built from here on,
    # the golden problems included, gets a salted hash
    monkeypatch.setattr(logic, "hash", salted, raising=False)
    assert hash(Constant("a")) == salted(("a",)) != hash(("a",))
    problems = [request.getfixturevalue(name) for name in ("ex51", "ex52", "ex53")]
    assert _golden_digest(*problems) == GOLDEN_TRACE_DIGEST
    src = str(Path(engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for seed in ("0", "1"):  # the golden test needs no hypothesis, whose plugin loads slowly
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", f"{__file__}::test_golden_traces_are_unchanged"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            cwd=Path(__file__).parents[1], capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"PYTHONHASHSEED={seed}:\n{run.stdout}{run.stderr}"


@pytest.mark.parametrize("reverse", [False, True])
def test_the_first_stalled_round_hands_the_run_to_the_fallback(monkeypatch, reverse):
    # three kept rounds, then a build whose separated clause stalls: the
    # fallback continues from the admitted clauses and the three rounds, and
    # refutes in 6 rounds
    calls = Counter()
    last_args = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            last_args[name] = args
            return fn(*args)
        return wrapper

    for owner, name in ((engine._RoundBuilder, "build"), (engine, "_saturate")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    problem = _chain(8, reverse)
    outcome, trace = prove(problem, FAST)
    assert calls == {"build": 4, "_saturate": 1}
    *_, existing_rounds = last_args["_saturate"]
    assert len(existing_rounds) == 3
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 6
    assert verify_trace(problem, trace)


def test_propositional_input_builds_no_round_builder(monkeypatch, ex43, ex51):
    # propositional input goes from preprocessing straight to the fallback,
    # whatever max_rounds is; first-order input builds a round builder only
    # when its main loop runs
    built = []
    init = engine._RoundBuilder.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(engine._RoundBuilder, "__init__", spy)
    rng = random.Random(11)
    problems = [ex43] + [random_instance(rng) for _ in range(20)]
    for config in (EngineConfig(), EngineConfig(max_rounds=0)):
        for problem in problems:
            outcome, trace = prove(problem, config)
            assert outcome.verdict in ("satisfiable", "unsatisfiable")
            assert verify_trace(problem, trace)
    assert built == []
    assert prove(ex51, EngineConfig(max_rounds=0))[0].unsatisfiable
    assert built == []
    assert prove(ex51, EngineConfig())[0].unsatisfiable
    assert len(built) == 1


def test_the_wide_chain_is_refuted_in_one_round_by_default():
    # x1, ~x1 | x2, ..., ~x1199 | x1200, ~x1200: one conflict at level 0,
    # whose derivation resolves every reason once, gives one round of 1 201
    # columns
    n = 1200
    lines = [f"p cnf {n} {n + 1}", "1 0"]
    lines += [f"-{k} {k + 1} 0" for k in range(1, n)] + [f"-{n} 0"]
    problem = parse_dimacs("\n".join(lines) + "\n")
    outcome, trace = prove(problem, EngineConfig())
    assert outcome.unsatisfiable
    assert len(trace.rounds) == 1 and len(trace.rounds[0].state.columns) == n + 1
    assert trace.rounds[0].csc.is_empty()
    assert verify_trace(problem, trace)
    assert verify_trace(problem, parse_trace_document(render_trace(trace)))


# -- linear deduction bridge ---------------------------------------------------------


def test_linear_bridge_three_step_chain():
    top = Clause(1, [neg("q")])
    s1 = Clause(2, [neg("p"), pos("q")])
    s2 = Clause(3, [pos("p")])
    ld = LinearDeduction(top, (s1, s2), (pos("q"), pos("p")))
    rounds = linear_to_etc(ld)
    assert len(rounds) == 1
    assert rounds[0].csc.literals == ()
    assert linear_resolvent(ld) == ()
    s = ClauseSet([top, s1, s2])
    assert verify_trace(s, ProofTrace(tuple(rounds), "unsatisfiable"))


def test_linear_bridge_single_step_is_a_two_column_round():
    top = Clause(1, [neg("p"), pos("r")])
    side = Clause(2, [pos("p"), pos("q")])
    ld = LinearDeduction(top, (side,), (pos("p"),))
    rounds = linear_to_etc(ld)
    assert len(rounds) == 1
    assert len(rounds[0].state.columns) == 2
    assert set(rounds[0].csc.literals) == {pos("q"), pos("r")}


def test_linear_bridge_complementary_pivots_split():
    top = Clause(1, [neg("a"), neg("p")])
    s1 = Clause(2, [pos("a"), pos("p")])
    s2 = Clause(3, [pos("p"), pos("m")])
    s3 = Clause(4, [neg("p"), pos("w")])
    ld = LinearDeduction(top, (s1, s2, s3), (pos("a"), pos("p"), neg("p")))
    rounds = linear_to_etc(ld)
    assert len(rounds) >= 2
    assert set(rounds[-1].csc.literals) == set(linear_resolvent(ld))
    s = ClauseSet([top, s1, s2, s3])
    assert verify_trace(s, ProofTrace(tuple(rounds), "unknown"))


def test_linear_bridge_rejects_malformed_chains():
    top = Clause(1, [pos("r")])
    side = Clause(2, [pos("p")])
    with pytest.raises(ConstructionError):
        linear_to_etc(LinearDeduction(top, (side,), (pos("p"),)))
    with pytest.raises(ConstructionError):
        linear_to_etc(LinearDeduction(Clause(1, [neg("p")]), (side,), (pos("q"),)))


def test_linear_bridge_first_order_unifiers():
    x = Variable("x")
    a = fn("f", Variable("y"))
    top = Clause(1, [neg("P", x), pos("R", x)])
    side = Clause(2, [pos("P", fn("f", Variable("y"))), pos("Q", Variable("y"))])
    ld = LinearDeduction(top, (side,), (pos("P", fn("f", Variable("y"))),),
                         unifiers=(Substitution({"x": a}),))
    rounds = linear_to_etc(ld)
    assert len(rounds) == 1
    assert set(rounds[0].csc.literals) == {pos("R", a), pos("Q", Variable("y"))}


def _random_chain(rng, complementary):
    names = [f"v{i}" for i in range(10)]
    k = rng.randint(2, 6)
    pivot_names = rng.sample(names, k)
    pivots = [(pos if rng.random() < 0.5 else neg)(n) for n in pivot_names]
    if complementary:
        target = rng.randrange(1, k)
        pivots[target] = pivots[rng.randrange(0, target)].complement()
    extras = [n for n in names if n not in pivot_names]

    def noise():
        out = []
        for name in rng.sample(extras, rng.randint(0, 2)):
            out.append((pos if rng.random() < 0.5 else neg)(name))
        return out

    top = Clause(1, [p.complement() for p in pivots] + noise())
    sides = [Clause(i + 2, [pivots[i]] + noise()) for i in range(k)]
    return LinearDeduction(top, tuple(sides), tuple(pivots))


def test_linear_bridge_random_chains():
    rng = random.Random(5150)
    for _ in range(60):
        complementary = rng.random() < 0.4
        ld = _random_chain(rng, complementary)
        try:
            expected = linear_resolvent(ld)
        except ConstructionError:
            continue
        rounds = linear_to_etc(ld)
        assert set(rounds[-1].csc.literals) == set(expected)
        if not complementary:
            assert len(rounds) == 1
        s = ClauseSet([ld.top_clause, *ld.side_clauses])
        assert verify_trace(s, ProofTrace(tuple(rounds), "unknown"))


def test_per_column_sigma_merges_back_to_the_global_substitution(ex52):
    _, trace = prove(ex52, EngineConfig(time_budget=30.0))
    state = trace.rounds[0].state
    merged = {}
    for i in range(len(state.columns)):
        merged.update(dict(state.column_sigma(i).items()))
    assert merged == dict(state.sigma.items())
