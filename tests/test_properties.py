"""Property tests: construction steps against a full rebuild, the unifier
search against instantiating the boundary sources, the round builder's
extension ranking against placing every candidate, one-pass column pruning
against the fixpoint loop, the clause store against linear scans, the
saturation fallback's resolvents against the rounds they stand for and the
clauses it starts from, its conflict-driven propositional path against the
truth table, the closing generator against one that closes
every seed, prove against the brute-force oracle, the parsers on arbitrary
text, TPTP render/parse round trips, and the term reader in both
spellings. Example counts stay low so the suite stays fast."""

import random
from collections import Counter
from dataclasses import replace
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from trisep import (
    Clause,
    ClauseSet,
    Column,
    Constant,
    EngineConfig,
    Function,
    LinearDeduction,
    Literal,
    ProofTrace,
    RoundRecord,
    Triangle,
    Variable,
    clause_set,
    close,
    compose,
    extend,
    greedy_pull,
    is_tautology,
    is_unsatisfiable_bruteforce,
    linear_to_etc,
    load_problem,
    mgu,
    neg,
    parse_dimacs,
    parse_tptp_cnf,
    parse_trace_document,
    pos,
    preprocess,
    prove,
    prune_redundant_columns,
    rename_clause,
    render_dimacs,
    render_tptp,
    render_trace,
    shadow_contradiction_check,
    start,
    verify_model,
    verify_trace,
)
from trisep import engine
from trisep.engine import _ClauseStore
from trisep.fol import variant_key
from trisep.errors import ConstructionError, ParseError, TrisepError
from trisep.oracle import complete_model
from trisep.logic import MAX_TERM_DEPTH, merge_duplicate_literals, variable_names
from trisep.render import RawState, format_literal, parse_literal_text
from trisep.tptp import render_literal_tptp
from trisep.triangle import EMPTY_STATE, _derive_column
from trisep.unify import EMPTY, apply_literal
from conftest import random_closed_state, random_instance, three_sat

FEW = settings(max_examples=50, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


# -- construction steps --------------------------------------------------------

_leaves = st.sampled_from([Constant("a"), Constant("b"), Variable("X"), Variable("Y")])
_terms = st.recursive(_leaves, lambda inner: inner.map(lambda t: Function("f", (t,))),
                      max_leaves=3)
_first_order_literals = st.builds(Literal, st.booleans(), st.sampled_from("pq"),
                                  st.tuples(_terms))
_propositional_literals = st.builds(Literal, st.booleans(), st.sampled_from("pqrs"))


def _reference_state(columns, sigma):
    """A state's fields as one loop over its columns accumulates them, with
    no column step in between: the independent reference for the steps and
    for Triangle, which folds them. Raises ConstructionError where
    _derive_column does."""
    boundary, parts, instantiated = [], [], []
    complements = set()
    closed = False
    for index, col in enumerate(columns, start=1):
        lits, blit, d_minus, d_plus = _derive_column(index, col, sigma, complements, closed)
        if blit is not None:
            boundary.append(blit)
            complements.add(blit.complement())
        closed = closed or col.closing
        instantiated.append(lits)
        parts.append((d_minus, d_plus))
    leftovers = merge_duplicate_literals(l for _, d_plus in parts for l in d_plus)
    return SimpleNamespace(
        columns=tuple(columns), sigma=sigma, closed=closed, boundary=tuple(boundary),
        parts=tuple(parts), instantiated=tuple(instantiated),
        boundary_complements=frozenset(complements), leftovers=leftovers,
        csc=leftovers if closed else None,
        free=variable_names(chain.from_iterable(instantiated)),
        closing_index=next((i for i, col in enumerate(columns) if col.closing), None))


def _assert_same_state(state: Triangle, reference: SimpleNamespace):
    assert state.columns == reference.columns
    assert state.sigma == reference.sigma
    assert state.closed == reference.closed
    assert state.boundary == reference.boundary
    assert state.parts == reference.parts
    assert (tuple(state.instantiated(i) for i in range(len(state.columns)))
            == reference.instantiated)
    assert state.leftovers == reference.leftovers
    assert state.boundary_complements == reference.boundary_complements
    assert state.csc == reference.csc
    assert state._free == reference.free
    assert state.closing_index == reference.closing_index


@FEW
@given(st.data(), st.booleans())
def test_steps_agree_with_a_full_rebuild(data, first_order):
    """Every start/extend/close, under the empty unifier or greedy_pull's,
    and Triangle on the same columns give the state that a plain loop over
    the columns derives, and raise exactly when that loop does."""
    literals = _first_order_literals if first_order else _propositional_literals
    bodies = data.draw(st.lists(st.lists(literals, min_size=1, max_size=3),
                                min_size=1, max_size=5))
    clauses = [Clause(i, body) for i, body in enumerate(bodies, start=1)]
    state = None
    for column in range(1, data.draw(st.integers(1, 7)) + 1):
        clause = rename_clause(data.draw(st.sampled_from(clauses)), column)
        kind = "start" if state is None else data.draw(
            st.sampled_from(["extend", "stair", "close"]))
        lit = (data.draw(st.sampled_from(clause.literals))
               if kind in ("start", "extend") else None)
        sigma = EMPTY
        if state is not None and data.draw(st.booleans()):
            sigma = greedy_pull(state, clause.literals, lit)
        columns = (state.columns if state is not None else ()) + (
            Column(clause.id, clause.literals, lit, closing=kind == "close"),)
        total = compose(sigma, state.sigma if state is not None else EMPTY)
        try:
            reference = _reference_state(columns, total)
        except ConstructionError:
            reference = None
        try:
            rebuilt = Triangle(columns, total)
        except ConstructionError:
            rebuilt = None
        try:
            if kind == "start":
                stepped = start(clause, lit)
            elif kind == "close":
                stepped = close(state, clause, sigma)
            else:
                stepped = extend(state, clause, lit, sigma)
        except ConstructionError:
            stepped = None
        assert (stepped is None) == (rebuilt is None) == (reference is None)
        if stepped is None:
            continue
        _assert_same_state(stepped, reference)
        _assert_same_state(rebuilt, reference)
        if stepped.closed:
            return
        state = stepped


def _reference_greedy_pull(state, literals, exclude=None, seed=EMPTY):
    """greedy_pull with the state's substitution applied here: every pass
    instantiates the boundary sources and the literals under
    compose(seed, state.sigma) grown by the unifiers found so far."""
    increment, total = seed, compose(seed, state.sigma)
    sources = [col.boundary_source for col in state.columns if col.boundary_source is not None]
    pulled = [lit for lit in literals if lit != exclude]
    changed = True
    while changed:
        changed = False
        for source in sources:
            for lit in pulled:
                inst = apply_literal(total, lit)
                target = apply_literal(total, source).complement()
                unifier = None if inst == target else mgu(inst, target)
                if unifier is not None:
                    increment, total = compose(unifier, increment), compose(unifier, total)
                    changed = True
    return increment


def test_greedy_pull_agrees_with_instantiating_the_boundary_sources():
    """On random first-order states, some of whose unifiers rewrote earlier
    columns, greedy_pull, which reads the state's instantiated boundary,
    finds the reference's unifier from the empty seed and from every
    (literal, boundary complement) seed."""
    rng = random.Random(2026)
    leaves = [Constant("a"), Constant("b"), Variable("X"), Variable("Y")]

    def term(depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.5:
            return rng.choice(leaves)
        if roll < 0.8:
            return Function("f", (term(depth + 1),))
        return Function("g", (term(depth + 1), term(depth + 1)))

    def literal():
        predicate = rng.choice("pqr")
        args = (term(), term()) if predicate == "r" else (term(),)
        return Literal(rng.random() < 0.5, predicate, args)

    compared = rewrites = 0
    for _ in range(300):
        clauses = [Clause(i, [literal() for _ in range(rng.randint(1, 3))])
                   for i in range(1, rng.randint(3, 6))]
        state = EMPTY_STATE
        for tag in range(1, rng.randint(3, 8)):
            clause = rename_clause(rng.choice(clauses), tag)
            lit = rng.choice(clause.literals)
            try:
                extended = extend(state, clause, lit, greedy_pull(state, clause.literals, lit))
            except ConstructionError:
                continue
            rewrites += any(extended.instantiated(i) != state.instantiated(i)
                            for i in range(len(state.columns)))
            state = extended
            placed = rename_clause(rng.choice(clauses), "q")
            exclude = rng.choice((None,) + placed.literals)
            seeds = [mgu(l, b.complement()) for l in placed.literals for b in state.boundary]
            for seed in [EMPTY] + [seed for seed in seeds if seed is not None]:
                assert (greedy_pull(state, placed.literals, exclude, seed)
                        == _reference_greedy_pull(state, placed.literals, exclude, seed))
                compared += 1
    assert rewrites > 20 and compared > 1000


# -- the clause store -----------------------------------------------------------

_store_operations = st.one_of(*(
    st.lists(st.tuples(st.booleans(), st.lists(literals, min_size=1, max_size=3)),
             min_size=1, max_size=10)
    for literals in (_propositional_literals, _first_order_literals)))


@FEW
@given(_store_operations)
# a removal, then an add, each changing the count of a literal counted before
@example([(True, [pos("p", Constant("a")), pos("q", Constant("b"))]),
          (False, [pos("p", Constant("a"))]), (True, [pos("p", Variable("X"))])])
def test_the_clause_store_answers_as_linear_scans_do(operations):
    """With adds and removals of subsumed clauses interleaved (True adds the
    clause), the store iterates in insertion order, and count_unifiable
    and subsumes answer as scans over a plain list do.
    Every count is asked after every change, so a count memoized before a
    change that moves it would show."""
    store, reference = _ClauseStore(), []
    probes = {lit for _, body in operations for l in body for lit in (l, l.complement())}
    for cid, (adding, body) in enumerate(operations, start=1):
        clause = Clause(cid, body)
        if adding:
            store.add(clause)
            reference.append(clause)
        else:
            store.remove_subsumed_by(clause)
            reference = [c for c in reference if not clause.literal_set < c.literal_set]
        assert list(store) == reference
        assert len(store) == len(reference)
        for lit in probes:
            assert store.count_unifiable(lit) == sum(
                1 for c in reference if any(mgu(lit, other) is not None for other in c.literals))
        for _, other in operations:
            for within in (frozenset(other), frozenset(other) | clause.literal_set):
                assert store.subsumes(within) == any(c.literal_set <= within for c in reference)


# -- the saturation fallback ---------------------------------------------------


def test_the_conflict_driven_fallback_agrees_with_the_truth_table():
    """Under the fallback alone, on seeded random 3-SAT sets of 8 to 14 atoms
    near the threshold ratio and on criterion 9's random sets: every verdict
    is the truth table's, every model satisfies its set, and every
    refutation's trace verifies as produced and after a render/parse round
    trip. Each learned clause that a refutation needs is built as one round,
    with one column per resolution step of its derivation (a boundary column
    per reason, on distinct atoms) and a closing column, and the trace is
    exactly those rounds: each derives a new clause, and each but the last
    is a premise of a later one. linear_to_etc, fed the chain read off each
    round (the closing clause as top, the boundary columns latest first,
    their boundary literals as pivots), rebuilds that round."""
    rng = random.Random(4026)
    problems = [three_sat(rng, n, round(4.26 * n)) for n in range(8, 15) for _ in range(12)]
    problems += [random_instance(rng) for _ in range(120)]
    verdicts = Counter()
    for problem in problems:
        outcome, trace = prove(problem, EngineConfig(max_rounds=0, time_budget=30.0))
        assert outcome.verdict != "unknown", outcome.reason
        assert outcome.unsatisfiable == is_unsatisfiable_bruteforce(problem)
        verdicts[outcome.verdict] += 1
        if outcome.satisfiable:
            assert verify_model(problem, outcome.model)
            continue
        ids = [record.csc.id for record in trace.rounds]
        assert ids == sorted(ids) and ids[0] >= problem.next_id()
        assert trace.rounds[-1].csc.is_empty()
        used = {cid for record in trace.rounds for cid in record.clause_ids_used}
        assert set(ids[:-1]) <= used
        for record in trace.rounds:
            *sides, closing = record.state.columns
            assert closing.closing and all(col.boundary_source is not None for col in sides)
            pivots = [col.boundary_source for col in reversed(sides)]
            assert len({lit.predicate for lit in pivots}) == len(pivots)
            assert all(cid in ids[:ids.index(record.csc.id)] or cid < problem.next_id()
                       for cid in record.clause_ids_used)
            rebuilt, = linear_to_etc(LinearDeduction(
                Clause(closing.clause_id, closing.source_literals),
                tuple(Clause(col.clause_id, col.source_literals) for col in reversed(sides)),
                tuple(pivots)), record.csc.id)
            assert rebuilt.state.columns == record.state.columns
            assert rebuilt.csc.id == record.csc.id
            assert rebuilt.csc.literals == record.csc.literals
        assert verify_trace(problem, trace)
        assert verify_trace(problem, parse_trace_document(render_trace(trace)))
    assert min(verdicts["satisfiable"], verdicts["unsatisfiable"]) >= 50


def _reference_two_column_rounds(a: Clause, b: Clause):
    """The k=2 closed states with a's literal on the boundary, closed by b, as
    the fallback once built them: one greedy close per unifying literal pair,
    grown from that pair's unifier."""
    out = []
    a1 = rename_clause(a, 1)
    b2 = rename_clause(b, 2)
    for lit in a1.literals:
        opened = start(a1, lit)
        for other in b2.literals:
            seed = mgu(other, lit.complement())
            if seed is None:
                continue
            try:
                out.append(close(opened, b2, greedy_pull(opened, b2.literals, None, seed)))
            except ConstructionError:
                pass
    return out


def _first_occurrences(states):
    """(csc variant key, clause ids, columns, substitution) of the first state
    with each key, in order: what the saturation keeps of a resolvent stream."""
    firsts = {}
    for state in states:
        firsts.setdefault(variant_key(state.csc), (state.clause_ids(), state.columns,
                                                   state.sigma))
    return list(firsts.items())


def _reference_closings(state: Triangle, clause: Clause):
    """Closings as a closing generator that repeats work makes them: the
    greedy close, then one close per non-empty seed, literal by literal,
    repeated seeds and the greedy close's own seed included."""
    placed = rename_clause(clause, len(state.columns) + 1)
    seeds = [mgu(lit, b.complement()) for lit in placed.literals for b in state.boundary]
    if all(seed is None for seed in seeds):
        return
    for seed in chain((EMPTY,), filter(None, seeds)):
        try:
            yield close(state, placed, greedy_pull(state, placed.literals, None, seed))
        except ConstructionError:
            continue


def _random_term(rng, depth=0):
    draw = rng.random()
    if depth < 2 and draw < 0.25:
        return Function("f", (_random_term(rng, depth + 1),))
    return Variable(rng.choice("XYZ")) if draw < 0.6 else Constant(rng.choice("ab"))


def _random_clause(rng, cid):
    literals = []
    for _ in range(rng.randint(1, 3)):
        arity = rng.choice((1, 2))
        lit = Literal(rng.random() < 0.5, "pr"[arity - 1],
                      tuple(_random_term(rng) for _ in range(arity)))
        if lit not in literals:
            literals.append(lit)
    return Clause(cid, literals)


def _random_open_state(rng):
    """A state of two to four columns, each placed under its greedy unifier;
    a column that cannot be placed is left out."""
    first = rename_clause(_random_clause(rng, 1), 1)
    state = start(first, rng.choice(first.literals))
    for cid in range(2, rng.randint(2, 4) + 1):
        placed = rename_clause(_random_clause(rng, cid), cid)
        lit = rng.choice(placed.literals)
        try:
            state = extend(state, placed, lit, greedy_pull(state, placed.literals, lit))
        except ConstructionError:
            continue
    return state


def test_closings_are_the_distinct_closed_states_of_every_seed():
    """Closing each distinct seed once, the greedy close's seed not again,
    and each grown unifier once, yields the distinct closed states that
    closing every seed yields, each once, in first-occurrence order, and
    builds fewer where seeds repeat."""
    rng = random.Random(7)
    covered = Counter()
    for _ in range(500):
        state, clause = _random_open_state(rng), _random_clause(rng, 9)
        expected = list(_reference_closings(state, clause))
        placed = rename_clause(clause, len(state.columns) + 1)
        closings = list(engine._closings(state, placed))
        built = [(s.columns, s.sigma) for s in closings]
        assert len(set(built)) == len(built)
        assert built == list(dict.fromkeys((s.columns, s.sigma) for s in expected))
        seeds = [seed for seed in (mgu(lit, b.complement()) for lit in placed.literals
                                   for b in state.boundary) if seed]
        if len(state.boundary) >= 2:
            covered["several seeds"] += len(set(seeds)) >= 2
            covered["a repeated seed"] += len(seeds) > len(set(seeds))
        covered["fewer built"] += len(closings) < len(expected)
    assert min(covered[name] for name in ("several seeds", "a repeated seed", "fewer built")) > 0


def _reference_prune(state: Triangle) -> Triangle:
    """prune_redundant_columns as a fixpoint loop: drop every stair and
    every boundary column whose boundary literal's complement no later
    column holds, rebuild, and repeat until a pass drops nothing."""
    current = state
    while True:
        drop = {i for i, col in enumerate(current.columns) if current.is_stair(i) or (
            col.boundary_source is not None and not any(
                current.d_minus(i)[0].complement() in current.instantiated(j)
                for j in range(i + 1, len(current.columns))))}
        if not drop:
            return current
        current = Triangle(tuple(col for i, col in enumerate(current.columns)
                                 if i not in drop), current.sigma)


def _random_closed_states(rng, first_order):
    """Propositional closed states with and without a stair, or first-order
    ones from the closing generator."""
    if not first_order:
        return [random_closed_state(rng, force_stair=rng.random() < 0.5)[0]]
    state = _random_open_state(rng)
    return list(engine._closings(state, rename_clause(_random_clause(rng, 9),
                                                      len(state.columns) + 1)))


@settings(FEW, max_examples=100)
@given(st.randoms(use_true_random=False), st.booleans())
def test_pruning_in_one_pass_is_the_fixpoint_of_repeated_passes(rng, first_order):
    """On closed states of both logics, one right-to-left pass keeps exactly
    the columns that the fixpoint loop keeps, and gives the same state, or
    the state itself when nothing is dropped."""
    for state in filter(None, _random_closed_states(rng, first_order)):
        pruned, reference = prune_redundant_columns(state), _reference_prune(state)
        assert (pruned is state) == (reference is state)
        assert (pruned.columns, pruned.sigma) == (reference.columns, reference.sigma)
        assert (pruned.parts, pruned.leftovers) == (reference.parts, reference.leftovers)


@settings(FEW, max_examples=100)
@given(st.randoms(use_true_random=False), st.booleans())
def test_a_pruned_state_is_assembled_as_the_constructor_derives_it(rng, first_order):
    """The state that pruning assembles from the surviving columns' fields
    equals, field by field, the one the constructor derives from those
    columns under the same substitution."""
    for state in filter(None, _random_closed_states(rng, first_order)):
        pruned = prune_redundant_columns(state)
        rebuilt = Triangle(pruned.columns, pruned.sigma)
        for name in Triangle.__slots__:
            assert getattr(pruned, name) == getattr(rebuilt, name), name


_binary_literals = st.builds(Literal, st.booleans(), st.just("r"), st.tuples(_terms, _terms))
_first_order_clauses = st.lists(st.one_of(_first_order_literals, _binary_literals),
                                min_size=1, max_size=3)


# more examples than elsewhere: under 1 in 10 pairs has two distinct resolvents
@settings(FEW, max_examples=200)
@given(_first_order_clauses, _first_order_clauses, st.sampled_from(["self", "pivot", "free"]))
# three distinct resolvents on one pivot, so their order shows
@example([Literal(True, "p", (Variable("X"),))],
         [Literal(False, "p", (t,)) for t in (Constant("a"), Constant("b"),
                                              Function("f", (Variable("Y"),)))], "free")
def test_first_order_resolvents_are_closings_of_one_column_states(a_body, b_body, pairing):
    """Closing a's one-column states with b yields the rounds of the
    per-literal-pair construction: the same distinct resolvents, in
    first-occurrence order, from the same states."""
    a = Clause(1, a_body)
    if pairing == "pivot":  # b can resolve with a's first literal
        b_body = b_body + [a_body[0].complement()]
    b = a if pairing == "self" else Clause(2, b_body)
    a1 = rename_clause(a, 1)
    b2 = rename_clause(b, 2)
    closings = [closed for lit in a1.literals for closed in engine._closings(start(a1, lit), b2)]
    assert _first_occurrences(closings) == _first_occurrences(_reference_two_column_rounds(a, b))


@FEW
@given(st.lists(st.lists(_propositional_literals, min_size=1, max_size=3),
                min_size=1, max_size=8),
       st.sampled_from([EngineConfig(max_rounds=0), EngineConfig(),
                        EngineConfig(max_rounds=0, fallback_enabled=False)]))
def test_prove_agrees_with_the_oracle_and_its_traces_verify(bodies, config):
    """Under the fallback alone and under the default config: the verdict is
    the oracle's and a model satisfies the input. Under every config, also
    with nothing to run, the trace verifies both as produced and after a
    render/parse round trip, and rendering the parsed document gives the
    document back, the reason for an unknown verdict included."""
    problem = ClauseSet([Clause(i, body) for i, body in enumerate(bodies, start=1)])
    outcome, trace = prove(problem, config)
    if config.fallback_enabled:
        assert outcome.verdict in ("satisfiable", "unsatisfiable"), outcome.reason
    if outcome.verdict != "unknown":
        assert outcome.unsatisfiable == is_unsatisfiable_bruteforce(problem)
    if outcome.satisfiable:
        assert verify_model(problem, outcome.model)
    assert verify_trace(problem, trace)
    document = render_trace(trace)
    parsed = parse_trace_document(document)
    assert verify_trace(problem, parsed)
    assert parsed.reason == trace.reason
    assert render_trace(parsed) == document


class _Entered(Exception):
    """Raised by the wrapped fallback once it has checked what it was given."""


@FEW
@given(st.lists(st.lists(_first_order_literals, min_size=1, max_size=3), min_size=1, max_size=6),
       st.sampled_from([EngineConfig(max_rounds=0), EngineConfig()]))
def test_the_fallback_starts_from_the_admitted_clauses(bodies, config):
    """On first-order input, prove hands the fallback its working set as it
    stands: no tautology, no two variants, and seen is exactly their variant
    keys. This is why the first-order fallback admits every clause it is
    given without checking."""
    problem = ClauseSet([Clause(i, body) for i, body in enumerate(bodies, start=1)])

    def entered(working, seen, *_):
        keys = [variant_key(c.literals) for c in working]
        assert not any(is_tautology(c) for c in working)
        assert len(set(keys)) == len(keys)
        assert seen == set(keys)
        raise _Entered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_saturate", entered)
        try:
            prove(problem, config)
        except _Entered:
            return
    # prove decided without the fallback, which max_rounds=0 allows only
    # when preprocessing leaves nothing to saturate
    assert config.max_rounds or not preprocess(problem).clauses


@FEW
@given(st.lists(st.lists(_propositional_literals, min_size=1, max_size=3), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 8), st.booleans(), _propositional_literals),
                max_size=6),
       st.randoms(use_true_random=False))
# a refutation in which a kept repeat, watched on other literals, would be the
# reason that the trace cites
@example([[neg("r"), pos("q"), pos("p")], [neg("q")], [neg("r")], [neg("q")],
          [pos("r"), pos("q"), pos("p")], [neg("p"), pos("q")], [pos("p"), pos("q"), pos("r")]],
         [], random.Random(0))
def test_the_fallback_drops_what_preprocessing_drops_from_propositional_input(
        bodies, extras, rng):
    """prove hands propositional input to the conflict-driven fallback as
    parsed, without preprocess, and the fallback drops exactly the clauses
    that preprocess drops: a set with tautologies and repeated clauses (in
    another literal order) mixed in renders the same document as the set
    that preprocess leaves of it, whose model prove extends to the atoms
    that only dropped clauses hold, as false. The first clause holds the
    highest id and survives both, so both number their learned clauses from
    the same id. The set's tautologies alone answer the all-false model."""
    assume(not is_tautology(bodies[0]))
    mixed = list(bodies)
    for at, repeat, lit in extras:
        at = 1 + at % len(mixed)
        if repeat:
            body = list(rng.choice(mixed[:at]))
            rng.shuffle(body)
        else:
            body = list(rng.choice(mixed)) + [lit, lit.complement()]
        mixed.insert(at, body)
    problem = ClauseSet([Clause(len(mixed) - i, body) for i, body in enumerate(mixed)])
    reduced = preprocess(problem)
    tautologies = ClauseSet([clause for clause in problem.clauses if is_tautology(clause)])

    def not_preprocessed(clause_set):
        raise AssertionError("preprocess ran on propositional input")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "preprocess", not_preprocessed)
        outcome, trace = prove(problem)
        reference = prove(reduced)
        # tautologies alone are satisfiable, with every atom false
        alone, alone_trace = prove(tautologies)
    assert alone.satisfiable and not alone_trace.rounds
    assert alone.model == dict.fromkeys(tautologies.predicates(), False)
    expected = reference[1]
    if expected.model is not None:
        expected = replace(expected, model=complete_model(expected.model, problem))
    assert outcome.verdict == expected.verdict and outcome.model == expected.model
    assert render_trace(trace) == render_trace(expected)


# -- the trace checker ----------------------------------------------------------

_ORDER_DIAGNOSTIC = ("round 1: column {} holds an inside literal that is neither its boundary "
                     "literal nor the complement of an earlier one")


@FEW
@given(st.data(), st.sampled_from([_propositional_literals, _first_order_literals]))
def test_a_round_in_construction_order_is_a_standard_contradiction(data, literals):
    """verify_trace's lemma: when every inside part of a closed round holds
    only its own boundary literal and complements of earlier boundary
    literals, the inside parts are a standard contradiction, and
    verify_trace accepts the round; with a stray literal out of that order,
    verify_trace names the first misplaced column. Each column's input
    clause is its inside part, under the empty substitution."""
    boundary = data.draw(st.lists(literals, min_size=1, max_size=8))
    complements = [lit.complement() for lit in boundary]
    parts = [[lit] + data.draw(st.lists(st.sampled_from(complements[:j]), max_size=3))
             if j else [lit] for j, lit in enumerate(boundary)]
    parts.append(data.draw(st.lists(st.sampled_from(complements), min_size=1, max_size=3)))
    for j, lit in data.draw(st.lists(st.tuples(st.integers(0, len(boundary)), literals),
                                     max_size=2)):
        parts[j].append(lit)
    parts = [merge_duplicate_literals(part) for part in parts]
    n = len(parts)
    columns = [Column(j + 1, part, boundary[j] if j < len(boundary) else None,
                      closing=j == len(boundary)) for j, part in enumerate(parts)]
    state = RawState(columns, [EMPTY] * n, parts, [()] * n)
    trace = ProofTrace((RoundRecord(state, Clause(n + 1, ())),), "unsatisfiable")
    result = verify_trace(ClauseSet([Clause(j + 1, part) for j, part in enumerate(parts)]),
                          trace)
    misplaced = next((j + 1 for j, part in enumerate(parts)
                      if not set(part) <= set(boundary[j:j + 1] + complements[:j])), None)
    if misplaced is None:
        assert result.ok
        assert shadow_contradiction_check([Clause(j + 1, part) for j, part in enumerate(parts)])
    else:
        assert result.diagnostic == _ORDER_DIAGNOSTIC.format(misplaced)


# -- parsers on arbitrary text -------------------------------------------------

def _document_lines():
    x = Variable("X")
    problems = [
        clause_set([[pos("p")], [neg("p"), pos("q")], [neg("q")]]),
        clause_set([[pos("P", Constant("a"))], [neg("P", x), pos("P", Function("f", (x,)))],
                    [neg("P", Function("f", (Function("f", (Constant("a"),)),)))]]),
    ]
    lines = set()
    for problem in problems:
        lines.update(render_trace(prove(problem)[1]).splitlines())
    return sorted(lines)


_FRAGMENTS = _document_lines() + [
    "p cnf 3 2", "p cnf", "1 -2 0", "-3 0", "0", "c comment", "%",
    "cnf(c1, axiom, p(X) | ~q(f(a))).", "cnf(c2, axiom, (~p(a))).", "cnf(", "fof(",
    "TRACE\tBEGIN", "TRACE\tEND", "VERDICT\tsatisfiable", "MODEL\tp\ttrue",
]
_texts = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=12)),
             max_size=25).map("\n".join),
)


@FEW
@given(_texts)
def test_problem_parsers_raise_only_parse_error(text):
    for parse in (parse_dimacs, parse_tptp_cnf, load_problem):
        try:
            parse(text)
        except ParseError:
            pass


@FEW
@given(_texts)
def test_trace_parser_raises_only_parse_error(text):
    try:
        parse_trace_document(text)
    except ParseError:
        pass


_dimacs_literals = st.builds(Literal, st.booleans(), st.integers(1, 9).map(lambda i: f"x{i}"))


@FEW
@given(st.lists(st.lists(_dimacs_literals, max_size=4), max_size=8))
def test_dimacs_round_trip(bodies):
    clauses = ClauseSet([Clause(i, body) for i, body in enumerate(bodies, start=1)])
    parsed = parse_dimacs(render_dimacs(clauses))
    assert parsed.mode == clauses.mode
    assert ([(c.id, c.literals) for c in parsed.clauses]
            == [(c.id, c.literals) for c in clauses.clauses])


# -- render/parse round trips --------------------------------------------------

_tptp_terms = st.recursive(
    st.sampled_from([Constant("a"), Constant("b"), Variable("X"), Variable("Y")]),
    lambda inner: st.one_of(st.builds(lambda t: Function("f", (t,)), inner),
                            st.builds(lambda s, t: Function("g", (s, t)), inner, inner)),
    max_leaves=4)
_tptp_literals = st.one_of(
    st.builds(Literal, st.booleans(), st.just("p")),
    st.builds(Literal, st.booleans(), st.just("q"), st.tuples(_tptp_terms)),
    st.builds(Literal, st.booleans(), st.just("r"), st.tuples(_tptp_terms, _tptp_terms)),
)


@FEW
@given(st.lists(st.lists(_tptp_literals, max_size=4), min_size=1, max_size=6))
def test_tptp_round_trip(bodies):
    clauses = ClauseSet([Clause(i, body) for i, body in enumerate(bodies, start=1)])
    parsed = parse_tptp_cnf(render_tptp(clauses))
    assert ([(c.id, c.literals) for c in parsed.clauses]
            == [(c.id, c.literals) for c in clauses.clauses])


_legal_functors = st.from_regex(r"[a-z][A-Za-z0-9_]{0,4}", fullmatch=True)
_legal_terms = st.recursive(
    st.one_of(st.builds(Constant, _legal_functors),
              st.builds(Variable, st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,4}", fullmatch=True))),
    lambda inner: st.builds(Function, _legal_functors,
                            st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=6)
_legal_literals = st.builds(Literal, st.booleans(), _legal_functors,
                            st.lists(_legal_terms, max_size=3).map(tuple))


@FEW
@given(_legal_literals)
def test_one_reader_reads_a_literal_back_in_both_spellings(lit):
    # the trace spelling (? sigil, no blanks) and the TPTP spelling (case
    # tells variables, blanks between tokens) read one term grammar
    try:
        unit = ClauseSet([Clause(1, [lit])])
    except TrisepError:  # one name drawn at two arities, or as a variable and a constant
        assume(False)
    assert parse_literal_text(format_literal(lit)) == lit
    assert parse_tptp_cnf(render_tptp(unit)).clauses[0].literals == (lit,)
    deep = "f(" * MAX_TERM_DEPTH + "a" + ")" * MAX_TERM_DEPTH  # 129 deep as an argument

    def read_tptp(text):
        return parse_tptp_cnf(f"cnf(c1, axiom, {text}).")

    for text, read in ((format_literal(lit), parse_literal_text),
                       (render_literal_tptp(lit), read_tptp)):
        unclosed = text[:-1] if lit.args else text + "("
        for bad in (f"{lit.predicate}({deep})", unclosed, text + ")"):
            with pytest.raises(ParseError):
                read(bad)
