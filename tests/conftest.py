"""Shared fixtures and generators: the worked clause sets every suite
exercises, plus the randomized builders the property suites drive and the
reference ranking that the round builder's extension keys are checked
against."""

import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Function,
    Variable,
    clause_set,
    close,
    extend,
    greedy_pull,
    neg,
    pos,
    start,
)
from trisep.errors import ConstructionError
from trisep.fol import variant_key


def fn(name, *args):
    return Function(name, tuple(args))


def pulled_extend(state, clause, boundary_literal=None):
    """extend under the greedy unifier, as the engine places a clause."""
    return extend(state, clause, boundary_literal,
                  greedy_pull(state, clause.literals, boundary_literal))


def pulled_close(state, clause):
    """close under the greedy unifier."""
    return close(state, clause, greedy_pull(state, clause.literals))


def random_clause_list(rng, max_vars=10, max_clauses=6):
    """Small ground clause lists, half biased toward standard contradictions."""
    names = [f"v{i}" for i in range(rng.randint(1, max_vars))]
    if rng.random() < 0.5:
        count = rng.randint(1, min(max_clauses - 1, len(names)))
        fresh_names = rng.sample(names, count)
        picked = []
        lists = []
        for name in fresh_names:
            lit = (pos if rng.random() < 0.5 else neg)(name)
            body = [lit] + [p.complement() for p in picked if rng.random() < 0.7]
            picked.append(lit)
            lists.append(body)
        lists.append([p.complement() for p in picked])
        if rng.random() < 0.3 and len(lists) > 2:
            lists.pop(rng.randrange(len(lists) - 1))  # often breaks the contradiction
    else:
        lists = [[(pos if rng.random() < 0.5 else neg)(rng.choice(names))
                  for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, max_clauses))]
    return [Clause(i + 1, body) for i, body in enumerate(lists)]


def random_closed_state(rng, max_vars=8, force_stair=False):
    """Drive start/extend/close with random legal selections; returns
    (state, clause_set) or (None, None) when the dice give nothing legal."""
    names = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    k = rng.randint(1, min(5, len(names)))
    boundary_names = rng.sample(names, k)
    literals = []
    clause_bodies = []
    for name in boundary_names:
        lit = (pos if rng.random() < 0.5 else neg)(name)
        body = [lit] + [b.complement() for b in literals if rng.random() < 0.5]
        for _ in range(rng.randint(0, 2)):
            extra = (pos if rng.random() < 0.5 else neg)(rng.choice(names))
            if extra.complement() not in literals and extra not in body \
                    and extra.complement() not in body:
                body.append(extra)
        literals.append(lit)
        clause_bodies.append(body)
    if force_stair and len(literals) >= 2:
        clause_bodies.append([b.complement() for b in literals])
    closer = [b.complement() for b in literals if rng.random() < 0.8]
    if not closer:
        closer = [literals[0].complement()]
    clause_bodies.append(closer)
    s = clause_set(clause_bodies)
    clauses = list(s.clauses)
    try:
        state = start(clauses[0], literals[0])
        idx = 1
        for lit in literals[1:]:
            state = extend(state, clauses[idx], lit)
            idx += 1
        if force_stair and len(literals) >= 2:
            state = extend(state, clauses[idx], None)
            idx += 1
        state = close(state, clauses[idx])
    except ConstructionError:
        return None, None
    return state, s


def random_instance(rng, min_vars=4, max_vars=10, min_clauses=4, max_clauses=14):
    """Mixed satisfiable/unsatisfiable propositional instances."""
    names = [f"v{i}" for i in range(rng.randint(min_vars, max_vars))]
    lists = []
    for _ in range(rng.randint(min_clauses, max_clauses)):
        width = rng.randint(1, 3)
        body = [(pos if rng.random() < 0.5 else neg)(name)
                for name in rng.sample(names, min(width, len(names)))]
        lists.append(body)
    return clause_set(lists)


def three_sat(rng, n_vars, n_clauses):
    """Random 3-SAT: n_clauses clauses of three distinct atoms x1..x<n_vars>."""
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    return clause_set([[(pos if rng.random() < 0.5 else neg)(name)
                        for name in rng.sample(names, 3)] for _ in range(n_clauses)])


def _random_fo_term(rng, depth=0):
    if depth == 2 or rng.random() < 0.4:
        return Variable(rng.choice("XYZ")) if rng.random() < 0.6 else Constant(rng.choice("ab"))
    return fn(rng.choice("fg"), _random_fo_term(rng, depth + 1))


def random_first_order_set(rng):
    """The random first-order corpus: 3-6 clauses of 1-3 literals over p0/1,
    p1/1 and p2/2, each literal negated with probability 1/2. A term is a
    leaf with probability 0.4, and always at depth 2, otherwise f or g of a
    deeper term; a leaf is X, Y or Z with probability 0.6, otherwise a or b."""
    lists = []
    for _ in range(rng.randint(3, 6)):
        body = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice((("p0", 1), ("p1", 1), ("p2", 2)))
            sign = neg if rng.random() < 0.5 else pos
            body.append(sign(name, *(_random_fo_term(rng) for _ in range(arity))))
        lists.append(body)
    return clause_set(lists)


def _placed_signature(state, index):
    col = state.columns[index]
    return (col.clause_id, col.source_literals.index(col.boundary_source),
            variant_key(state.instantiated(index)))


def reference_ranking(working, state):
    """Every propositional extension of state as (key, placed state), least
    key first, the ranking as it was before keys were computed on literal
    sets: each candidate is placed as a Triangle, every clause closes it
    for the look-ahead, and its key is read off the placed state."""
    scored = []
    for clause in working:
        for idx, lit in enumerate(clause.literals):
            if lit in state.boundary:
                continue
            try:
                placed = extend(state, clause, lit)
            except ConstructionError:
                continue
            new = len(placed.columns) - 1
            if any(_placed_signature(placed, new) == _placed_signature(state, i)
                   for i in range(new)):
                continue
            unit = 0 if len(clause) == 1 else 1
            closings = []
            for other in working:
                try:
                    closings.append(close(placed, other))
                except ConstructionError:
                    pass
            look = 0 if any(not closed.csc for closed in closings) else 1
            key = (unit, look, len(placed.d_plus(new)), clause.id, idx)
            scored.append((key, placed))
    scored.sort(key=lambda item: item[0])
    return scored


@pytest.fixture
def ex41():
    """Four clauses over p1, p3, p4; unsatisfiable with an empty separation."""
    return clause_set([
        [pos("p1")],
        [neg("p1"), pos("p4")],
        [pos("p3"), neg("p4")],
        [neg("p1"), neg("p3")],
    ])


@pytest.fixture
def ex42():
    """Ten clauses over x1..x7; unsatisfiable several ways."""
    return clause_set([
        [pos("x1")],
        [pos("x2")],
        [neg("x1"), neg("x2"), pos("x3")],
        [neg("x1"), pos("x4")],
        [neg("x4"), pos("x5")],
        [neg("x3"), neg("x5")],
        [neg("x3"), pos("x7")],
        [neg("x5"), neg("x7")],
        [neg("x3"), neg("x4")],
        [neg("x2"), neg("x7")],
    ])


@pytest.fixture
def ex43():
    """Eight clauses; the scripted first round separates the unit x4."""
    return clause_set([
        [neg("x3"), neg("x7")],
        [pos("x2"), pos("x5"), pos("x3")],
        [pos("x1"), neg("x2")],
        [pos("x1"), neg("x5")],
        [neg("x1"), neg("x4")],
        [pos("x6"), pos("x4"), pos("x3")],
        [neg("x6"), neg("x1")],
        [pos("x7")],
    ])


@pytest.fixture
def ex51():
    v = {name: Variable(name) for name in
         ("x11", "x21", "x31", "x41", "x51", "x61", "x71")}
    return ClauseSet([
        Clause(1, [neg("P1", v["x11"]), pos("P2", v["x11"])]),
        Clause(2, [neg("P1", v["x21"]), pos("P3", v["x21"])]),
        Clause(3, [neg("P3", v["x31"]), pos("P4", v["x31"]), pos("P5", v["x31"])]),
        Clause(4, [neg("P4", v["x41"]), pos("P3", fn("f", v["x41"]))]),
        Clause(5, [pos("P1", v["x51"])]),
        Clause(6, [neg("P5", v["x61"])]),
        Clause(7, [neg("P3", fn("f", v["x71"]))]),
    ])


@pytest.fixture
def ex52():
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    x = {i: Variable(f"x{i}") for i in range(1, 12)}
    return ClauseSet([
        Clause(1, [pos("P1", a)]),
        Clause(2, [neg("P2", a, b)]),
        Clause(3, [pos("P3", a, fn("f", c), fn("f", b))]),
        Clause(4, [pos("P3", x[1], x[1], fn("f", x[1]))]),
        Clause(5, [neg("P3", x[2], x[3], x[4]), pos("P3", x[3], x[2], x[4])]),
        Clause(6, [neg("P3", x[5], x[6], x[7]), pos("P2", x[5], x[7])]),
        Clause(7, [neg("P1", x[8]), neg("P3", x[9], x[10], x[11]),
                   neg("P2", x[8], x[11]), pos("P2", x[8], x[9]),
                   pos("P2", x[8], x[10])]),
    ])


@pytest.fixture
def ex53():
    a1, a3 = Constant("a1"), Constant("a3")
    v = {name: Variable(name) for name in
         ("x11", "x12", "x13", "x21", "x22", "x23",
          "x31", "x32", "x33", "x34", "x41")}
    return ClauseSet([
        Clause(1, [neg("P1", v["x11"], v["x12"], v["x13"]), neg("P2", v["x11"], v["x13"])]),
        Clause(2, [pos("P1", v["x22"], v["x21"], v["x23"]),
                   neg("P1", v["x21"], v["x22"], v["x23"])]),
        Clause(3, [pos("P2", v["x31"], v["x34"]), neg("P3", v["x31"]),
                   neg("P1", v["x32"], v["x33"], v["x34"]),
                   neg("P2", v["x31"], v["x32"]), neg("P2", v["x31"], v["x33"])]),
        Clause(4, [pos("P1", v["x41"], v["x41"], fn("f1", v["x41"]))]),
        Clause(5, [pos("P1", a1, fn("f1", a1), fn("f1", a3))]),
        Clause(6, [pos("P3", a1)]),
        Clause(7, [pos("P2", a1, a3)]),
    ])


@pytest.fixture
def ex61():
    """Six clauses whose scripted construction separates ~x1 | ~x4."""
    return clause_set([
        [neg("x2"), neg("x5")],
        [neg("x3"), pos("x2")],
        [pos("x3"), neg("x5")],
        [pos("x4"), neg("x3")],
        [pos("x3"), neg("x1")],
        [pos("x5"), neg("x4")],
    ])
