"""Reading a model off a covering construction.

When every clause of a propositional set sits in some column and the closing
clause keeps a leftover literal, the boundary literals plus that leftover
form a satisfying assignment. The engine reads its propositional models off
the full trail of its conflict-driven search instead; both kinds of model are
certified here against the truth-table oracle.
"""

from trisep import (
    clause_set,
    close,
    extract_model,
    neg,
    pos,
    prove,
    start,
    verify_model,
)

s = clause_set([
    [pos("p1")],
    [neg("p1"), pos("p4")],
])
c1, c2 = s.clauses

# one column per clause; re-closing on clause 2 keeps p4 above the boundary
state = close(start(c1, pos("p1")), c2)
model = extract_model(state, s)
print("clause set:", s)
print("extracted model:", model)
print("oracle verify_model:", verify_model(s, model))
print()

# the engine route: prove reads the model off its search's full trail
outcome, _ = prove(s)
print("engine verdict:", outcome.verdict, "model:", outcome.model)
print()

# a set with no model: the same machinery refutes it instead
contradictory = clause_set([[pos("p")], [neg("p")]])
outcome, trace = prove(contradictory)
print("contradictory pair:", contradictory, "->", outcome.verdict,
      "in", len(trace.rounds), "round(s)")
print()

# larger mixed example
bigger = clause_set([
    [pos("a"), pos("b")],
    [neg("a"), pos("c")],
    [neg("b"), neg("c")],
    [pos("d"), neg("a")],
])
outcome, _ = prove(bigger)
print("bigger set:", bigger)
print("verdict:", outcome.verdict, "model:", outcome.model)
print("oracle agrees:", verify_model(bigger, outcome.model))
