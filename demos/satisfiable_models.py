"""Models of satisfiable sets, certified by the oracle.

The engine reads a propositional model off the full trail of its
conflict-driven search, completes it over every atom of the input and
checks it with verify_model; each model printed here is certified again
against the truth-table oracle.
"""

from trisep import (
    clause_set,
    neg,
    pos,
    prove,
    verify_model,
)

s = clause_set([
    [pos("p1")],
    [neg("p1"), pos("p4")],
])

# the engine route: prove reads the model off its search's full trail
outcome, _ = prove(s)
print("clause set:", s)
print("engine verdict:", outcome.verdict, "model:", outcome.model)
print("oracle verify_model:", verify_model(s, outcome.model))
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
