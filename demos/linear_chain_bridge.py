"""Resolution chains re-expressed as separation rounds.

A linear chain resolves a top clause against side clauses one pivot at a
time. When the pivots hold no complementary pair, one construction realizes
the whole chain: the pivots become the boundary line, the top clause closes,
and the separated clause is exactly the final resolvent. Complementary
pivots force a split into consecutive rounds whose separations chain through.
"""

from trisep import (
    Clause,
    ClauseSet,
    LinearDeduction,
    ProofTrace,
    linear_resolvent,
    linear_to_etc,
    neg,
    pos,
    verify_trace,
)

# -- complement-free pivots: one round --------------------------------------------

top = Clause(1, [neg("q")])
side1 = Clause(2, [neg("p"), pos("q")])
side2 = Clause(3, [pos("p")])
chain = LinearDeduction(top, (side1, side2), (pos("q"), pos("p")))

print("chain: resolve", top, "with", side1, "on q, then", side2, "on p")
print("final resolvent:", [str(l) for l in linear_resolvent(chain)] or "empty")

rounds = linear_to_etc(chain)
print("realized as", len(rounds), "round(s); separated:",
      [str(l) for l in rounds[-1].csc.literals] or "empty")
s = ClauseSet([top, side1, side2])
print("rounds verified:", bool(verify_trace(s, ProofTrace(tuple(rounds), "unknown"))))
print()

# -- complementary pivots: piecewise ------------------------------------------------

top = Clause(1, [neg("a"), neg("p")])
sides = (Clause(2, [pos("a"), pos("p")]),
         Clause(3, [pos("p"), pos("m")]),
         Clause(4, [neg("p"), pos("w")]))
pivots = (pos("a"), pos("p"), neg("p"))
chain = LinearDeduction(top, sides, pivots)

print("pivots a, p, ~p hold a complementary pair: the boundary line cannot")
print("carry them all at once, so the chain splits at the conflict.")
expected = linear_resolvent(chain)
rounds = linear_to_etc(chain)
for number, record in enumerate(rounds, start=1):
    print(f"  round {number}: clauses {record.clause_ids_used} "
          f"separate {[str(l) for l in record.csc.literals]}")
print("final separation equals the chain's resolvent:",
      set(rounds[-1].csc.literals) == set(expected))
s = ClauseSet([top, *sides])
print("rounds verified:", bool(verify_trace(s, ProofTrace(tuple(rounds), "unknown"))))
