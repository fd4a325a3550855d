"""First-order construction with unification doing the pulling.

The seven-clause set below needs substitutions to expose its contradiction.
Watch two things: a unifier found while adding a later clause may instantiate
an earlier column (the state re-derives itself under the composed
substitution), and literals that become syntactically equal after
substitution merge into one.
"""

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    Function,
    Variable,
    close,
    extend,
    greedy_pull,
    neg,
    pos,
    prove,
    render_trace,
    shadow_contradiction_check,
    start,
    verify_trace,
)


def f(t):
    return Function("f", (t,))


a, b, c = Constant("a"), Constant("b"), Constant("c")
x = {i: Variable(f"x{i}") for i in range(1, 12)}

s = ClauseSet([
    Clause(1, [pos("P1", a)]),
    Clause(2, [neg("P2", a, b)]),
    Clause(3, [pos("P3", a, f(c), f(b))]),
    Clause(4, [pos("P3", x[1], x[1], f(x[1]))]),
    Clause(5, [neg("P3", x[2], x[3], x[4]), pos("P3", x[3], x[2], x[4])]),
    Clause(6, [neg("P3", x[5], x[6], x[7]), pos("P2", x[5], x[7])]),
    Clause(7, [neg("P1", x[8]), neg("P3", x[9], x[10], x[11]),
               neg("P2", x[8], x[11]), pos("P2", x[8], x[9]), pos("P2", x[8], x[10])]),
])
print("clause set:")
for clause in s.clauses:
    print(f"  {clause.id}: {clause}")
print()

# -- scripted construction -----------------------------------------------------
# the four units anchor the boundary; clause 6 joins with a searched unifier;
# clause 7 closes with every literal pulled inside, two of them merging.
# greedy_pull searches each column's unifier; extend and close compose it
# into the state's substitution

state = start(s.by_id(1), pos("P1", a))
for clause_id, boundary in [(2, neg("P2", a, b)), (3, pos("P3", a, f(c), f(b))),
                            (4, pos("P3", x[1], x[1], f(x[1]))),
                            (6, pos("P2", x[5], x[7]))]:
    clause = s.by_id(clause_id)
    state = extend(state, clause, boundary,
                   greedy_pull(state, clause.literals, boundary))
last = s.by_id(7)
state = close(state, last, greedy_pull(state, last.literals))

for i in range(len(state.columns)):
    sigma = state.column_sigma(i)
    print(f"column {i + 1} (clause {state.columns[i].clause_id}): sigma {sigma}")
    print(f"   inside   {[str(l) for l in state.d_minus(i)]}")
    print(f"   leftover {[str(l) for l in state.d_plus(i)]}")
print("separated clause:", [str(l) for l in state.csc] or "empty -> refuted")
print()
print("note: closing clause 7 bound x1 := b, rewriting column 4 after the fact,")
print("and its two instances of P2(a,b) merged into one inside literal.")
print()

columns = [Clause(i + 1, state.d_minus(i)) for i in range(len(state.columns))]
print("oracle (grounded + shadowed) confirms the contradiction:",
      shadow_contradiction_check(columns))
print()

# -- unscripted ------------------------------------------------------------------

outcome, trace = prove(s)
used = sorted({cid for r in trace.rounds for cid in r.clause_ids_used})
print("engine verdict:", outcome.verdict, "in", len(trace.rounds), "round(s),",
      "clauses used:", used, "(clause 5 is redundant and stays out)")
print("trace verified:", bool(verify_trace(s, trace)))
print()
print(render_trace(trace, problem="first-order walkthrough", verified=True))
