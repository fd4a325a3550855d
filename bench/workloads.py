"""Seeded problem generators for the three benchmark workloads.

Every generator takes a `random.Random` and returns `Problem`s whose `text` is
DIMACS or TPTP-CNF: the prover only ever sees that text. The expected verdict
comes from an oracle that shares no code with the prover (the truth table for
prop-mix, the small DPLL below for resolution-3sat) or from the construction
(every fol-chain problem is unsatisfiable). See README.md for why each
workload was chosen.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

# prop-mix: the distribution of acceptance criterion 9.
PROP_MIX_PROBLEMS = 1500
PROP_MIX_VARS = (4, 10)
PROP_MIX_CLAUSES = (4, 14)
PROP_MIX_WIDTH = (1, 3)

# resolution-3sat: uniform random 3-SAT at the hardness peak. The corpus keeps
# the first SAT3_PER_VERDICT satisfiable and unsatisfiable instances among
# SAT3_CANDIDATES draws (more are drawn only if one kind is short, which is
# rare). The equal split keeps the number of refutations the same for every
# seed, which steadies corpus_s and proof_rounds; classifying a fixed number of
# draws keeps set-up work the same.
SAT3_VARS = 14
SAT3_RATIO = 4.26
SAT3_PER_VERDICT = 75
SAT3_CANDIDATES = 350

# fol-chain: P(a), ~P(X) | P(f(X)), ~P(f^k(a)) for each k, in every clause
# order. The order alone moves a chain's time by up to ~25%, so a corpus that
# sampled one order per chain would differ from seed to seed by that much.
FOL_CHAIN_LENGTHS = range(3, 10)


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    unsatisfiable: Optional[bool]  # None: the oracle is run in set-up


def _signed(rng: random.Random, var: int) -> int:
    return var if rng.random() < 0.5 else -var


def _dimacs(num_vars: int, clauses: List[List[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def prop_mix(rng: random.Random) -> List[Problem]:
    problems = []
    for i in range(PROP_MIX_PROBLEMS):
        num_vars = rng.randint(*PROP_MIX_VARS)
        clauses = []
        for _ in range(rng.randint(*PROP_MIX_CLAUSES)):
            width = min(rng.randint(*PROP_MIX_WIDTH), num_vars)
            clauses.append([_signed(rng, v) for v in rng.sample(range(1, num_vars + 1), width)])
        problems.append(Problem(f"prop-mix/{i:04d}", _dimacs(num_vars, clauses), None))
    return problems


def dpll_satisfiable(clauses: List[List[int]]) -> bool:
    """Plain DPLL with unit propagation over integer clauses."""
    def assign(clauses, lit):
        out = []
        for clause in clauses:
            if lit in clause:
                continue
            if -lit in clause:
                clause = [l for l in clause if l != -lit]
                if not clause:
                    return None
            out.append(clause)
        return out

    def search(clauses):
        while True:
            if not clauses:
                return True
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = assign(clauses, unit)
            if clauses is None:
                return False
        lit = clauses[0][0]
        for choice in (lit, -lit):
            reduced = assign(clauses, choice)
            if reduced is not None and search(reduced):
                return True
        return False

    return search([list(c) for c in clauses])


def resolution_3sat(rng: random.Random) -> List[Problem]:
    num_clauses = round(SAT3_RATIO * SAT3_VARS)
    kept = {True: [], False: []}
    drawn = 0
    while drawn < SAT3_CANDIDATES or min(map(len, kept.values())) < SAT3_PER_VERDICT:
        clauses = [[_signed(rng, v) for v in rng.sample(range(1, SAT3_VARS + 1), 3)]
                   for _ in range(num_clauses)]
        unsat = not dpll_satisfiable(clauses)
        drawn += 1
        if len(kept[unsat]) < SAT3_PER_VERDICT:
            kept[unsat].append((drawn, clauses))
    picked = sorted((drawn, unsat, clauses) for unsat in kept for drawn, clauses in kept[unsat])
    return [Problem(f"resolution-3sat/{i:03d}", _dimacs(SAT3_VARS, clauses), unsat)
            for i, (_, unsat, clauses) in enumerate(picked)]


# The worked first-order examples of the paper (section 5), as TPTP.
PAPER_PROBLEMS = {
    "paper-5.1": """\
cnf(c1, axiom, (~p1(X11) | p2(X11))).
cnf(c2, axiom, (~p1(X21) | p3(X21))).
cnf(c3, axiom, (~p3(X31) | p4(X31) | p5(X31))).
cnf(c4, axiom, (~p4(X41) | p3(f(X41)))).
cnf(c5, axiom, p1(X51)).
cnf(c6, axiom, ~p5(X61)).
cnf(c7, axiom, ~p3(f(X71))).
""",
    "paper-5.2": """\
cnf(c1, axiom, p1(a)).
cnf(c2, axiom, ~p2(a, b)).
cnf(c3, axiom, p3(a, f(c), f(b))).
cnf(c4, axiom, p3(X1, X1, f(X1))).
cnf(c5, axiom, (~p3(X2, X3, X4) | p3(X3, X2, X4))).
cnf(c6, axiom, (~p3(X5, X6, X7) | p2(X5, X7))).
cnf(c7, axiom, (~p1(X8) | ~p3(X9, X10, X11) | ~p2(X8, X11) | p2(X8, X9) | p2(X8, X10))).
""",
    "paper-5.3": """\
cnf(c1, axiom, (~p1(X11, X12, X13) | ~p2(X11, X13))).
cnf(c2, axiom, (p1(X22, X21, X23) | ~p1(X21, X22, X23))).
cnf(c3, axiom, (p2(X31, X34) | ~p3(X31) | ~p1(X32, X33, X34) | ~p2(X31, X32) | ~p2(X31, X33))).
cnf(c4, axiom, p1(X41, X41, f1(X41))).
cnf(c5, axiom, p1(a1, f1(a1), f1(a3))).
cnf(c6, axiom, p3(a1)).
cnf(c7, axiom, p2(a1, a3)).
""",
}


def _chain(rng: random.Random, k: int, order) -> str:
    predicate, constant, function = (f"{stem}{rng.randrange(100)}"
                                     for stem in rng.sample(["p", "q", "r", "s", "t"], 3))
    var = rng.choice("XYZUVW") + str(rng.randrange(10))
    goal = constant
    for _ in range(k):
        goal = f"{function}({goal})"
    bodies = [f"{predicate}({constant})",
              f"(~{predicate}({var}) | {predicate}({function}({var})))",
              f"~{predicate}({goal})"]
    return "".join(f"cnf(c{i}, axiom, {bodies[j]}).\n" for i, j in enumerate(order, 1))


def fol_chain(rng: random.Random) -> List[Problem]:
    orders = list(itertools.permutations(range(3)))
    rng.shuffle(orders)
    problems = [Problem(f"fol-chain/k{k:02d}-{''.join(map(str, order))}",
                        _chain(rng, k, order), True)
                for k in FOL_CHAIN_LENGTHS for order in orders]
    problems.extend(Problem(f"fol-chain/{name}", text, True)
                    for name, text in PAPER_PROBLEMS.items())
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], List[Problem]]
    max_rounds: int        # EngineConfig.max_rounds; the CLI default is 40
    nominal_pass_s: float  # baseline time of one pass; sets the pass count


WORKLOADS = {
    "prop-mix": Workload("prop-mix", prop_mix, 40, 22.0),
    "resolution-3sat": Workload("resolution-3sat", resolution_3sat, 0, 20.0),
    "fol-chain": Workload("fol-chain", fol_chain, 40, 9.5),
}
