"""The benchmark's own tests: `python3 -m pytest bench` from the repository root.

They run small slices of each corpus, so they take seconds; the repository's
own suite under tests/ does not collect them.
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import trisep  # noqa: E402
from harness import (  # noqa: E402
    Calls, engine_config, run_pass, tail, traced_pass, with_truth_tables)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, dpll_satisfiable  # noqa: E402

SLICES = {"prop-mix": slice(0, 40), "resolution-3sat": slice(0, 4),
          "fol-chain": slice(0, 12)}


def _slice(name, seed):
    problems = WORKLOADS[name].generate(random.Random(seed))
    picked = problems[SLICES[name]]
    if name == "fol-chain":
        picked += problems[-3:]  # the paper's problems
    return with_truth_tables(picked, trisep)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = WORKLOADS[name].generate
    assert generate(random.Random(5)) == generate(random.Random(5))
    assert generate(random.Random(5)) != generate(random.Random(6))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_text_reloads_to_the_same_clauses(name):
    for problem in WORKLOADS[name].generate(random.Random(3)):
        source = trisep.load_problem(problem.text)
        render = trisep.render_dimacs if source.format == "dimacs" else trisep.render_tptp
        again = trisep.load_problem(render(source.clauses)).clauses
        assert [(c.id, c.literals) for c in again] == \
            [(c.id, c.literals) for c in source.clauses]
        statements = (problem.text.count(" 0\n") if source.format == "dimacs"
                      else problem.text.count("cnf("))
        assert len(source.clauses) == statements


def test_dpll_agrees_with_the_truth_table():
    rng = random.Random(11)
    for _ in range(200):
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), 3)]
                   for _ in range(rng.randint(1, 30))]
        text = "p cnf 6 %d\n" % len(clauses) + "".join(
            " ".join(map(str, c)) + " 0\n" for c in clauses)
        unsat = trisep.is_unsatisfiable_bruteforce(trisep.load_problem(text).clauses)
        assert dpll_satisfiable(clauses) == (not unsat)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_passes_agree(name):
    problems = _slice(name, 2)
    config = engine_config(trisep, WORKLOADS[name])
    untraced = run_pass(problems, Calls.direct(trisep), config)
    traced, tracer, restored = traced_pass(problems, trisep, config)
    assert untraced.failures == [] and traced.failures == []
    assert traced.digest == untraced.digest
    assert restored and tracer.absent == []
    assert tracer.self_time_sum() == pytest.approx(tracer.total("bench.pass"), rel=1e-9)
    assert tracer.total("bench.pass") <= traced.wall_s * 1.01 + 1e-3
    if name == "fol-chain":
        assert tracer.calls("unify.mgu") > 0
    else:
        assert tracer.calls("unify.mgu") == 0


def test_a_removed_name_is_reported_absent_and_everything_is_restored(monkeypatch):
    import tracing
    monkeypatch.setattr(tracing, "TIMED", tracing.TIMED + [
        ("trisep.engine", "no_such_phase", "engine.gone"),
        ("trisep.no_such_module", "anything", "gone.module"),
        ("*", "no_such_function", "gone.anywhere")])
    original_init = trisep.triangle.Triangle.__init__
    original_mgu = trisep.fol.mgu
    tracer = Tracer()
    tracer.install()
    assert trisep.fol.mgu is not original_mgu
    assert tracer.restore()
    assert trisep.triangle.Triangle.__init__ is original_init
    assert trisep.fol.mgu is original_mgu
    assert tracer.absent == ["trisep.engine:no_such_phase", "trisep.no_such_module:anything",
                             "*:no_such_function"]


def test_tail_needs_ten_samples_beyond_it():
    assert tail([float(i) for i in range(39)]) is None
    assert tail([float(i) for i in range(40)])["percentile"] == 75.0
    high = tail([float(i) for i in range(1000)])
    assert (high["percentile"], high["beyond"]) == (99.0, 10)
