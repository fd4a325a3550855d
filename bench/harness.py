"""Set-up, corpus passes and certification for one workload.

A pass is a closed loop over the corpus: each problem is parsed and proved,
then certified before the next one starts. Certification checks the verdict
against the oracle verdict recorded in set-up, checks a model with
`verify_model`, and checks the trace with `verify_trace` both as produced and
after `render_trace` -> `parse_trace_document`.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracing import Tracer
from workloads import Problem, Workload

# Far above every problem's time. prove gives its main loop half of the budget
# as a wall-clock deadline; a problem whose prove runs that long counts as failed.
TIME_BUDGET_S = 60.0
SETUP_REPEATS = 3
TAIL_PERMILLES = (999, 990, 950, 900, 750)  # p99.9, p99, p95, p90, p75
TAIL_MIN_BEYOND = 10


def import_trisep(src: Path):
    """Import the prover afresh from the checkout's own sources."""
    for name in [n for n in sys.modules if n == "trisep" or n.startswith("trisep.")]:
        del sys.modules[name]
    trisep = importlib.import_module("trisep")
    if Path(trisep.__file__).resolve().parent != (src / "trisep").resolve():
        raise ImportError(f"trisep was imported from {trisep.__file__}, not from {src}")
    return trisep


@dataclass
class Setup:
    trisep: object
    problems: List[Problem]
    seconds: float
    truth_table_s: float


def with_truth_tables(problems: List[Problem], trisep) -> List[Problem]:
    """Fill in each missing expected verdict from the truth-table oracle."""
    return [p if p.unsatisfiable is not None else replace(
        p, unsatisfiable=trisep.is_unsatisfiable_bruteforce(trisep.load_problem(p.text).clauses))
        for p in problems]


def set_up(workload: Workload, seed: int, src: Path) -> Setup:
    started = time.perf_counter()
    trisep = import_trisep(src)
    problems = workload.generate(random.Random(seed))
    tables_started = time.perf_counter()
    problems = with_truth_tables(problems, trisep)
    ended = time.perf_counter()
    return Setup(trisep, problems, ended - started, ended - tables_started)


def set_up_repeatedly(workload: Workload, seed: int, src: Path):
    """Set up several times; returns the last set-up and the median times."""
    runs = [set_up(workload, seed, src) for _ in range(SETUP_REPEATS)]
    if any(run.problems != runs[0].problems for run in runs):
        raise RuntimeError(f"{workload.name}: the generator is not deterministic")
    return (runs[-1], statistics.median(r.seconds for r in runs),
            statistics.median(r.truth_table_s for r in runs))


@dataclass
class Calls:
    """The prover entry points a pass calls; the traced run swaps in wrappers."""
    load_problem: Callable
    prove: Callable
    verify_trace: Callable
    verify_model: Callable
    render_trace: Callable
    parse_trace_document: Callable

    @classmethod
    def direct(cls, trisep) -> "Calls":
        return cls(trisep.load_problem, trisep.prove, trisep.verify_trace,
                   trisep.verify_model, trisep.render_trace, trisep.parse_trace_document)


@dataclass
class PassResult:
    attempted: int = 0
    wall_s: float = 0.0
    # problem name -> (load_problem + prove seconds, seconds including certification)
    times: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    verdicts: Counter = field(default_factory=Counter)
    proof_rounds: int = 0
    render_bytes: int = 0
    max_budget_share: float = 0.0
    failures: List[str] = field(default_factory=list)
    digest: str = ""


def _certify(problem: Problem, calls: Calls, clauses, outcome, trace) -> List[str]:
    faults = []
    verdict = outcome.verdict
    if verdict not in ("unsatisfiable", "satisfiable"):
        faults.append(f"gave up: {outcome.reason}")
    elif problem.unsatisfiable != (verdict == "unsatisfiable"):
        faults.append(f"verdict {verdict} disagrees with the oracle")
    if trace.verdict != verdict:
        faults.append(f"trace verdict {trace.verdict} differs from {verdict}")
    if verdict == "satisfiable" and not calls.verify_model(clauses, outcome.model):
        faults.append("model does not satisfy the input")
    checked = calls.verify_trace(clauses, trace)
    if not checked:
        faults.append(f"trace rejected: {checked.diagnostic}")
    return faults


def run_pass(problems: List[Problem], calls: Calls, config) -> PassResult:
    result = PassResult()
    digest = hashlib.sha256()
    clock = time.perf_counter
    started = clock()
    for problem in problems:
        result.attempted += 1
        try:
            solve_started = clock()
            clauses = calls.load_problem(problem.text).clauses
            prove_started = clock()
            outcome, trace = calls.prove(clauses, config)
            solved = clock()
            failures = _certify(problem, calls, clauses, outcome, trace)
            document = calls.render_trace(trace, problem=problem.name, verified=not failures)
            reparsed = calls.verify_trace(clauses, calls.parse_trace_document(document))
            if not reparsed:
                failures.append(f"reparsed trace rejected: {reparsed.diagnostic}")
        except Exception as exc:  # a crash is a failed problem, not a dead run
            result.failures.append(f"{problem.name}: raised {exc!r}")
            continue
        share = (solved - prove_started) / config.time_budget
        if share >= 0.5:
            failures.append(f"prove used {share:.0%} of its time budget")
        result.times[problem.name] = (solved - solve_started, clock() - solve_started)
        result.verdicts[outcome.verdict] += 1
        result.proof_rounds += len(trace.rounds)
        result.render_bytes += len(document.encode())
        result.max_budget_share = max(result.max_budget_share, share)
        if failures:
            result.failures.append(f"{problem.name}: " + "; ".join(failures))
        digest.update(f"{problem.name}\0{outcome.verdict}\0".encode())
        digest.update(document.encode())
    result.wall_s = clock() - started
    result.digest = digest.hexdigest()
    return result


def traced_pass(problems: List[Problem], trisep, config):
    """One pass with every layer boundary wrapped; returns the pass, the
    tracer and whether every wrapped name was restored afterwards."""
    tracer = Tracer()
    calls = Calls.direct(trisep)
    calls.load_problem = tracer.timed("frontend.parse", calls.load_problem)
    calls.prove = tracer.prove(calls.prove)
    calls.verify_trace = tracer.timed("verify.trace", calls.verify_trace)
    calls.verify_model = tracer.timed("oracle.verify_model", calls.verify_model)
    calls.render_trace = tracer.timed("render.render", calls.render_trace)
    calls.parse_trace_document = tracer.timed("render.parse", calls.parse_trace_document)
    root = tracer.timed("bench.pass", run_pass)
    tracer.install()
    try:
        result = root(problems, calls, config)
    finally:
        restored = tracer.restore()
    return result, tracer, restored


def per_problem_medians(passes: List[PassResult]):
    """Each problem's median solve time and median solve-and-certify time
    over the passes, for the problems every pass completed."""
    names = [n for n in passes[0].times if all(n in p.times for p in passes)]
    solve = [statistics.median(p.times[n][0] for p in passes) for n in names]
    total = [statistics.median(p.times[n][1] for p in passes) for n in names]
    return solve, total


def tail(samples: List[float]) -> Optional[dict]:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for permille in TAIL_PERMILLES:
        rank = -(-permille * n // 1000)  # nearest rank, 1-based
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": permille / 10, "samples": n, "beyond": n - rank,
                    "value": ordered[rank - 1]}
    return None


def engine_config(trisep, workload: Workload):
    """CLI defaults except the time budget (and max_rounds where the workload
    sets it, as `--max-rounds` would)."""
    return trisep.EngineConfig(max_rounds=workload.max_rounds, time_budget=TIME_BUDGET_S)
