"""The trisep benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload prop-mix --seed 1 --seconds 20 --trace 0

Run it from the repository root. It generates the workload's corpus from the
seed, solves and certifies every problem in closed-loop passes on one thread,
and prints a report line (digest, verdict counts, tail percentile, failed
ratio) and then, as the last line, the result object. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs one untraced and one traced pass and
reports the per-layer metrics. The exit code is 0 only when every problem was
certified and all passes produced the same digest.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    Calls, engine_config, per_problem_medians, run_pass, set_up_repeatedly, tail, traced_pass)
from workloads import WORKLOADS  # noqa: E402


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _check_passes(passes, report):
    """Failed problems across the passes, and every reason the run is not
    correct (failed problems, or passes whose digests differ)."""
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    digests = sorted({p.digest for p in passes})
    report.update(digest=digests[0], verdicts=dict(passes[0].verdicts),
                  failed_ratio=_ratio(len(failures), attempted),
                  max_budget_share=round(max(p.max_budget_share for p in passes), 4))
    faults = list(failures)
    if len(digests) > 1:
        faults.append(f"passes disagree: digests {digests}")
    if faults:
        report["failures"] = faults[:20]
    return attempted, len(failures), faults


def end_to_end(workload, setup, setup_s, seconds, report):
    config = engine_config(setup.trisep, workload)
    calls = Calls.direct(setup.trisep)
    count = max(1, round(seconds / workload.nominal_pass_s))
    passes = [run_pass(setup.problems, calls, config) for _ in range(count)]
    attempted, failed, faults = _check_passes(passes, report)
    solve_s, total_s = per_problem_medians(passes)
    tail_at = tail(solve_s)
    if tail_at is None:
        faults.append(f"{len(solve_s)} solve times leave no tail percentile")
        tail_at = {"value": 0.0}
    p50 = statistics.median(solve_s) if solve_s else 0.0
    report.update(passes=count, pass_wall_s=[round(p.wall_s, 4) for p in passes],
                  solve_s_tail=tail_at, tail_above_median=tail_at["value"] > p50)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "corpus_s": _metric(sum(total_s), "s"),
        "solve_s.p50": _metric(p50, "s"),
        "solve_s.tail": _metric(tail_at["value"], "s"),
        "proof_rounds": _metric(passes[0].proof_rounds, "count"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed, faults


def per_layer(workload, setup, truth_table_s, report):
    trisep = setup.trisep
    config = engine_config(trisep, workload)
    untraced = run_pass(setup.problems, Calls.direct(trisep), config)
    traced, tracer, restored = traced_pass(setup.problems, trisep, config)
    attempted, failed, faults = _check_passes([untraced, traced], report)
    if not restored:
        faults.append("a wrapped name was not restored")
    self_sum = tracer.self_time_sum()
    report.update(tracing_overhead=round(traced.wall_s / untraced.wall_s, 4),
                  traced_wall_s=round(traced.wall_s, 6), self_time_sum_s=round(self_sum, 6),
                  untraced_wall_s=round(untraced.wall_s, 6), absent=tracer.absent,
                  restored=restored, verdicts_by_phase=dict(tracer.verdicts_by_phase),
                  spans=tracer.table())

    counts, calls_of, total = tracer.counts, tracer.calls, tracer.total
    builds = calls_of("engine.build")
    mgu_calls = calls_of("unify.mgu")
    metrics = {
        "engine.prove_s": _metric(total("engine.prove"), "s"),
        "engine.build.calls": _metric(builds, "count"),
        "engine.build_s": _metric(total("engine.build"), "s"),
        "engine.extensions_s": _metric(total("engine.extensions"), "s"),
        "engine.best_closure_s": _metric(total("engine.best_closure"), "s"),
        "engine.candidates_scored": _metric(counts["engine.candidates_scored"], "count"),
        "engine.rounds_kept": _metric(counts["engine.rounds_kept"], "count"),
        "engine.restarts": _metric(counts["engine.restarts"], "count"),
        "engine.kept_ratio": _metric(_ratio(counts["engine.rounds_kept"], builds), "ratio"),
        "engine.fallback.calls": _metric(calls_of("engine.fallback"), "count"),
        "engine.fallback_s": _metric(total("engine.fallback"), "s"),
        "engine.fallback.rounds_recorded": _metric(
            counts["engine.fallback.rounds_recorded"], "count"),
    }
    for phase in ("rounds", "model", "fallback", "gaveup"):
        metrics[f"engine.verdict.{phase}"] = _metric(counts[f"engine.verdict.{phase}"], "count")
    metrics.update({
        "triangle.construct.calls": _metric(calls_of("triangle.construct"), "count"),
        "triangle.construct_s": _metric(total("triangle.construct"), "s"),
        "triangle.extract_model.calls": _metric(calls_of("triangle.extract_model"), "count"),
        "triangle.extract_model.hits": _metric(counts["triangle.extract_model.hits"], "count"),
    })
    for step in ("start", "extend", "close", "prune", "should_stop"):
        metrics[f"triangle.{step}_s"] = _metric(total(f"triangle.{step}"), "s")
    for step in ("start", "extend", "close", "greedy_pull", "fall_in", "preprocess"):
        metrics[f"fol.{step}_s"] = _metric(total(f"fol.{step}"), "s")
    metrics.update({
        "fol.redundancy_guard.calls": _metric(calls_of("fol.redundancy_guard"), "count"),
        "fol.redundancy_guard.rejects": _metric(counts["fol.redundancy_guard.rejects"], "count"),
        "unify.mgu.calls": _metric(mgu_calls, "count"),
        "unify.mgu.hit_ratio": _metric(_ratio(counts["unify.mgu.hits"], mgu_calls), "ratio"),
        "unify.mgu_s": _metric(total("unify.mgu"), "s"),
        "unify.rename_clause.calls": _metric(counts["unify.rename_clause"], "count"),
        "unify.apply_literals.calls": _metric(counts["unify.apply_literals"], "count"),
        "oracle.contradiction.calls": _metric(calls_of("oracle.contradiction"), "count"),
        "oracle.contradiction_s": _metric(total("oracle.contradiction"), "s"),
        "oracle.verify_model_s": _metric(total("oracle.verify_model"), "s"),
        "oracle.truth_table_s": _metric(truth_table_s, "s"),
        "verify.trace_s": _metric(total("verify.trace"), "s"),
        "render.render_s": _metric(total("render.render"), "s"),
        "render.parse_s": _metric(total("render.parse"), "s"),
        "render.bytes": _metric(traced.render_bytes, "bytes"),
        "frontend.parse_s": _metric(total("frontend.parse"), "s"),
        "tracing.overhead": _metric(traced.wall_s / untraced.wall_s, "ratio"),
    })
    return metrics, attempted, failed, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trisep" / "__init__.py").is_file():
        print(f"error: no trisep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup, setup_s, truth_table_s = set_up_repeatedly(workload, args.seed, SRC)
    report = {"workload": workload.name, "seed": args.seed, "problems": len(setup.problems)}
    if args.trace:
        metrics, attempted, failed, faults = per_layer(workload, setup, truth_table_s, report)
    else:
        metrics, attempted, failed, faults = end_to_end(
            workload, setup, setup_s, args.seconds, report)
    print(json.dumps({"report": report}, sort_keys=True))
    for fault in faults:
        print(f"FAILED {fault}", file=sys.stderr)
    print(json.dumps({"correct": not faults, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
