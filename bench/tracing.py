"""Spans around the calls one trisep layer makes into the next.

The tracer replaces module-level names (and a few class attributes) with
wrappers for the duration of a traced pass, then restores the originals.
Spans are aggregated in memory as they close: per name, the number of calls,
the inclusive time and the self time (inclusive time minus the time covered
by child spans). Keeping every span record would hold millions of entries on
prop-mix. Counters ride on the same wrappers, so ratios are measured where
the work happens.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name). A "*" module means every loaded trisep
# module that binds the attribute to the same function, so calls are caught
# whichever layer makes them.
TIMED = [
    ("trisep.engine", "_RoundBuilder.build", "engine.build"),
    ("trisep.engine", "_RoundBuilder._extensions", "engine.extensions"),
    ("trisep.engine", "_RoundBuilder._best_closure", "engine.best_closure"),
    ("trisep.engine", "_saturate", "engine.fallback"),
    ("trisep.engine", "extract_model", "triangle.extract_model"),
    ("trisep.triangle", "Triangle.__init__", "triangle.construct"),
    ("trisep.engine", "start", "triangle.start"),
    ("trisep.engine", "extend", "triangle.extend"),
    ("trisep.engine", "close", "triangle.close"),
    ("trisep.engine", "prune_redundant_columns", "triangle.prune"),
    ("trisep.engine", "should_stop", "triangle.should_stop"),
    ("trisep.engine", "start_fol", "fol.start"),
    ("trisep.engine", "extend_fol", "fol.extend"),
    ("trisep.engine", "close_fol", "fol.close"),
    ("*", "greedy_pull", "fol.greedy_pull"),
    ("trisep.engine", "fall_in", "fol.fall_in"),
    ("trisep.engine", "preprocess", "fol.preprocess"),
    ("trisep.engine", "redundancy_guard", "fol.redundancy_guard"),
    ("*", "mgu", "unify.mgu"),
    ("trisep.engine", "is_standard_contradiction", "oracle.contradiction"),
    ("trisep.engine", "shadow_contradiction_check", "oracle.contradiction"),
    ("trisep.engine", "verify_model", "oracle.verify_model"),
]

# Called too often to time without distorting the layers above them.
COUNTED = [
    ("*", "rename_clause", "unify.rename_clause"),
    ("*", "apply_literals", "unify.apply_literals"),
    ("trisep.engine", "RoundRecord", "engine.round_record"),
]

# span name -> (counter, what each result adds to it)
RESULT_COUNTERS = {
    "engine.extensions": ("engine.candidates_scored", len),
    "triangle.extract_model": ("triangle.extract_model.hits", lambda r: r is not None),
    "fol.redundancy_guard": ("fol.redundancy_guard.rejects", lambda r: not r),
    "unify.mgu": ("unify.mgu.hits", lambda r: r is not None),
}

UNSATISFIABLE, SATISFIABLE = "unsatisfiable", "satisfiable"


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _bindings(module_name: str, path: str) -> List[Tuple[object, str, object]]:
    """(owner, attribute, original) for each place the name is bound; empty
    when a refactor removed it."""
    if module_name != "*":
        try:
            return [_resolve(importlib.import_module(module_name), path)]
        except (ImportError, AttributeError):
            return []
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("trisep.")]
    defined = [getattr(m, path) for m in modules
               if getattr(getattr(m, path, None), "__module__", None) == m.__name__]
    if not defined:
        return []
    return [(m, path, defined[0]) for m in modules if getattr(m, path, None) is defined[0]]


class Tracer:
    def __init__(self):
        self.stack: List[list] = []                 # open spans: [child time]
        self.spans: Dict[str, list] = {}            # name -> [calls, total, self]
        self.counts: Counter = Counter()
        self.verdicts_by_phase: Counter = Counter()  # "phase.verdict" -> problems
        self.absent: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._in_fallback = 0
        self._prove_state: Optional[Counter] = None

    # -- span recording ------------------------------------------------------

    def timed(self, name: str, fn: Callable):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        counts = self.counts
        counter, measure = RESULT_COUNTERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                counts[counter] += measure(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fallback(self, fn: Callable):
        timed = self.timed("engine.fallback", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["engine.round_record"]
            self._in_fallback += 1
            try:
                result = timed(*args, **kwargs)
            finally:
                self._in_fallback -= 1
            made = counts["engine.round_record"] - before
            # an unsatisfiable result renumbers its ancestor chain into fresh records
            counts["engine.fallback.rounds_recorded"] += made - len(result[1])
            if self._prove_state is not None and result[0] in (UNSATISFIABLE, SATISFIABLE):
                self._prove_state["decided"] += 1
            return result

        return wrapper

    def _round_record(self, fn: Callable):
        counted = self.counted("engine.round_record", fn)

        def wrapper(*args, **kwargs):
            if not self._in_fallback and self._prove_state is not None:
                self._prove_state["kept"] += 1
            return counted(*args, **kwargs)

        return wrapper

    def prove(self, fn: Callable):
        """Wrap the engine's entry point: classify which phase decided each
        verdict and derive restarts from builds and kept rounds."""
        timed = self.timed("engine.prove", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            self._prove_state = state = Counter()
            builds_before = self.spans.get("engine.build", [0])[0]
            try:
                outcome, trace = timed(*args, **kwargs)
            finally:
                self._prove_state = None
            builds = self.spans.get("engine.build", [0])[0] - builds_before
            if outcome.verdict not in (UNSATISFIABLE, SATISFIABLE):
                phase = "gaveup"
            elif state["decided"]:
                phase = "fallback"
            elif outcome.verdict == SATISFIABLE:
                phase = "model"
            else:
                phase = "rounds"
            counts[f"engine.verdict.{phase}"] += 1
            self.verdicts_by_phase[f"{phase}.{outcome.verdict}"] += 1
            counts["engine.rounds_kept"] += state["kept"]
            counts["engine.restarts"] += builds - state["kept"] - (phase == "model")
            return outcome, trace

        return wrapper

    # -- installing and restoring ------------------------------------------------

    def install(self) -> None:
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for module_name, path, name in table:
                bindings = _bindings(module_name, path)
                if not bindings:
                    self.absent.append(f"{module_name}:{path}")
                    continue
                for owner, attr, original in bindings:
                    if name == "engine.fallback":
                        wrapper = self._fallback(original)
                    elif name == "engine.round_record":
                        wrapper = self._round_record(original)
                    elif timed:
                        wrapper = self.timed(name, original)
                    else:
                        wrapper = self.counted(name, original)
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each name holds its original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(getattr(owner, attr) is original
                       for owner, attr, original in self._patched)
        self._patched = []
        return restored

    # -- reporting -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time_sum(self) -> float:
        return sum(stats[2] for stats in self.spans.values())

    def table(self) -> Dict[str, dict]:
        return {name: {"calls": c, "total_s": round(t, 6), "self_s": round(s, 6)}
                for name, (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][2])}
