"""Per-layer metrics of a traced run.

Each figure covers the set-up plus one round of the task list.  Counts are
taken from the first round, and every round must repeat them exactly; times
are the median over rounds.  Sweep, iteration and step counts are read from
the ``OptResult.traces`` the optimizers return, since the private helpers
that do that work are not wrapped.
"""

from __future__ import annotations

import statistics

from tracing import TRACED

SETUP_WINDOW = -1


def _trace_steps(results, kinds) -> tuple[int, int]:
    """(steps, restarts stopped by MAX_ITERATIONS) over the results of ``kinds``."""
    from bellkit.optimize import MAX_ITERATIONS
    steps = capped = 0
    for kind, res in results:
        if kind in kinds:
            steps += sum(len(t) - 1 for t in res.traces)
            capped += sum(len(t) == MAX_ITERATIONS + 1 for t in res.traces)
    return steps, capped


def round_figures(tracer, window, tasks, results) -> dict[str, float]:
    kinds_results = [(task.kind, res) for task, res in zip(tasks, results)]
    spans = tracer.self_times(window)
    setup = tracer.self_times(SETUP_WINDOW)
    out: dict[str, float] = {}
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        calls, self_s = spans.get(name, (0, 0.0))
        s_calls, s_self = setup.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls + s_calls
        out[f"{name}.self_s"] = self_s + s_self
    sweeps, capped_v = _trace_steps(kinds_results, ("violation",))
    eigen_iters, capped_e = _trace_steps(kinds_results, ("eigen",))
    mm_steps, _ = _trace_steps(kinds_results, ("search",))
    out["optimize.sweeps"] = sweeps
    out["optimize.capped_restarts"] = capped_v + capped_e
    out["optimize.eigen_iters"] = eigen_iters
    out["optimize.mm_steps"] = mm_steps
    # Per-step cost: the optimizer's own time over the steps it took in the round.
    for metric, fn, count in (("optimize.sweep_s", "max_violation_settings", sweeps),
                              ("optimize.eigen_iter_s", "max_eigen_settings", eigen_iters),
                              ("optimize.mm_step_s", "search_mm_partial", mm_steps)):
        out[metric] = spans.get(f"optimize.{fn}", (0, 0.0))[1] / count if count else 0.0
    out["certify.estimate_E.terms"] = (
        tracer.child_count(window, "certify.estimate_E", "qstate.outcome_distribution")
        + tracer.child_count(SETUP_WINDOW, "certify.estimate_E", "qstate.outcome_distribution"))
    return out


def combine(rounds) -> dict[str, tuple[float, str]]:
    """Counts of the first round (every round must repeat them), median times."""
    first = rounds[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in first:
        if name.endswith("_s"):
            metrics[name] = (statistics.median(r[name] for r in rounds), "s")
        else:
            if any(r[name] != first[name] for r in rounds):
                raise RuntimeError(f"count {name} differs between rounds")
            metrics[name] = (first[name], "count")
    return metrics
