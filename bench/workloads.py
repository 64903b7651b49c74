"""The three benchmark workloads: seeded inputs, the timed bellkit calls, and
the checks each result must pass.

A workload is a fixed list of 40 tasks.  Each task makes one timed call into
bellkit's public API; its check compares the result with :mod:`oracles` or
with a property the paper proves.  bellkit functions are looked up on their
module at call time, so the wrappers of a traced run see every call.

Inputs whose cost is a property of the input itself use fixed values, so
that every seed does the same amount of work:

* optimizer start seeds in ``settings-ascent`` are the task's slot number
  (at n=4 a single start lands on a local maximum 2v about one time in four,
  and near-GHZ n=4 ascents take 4 to 111 sweeps depending on the start);
* the two generic n=3 states come from a fixed catalogue: how many sweeps
  an ascent takes depends on the state, from 28 to the 500-sweep cap;
* ``search_mm_partial`` seeds are fixed: step counts vary from about 20 to
  the 500-step cap between seeds, so ``symmetric-search`` is the same for
  every seed.

Everything else (state perturbations, Werner weights, shot and sampling
seeds, measured subsets) is drawn from the run's seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

TASKS_PER_ROUND = 40
TAIL_RANK = 10              # task_tail_s leaves this many tasks above it

VALUE_ATOL = 1e-9           # recomputed <B_n> against the returned optimum
MAX_ATOL = 1e-7             # known maxima (Werner-GHZ, worked example)
EIGEN_ATOL = 1e-6           # max_eigen_settings against 2^((n+1)/2)
RESIDUAL_ATOL = 1e-10       # recomputed partial-spectrum residual
SOLVED_RESIDUAL = 1e-9      # n=3, 4 searches end below this
FLOOR_RESIDUAL = 1e-3       # n=5 searches end above this
POST_STATE_ATOL = 1e-10
PROBABILITY_ATOL = 1e-12
SHOTS = 2000                # per correlator term
SIGMAS = 4.0                # certification margin, in standard errors
WITHIN_SHARE = 0.95         # share of estimates within SIGMAS of exact E
DRAWS = 100                 # measure_sample calls per sampling task
GENERIC_CATALOGUE = (7, (2, 3))   # (rng seed, which draws): 500 and ~140 sweeps


@dataclass
class Task:
    label: str
    kind: str                           # which bellkit entry point it times
    run: Callable[[], object]
    check: Callable[[object], list]     # problems found; empty when correct
    fault: Callable[[object], bool] = field(default=lambda result: False)


@dataclass
class Workload:
    tasks: list
    round_check: Callable[[list], list] = field(default=lambda results: [])


# --- settings-ascent --------------------------------------------------------


def _check_optimum(state_arr, n, known_max=None, window=None):
    def check(res):
        problems = []
        vectors = res.best_settings.vectors
        again = oracles.expectation(state_arr, vectors)
        if abs(again - res.best_value) > VALUE_ATOL:
            problems.append(f"<B_{n}> recomputes to {again!r}, optimizer says {res.best_value!r}")
        if res.best_value > oracles.quantum_max(n) + VALUE_ATOL:
            problems.append(f"<B_{n}> = {res.best_value!r} exceeds 2^((n+1)/2)")
        if known_max is not None and abs(res.best_value - known_max) > MAX_ATOL:
            problems.append(f"maximum {res.best_value!r}, expected {known_max!r}")
        if window is not None:
            lo, hi, depth = window
            if not lo < res.best_value <= hi + VALUE_ATOL:
                problems.append(f"maximum {res.best_value!r} outside ({lo}, {hi}]")
            if oracles.ladder_depth(res.best_value, n) != depth:
                problems.append(f"maximum {res.best_value!r} does not certify depth {depth}")
        return problems
    return check


def _check_eigen(n):
    def check(res):
        problems = []
        lam = float(np.linalg.eigvalsh(oracles.bell_operator(res.best_settings.vectors))[-1])
        if abs(lam - res.best_value) > VALUE_ATOL:
            problems.append(f"largest eigenvalue recomputes to {lam!r}, optimizer says {res.best_value!r}")
        if abs(res.best_value - oracles.quantum_max(n)) > EIGEN_ATOL:
            problems.append(f"largest eigenvalue {res.best_value!r} short of 2^((n+1)/2)")
        return problems
    return check


def rho3_matrix() -> np.ndarray:
    """(P_singlet (x) P_up + P_up (x) P_singlet) / 2, the worked 3-qubit mixture."""
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    p_s = np.outer(singlet, singlet)
    p_up = np.diag([1.0, 0.0]).astype(complex)
    return 0.5 * (np.kron(p_s, p_up) + np.kron(p_up, p_s))


def generic_states() -> list[np.ndarray]:
    seed, picks = GENERIC_CATALOGUE
    rng = np.random.default_rng(seed)
    draws = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(max(picks) + 1)]
    return [draws[i] / np.linalg.norm(draws[i]) for i in picks]


def settings_ascent(seed: int) -> Workload:
    from bellkit import optimize
    from bellkit.qstate import DensityMatrix, PureState

    rng = np.random.default_rng(seed)
    tasks: list[Task] = []

    def violation(label, state_obj, state_arr, n, restarts=1, **expect):
        slot = len(tasks)
        tasks.append(Task(
            label, "violation",
            lambda: optimize.max_violation_settings(state_obj, restarts=restarts, seed=slot),
            _check_optimum(state_arr, n, **expect)))

    # The warm-up task of the set-up is the first one: keep it cheap.  By
    # time, the eight near-GHZ n=5 ascents take the middle ranks and the five
    # n=6 ones ranks 8-12 from the top, so that task_p50_s and task_tail_s
    # (rank 11) each fall inside one group of like tasks.
    for n, count in ((3, 4), (5, 8), (6, 5), (7, 1)):
        for _ in range(count):
            eps = rng.uniform(0.03, 0.05)
            kick = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amp = oracles.ghz(n) + eps * kick / np.linalg.norm(kick)
            amp /= np.linalg.norm(amp)
            violation(f"near-ghz n={n}", PureState(n, amp), amp, n)
    for n, count in ((3, 4), (4, 1), (5, 2), (6, 1), (7, 1)):
        for _ in range(count):
            v = rng.uniform(0.3, 0.95)
            rho = oracles.werner_ghz(n, v)
            violation(f"werner-ghz n={n}", DensityMatrix(n, rho), rho, n,
                      restarts=3 if n == 4 else 1, known_max=v * oracles.quantum_max(n))
    rho3 = rho3_matrix()
    for _ in range(2):
        violation("worked rho3", DensityMatrix(3, rho3), rho3, 3,
                  known_max=1 + np.sqrt(2), window=(2.0, 2 ** 1.5, 2))
    for amp in generic_states():
        violation("generic n=3", PureState(3, amp), amp, 3)
    for n, count in ((3, 2), (4, 2), (5, 2), (6, 2), (7, 1)):
        for _ in range(count):
            slot = len(tasks)
            tasks.append(Task(f"eigen n={n}", "eigen",
                              lambda n=n, slot=slot: optimize.max_eigen_settings(n, restarts=1, seed=slot),
                              _check_eigen(n)))
    return Workload(tasks)


# --- symmetric-search -------------------------------------------------------


def _check_search(n):
    def check(res):
        problems = []
        state = res.best_state
        if state.basis_label != "z":
            problems.append(f"search returned a {state.basis_label}-basis state")
            return problems
        again = oracles.mm_residual(n, state.as_complex())
        if abs(again - res.best_value) > RESIDUAL_ATOL:
            problems.append(f"residual recomputes to {again!r}, search says {res.best_value!r}")
        if n in (3, 4) and res.best_value >= SOLVED_RESIDUAL:
            problems.append(f"n={n} search ended at {res.best_value!r}, not below {SOLVED_RESIDUAL}")
        if n == 5 and res.best_value <= FLOOR_RESIDUAL:
            problems.append(f"n=5 search ended at {res.best_value!r}, below the recorded floor")
        return problems
    return check


def symmetric_search(seed: int) -> Workload:
    """The same 40 searches for every seed: search seeds 0..count-1 at each n.

    A search's work and outcome are properties of its seed alone: n=4
    searches take 18 to over 400 steps, and one n=3 seed (33402888) runs into
    MAX_ITERATIONS at a residual of 2.6e-9.
    """
    from bellkit import optimize

    del seed
    tasks = []
    for n, count in ((3, 14), (4, 14), (5, 8), (6, 4)):
        for s in range(count):
            tasks.append(Task(f"search n={n}", "search",
                              lambda n=n, s=s: optimize.search_mm_partial(n, restarts=1, seed=s),
                              _check_search(n)))
    return Workload(tasks)


# --- shot-certify -----------------------------------------------------------


def werner_weight(n: int, rng: np.random.Generator) -> float:
    """A Werner weight whose exact E = v 2^((n+1)/2) sits inside a ladder
    interval (bound(k+1), bound(k)], certified depth n-k >= 2, with room for
    the SIGMAS-standard-error margin on either side."""
    sigma = 2.01 / np.sqrt(SHOTS)   # the per-term weights square-sum to 4
    bounds = oracles.ladder(n)
    k = int(rng.integers(0, n - 1))
    e = rng.uniform(bounds[k + 1] + 2 * SIGMAS * sigma, bounds[k] - SIGMAS * sigma)
    return e / oracles.quantum_max(n)


def _check_estimate(state_arr, n, vectors, expected):
    # Exact E is computed at the first check, so that set-up times bellkit only.
    exact = functools.cache(lambda: oracles.expectation(state_arr, vectors))

    def check(out):
        est, cert = out
        problems = []
        if abs(exact() - expected) > VALUE_ATOL:
            problems.append(f"exact E {exact()!r} at ghz_optimal_settings, expected {expected!r}")
        depth = oracles.ladder_depth(exact(), n)
        if cert.certified_entangled != depth:
            problems.append(f"E={est.value!r}+-{est.stderr!r} certifies "
                            f"{cert.certified_entangled}, exact {exact()!r} gives {depth}")
        return problems
    return exact, check


def _check_samples(n, basis):
    def check(records):
        problems = []
        for subset, rec in records:
            rest = n - len(subset)
            if basis == "x":
                expected = oracles.x_post_state(rest, rec.outcomes)
                p = 2.0 ** -len(subset)
            else:
                if len(set(rec.outcomes)) != 1:
                    problems.append(f"z outcomes {rec.outcomes} disagree on GHZ")
                    continue
                expected = oracles.z_post_state(rest, rec.outcomes[0])
                p = 0.5
            if abs(rec.probability - p) > PROBABILITY_ATOL:
                problems.append(f"branch probability {rec.probability!r}, expected {p!r}")
            dist = oracles.phase_distance(rec.post.amp, expected)
            if dist > POST_STATE_ATOL:
                problems.append(f"post-state off by {dist!r} after {basis} outcomes {rec.outcomes}")
        return problems
    return check


def shot_certify(seed: int) -> Workload:
    from bellkit import bellop, certify, qstate
    from bellkit.qstate import DensityMatrix, PureState

    rng = np.random.default_rng(seed)
    settings = {n: bellop.ghz_optimal_settings(n) for n in range(3, 9)}
    tasks = []
    exact_values = {}

    def estimate(label, state_obj, state_arr, n, shot_seed, v=1.0):
        st = settings[n]
        exact, check = _check_estimate(state_arr, n, st.vectors, v * oracles.quantum_max(n))
        slot = len(tasks)
        exact_values[slot] = exact

        def run():
            est = certify.estimate_E(state_obj, st, SHOTS, shot_seed)
            return est, certify.certify_depth(est.value, n, SIGMAS * est.stderr)
        tasks.append(Task(label, "estimate", run, check,
                          fault=lambda out: not out[0].stderr > 0.0))

    # Pure GHZ estimates use shot seeds fixed by n: at odd n every shot agrees
    # and estimate_E reports stderr 0, the fault these tasks count.
    for n in range(3, 9):
        amp = oracles.ghz(n)
        estimate(f"ghz n={n}", PureState(n, amp), amp, n, shot_seed=n)
    for n, count in ((3, 4), (4, 3), (5, 3), (6, 3), (7, 3)):
        for _ in range(count):
            v = werner_weight(n, rng)
            rho = oracles.werner_ghz(n, v)
            estimate(f"werner-ghz n={n}", DensityMatrix(n, rho), rho, n,
                     shot_seed=int(rng.integers(2**31)), v=v)

    def sampling(n, basis, copies):
        state = PureState(n, oracles.ghz(n))
        bases = qstate.x_bases(n) if basis == "x" else qstate.z_bases(n)
        for _ in range(copies):
            draws = []
            for _ in range(DRAWS):
                k = int(rng.integers(1, n))
                subset = sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
                draws.append((subset, int(rng.integers(2**31))))

            def run(draws=draws):
                return [(subset, qstate.measure_sample(state, bases, subset, s))
                        for subset, s in draws]
            tasks.append(Task(f"{basis}-sample n={n}", "sample", run, _check_samples(n, basis)))

    for n in range(3, 9):
        sampling(n, "x", 2)
        sampling(n, "z", 1)

    def round_check(results):
        inside = total = 0
        for slot, (task, out) in enumerate(zip(tasks, results)):
            if task.kind != "estimate" or task.fault(out):
                continue
            est = out[0]
            total += 1
            inside += abs(est.value - exact_values[slot]()) <= SIGMAS * est.stderr
        if total and inside < WITHIN_SHARE * total:
            return [f"only {inside} of {total} estimates within {SIGMAS} standard errors"]
        return []

    return Workload(tasks, round_check)


WORKLOADS = {
    "settings-ascent": settings_ascent,
    "symmetric-search": symmetric_search,
    "shot-certify": shot_certify,
}
