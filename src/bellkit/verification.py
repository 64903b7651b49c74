"""End-to-end verification checks: every headline bound, identity, angle
recipe and worked example in one reproducible battery.

Each check returns a CheckResult; `run_all` executes the full battery (about
2 s on two cores) while ``fast=True`` shrinks trial counts and qubit ranges
for a quick smoke run.  The same battery backs `bellkit verify` and the
acceptance test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bellop, certify, criteria, optimize, qstate, symstate

DEFAULT_SEED = 101


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0          # wall time, set by run_all

    def __post_init__(self):
        self.passed = bool(self.passed)   # a check's flag may end as a numpy bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check_id}: {self.description}"


def check_lhv_bound(fast: bool = False) -> CheckResult:
    """Exhaustive deterministic-assignment maximum of F_n equals 2 exactly."""
    top = 6 if fast else 10
    values = {n: bellop.lhv_max(n) for n in range(2, top + 1)}
    return CheckResult(
        "lhv-bound", f"max F_n over all assignments = 2 exactly, n=2..{top}",
        all(v == 2 for v in values.values()), {"values": values})


def check_operator_bound(fast: bool = False) -> CheckResult:
    """B_n^2 <= 2^(n+1) on random settings by bellop.bound_check's closed form,
    itself matched to dense eigvalsh(B_n) at n <= 6; GHZ settings reach 2^((n+1)/2)."""
    rng = np.random.default_rng(DEFAULT_SEED)
    trials = 20 if fast else 100
    rand_top = 6 if fast else 8
    ok = True
    worst_excess = -np.inf
    dense_err = 0.0   # the closed form against the dense B_n it stands for
    for n in range(2, rand_top + 1):
        for trial in range(trials):
            v = rng.normal(size=(n, 2, 3))
            v /= np.linalg.norm(v, axis=2, keepdims=True)
            res = bellop.bound_check(bellop.Settings(v))
            worst_excess = max(worst_excess, res.lambda_max_sq - res.bound)
            ok = ok and res.passed
            if trial < 3 and n <= 6:
                dense = np.linalg.eigvalsh(bellop.bell_operator(bellop.Settings(v)))
                dense_err = max(dense_err, float(abs(np.sort(bellop._spectrum(v)) - dense).max()))
    ok = ok and dense_err <= 1e-9
    eig_top = 8 if fast else 10
    eig_err = 0.0
    for n in range(2, eig_top + 1):
        lam = float(np.sqrt(bellop.bound_check(bellop.ghz_optimal_settings(n)).lambda_max_sq))
        eig_err = max(eig_err, abs(lam - 2.0 ** ((n + 1) / 2)))
    ok = ok and eig_err <= 1e-9
    return CheckResult(
        "operator-bound",
        f"lambda_max(B_n^2) <= 2^(n+1) on {trials} random settings (n<= {rand_top}); "
        f"GHZ settings give lambda_max = 2^((n+1)/2) within 1e-9 (n<= {eig_top})",
        ok, {"worst_excess": worst_excess, "eigenvalue_error": eig_err,
             "dense_spectrum_error": dense_err})


def check_ghz_angles(fast: bool = False) -> CheckResult:
    """<B_n> on the GHZ state at the regular xy-angle recipe saturates
    2^((n+1)/2)."""
    top = 8 if fast else 10
    worst = 0.0
    for n in range(2, top + 1):
        st = bellop.ghz_optimal_settings(n)
        val = bellop.bell_expectation(symstate.embed(symstate.ghz(n, 1)), st)
        worst = max(worst, abs(val - 2.0 ** ((n + 1) / 2)))
    return CheckResult(
        "ghz-angle-recipe",
        f"GHZ expectation at recipe angles = 2^((n+1)/2) within 1e-9, n=2..{top}",
        worst <= 1e-9, {"worst_error": worst})


def check_optimizer_recovery(fast: bool = False) -> CheckResult:
    """max_eigen_settings recovers 2^((n+1)/2) within 1e-6."""
    top = 4 if fast else 6
    restarts = 10 if fast else 50
    worst = 0.0
    for n in range(2, top + 1):
        res = optimize.max_eigen_settings(n, restarts=restarts, tol=1e-9, seed=DEFAULT_SEED)
        worst = max(worst, abs(res.best_value - 2.0 ** ((n + 1) / 2)))
    return CheckResult(
        "optimizer-recovery",
        f"settings optimizer reaches 2^((n+1)/2) within 1e-6, n=2..{top}, "
        f"{restarts} restarts", worst <= 1e-6, {"worst_error": worst})


def check_independent_subset_bound(fast: bool = False) -> CheckResult:
    """Joint state/settings optimization over (block) x (m product qubits)
    reaches exactly 2^((n-m+1)/2)."""
    cases = [(3, 1), (4, 2)] if fast else [(3, 1), (4, 1), (4, 2), (5, 2)]
    restarts = 10 if fast else 25
    worst = 0.0
    values = {}
    for n, m in cases:
        res = optimize.product_bound_max(n, m, restarts=restarts, tol=1e-10, seed=DEFAULT_SEED)
        target = 2.0 ** ((n - m + 1) / 2)
        values[f"{n},{m}"] = res.best_value
        worst = max(worst, abs(res.best_value - target))
    return CheckResult(
        "independent-subset-bound",
        f"product-structure maximum equals 2^((n-m+1)/2) within 1e-5 for {cases}",
        worst <= 1e-5, {"worst_error": worst, "values": values})


def check_f_decomposition(fast: bool = False) -> CheckResult:
    """F_n = ((F_{n-m}+F'_{n-m}) F_m + (F_{n-m}-F'_{n-m}) F'_m) / 4 exactly
    on every assignment: F = Re G and F' = Im G read from the exact tables
    of G, head on the first n-m qubits, so F_n's table is head-major."""
    top = 6 if fast else 10
    tables = {n: bellop._assignment_table(n) for n in range(1, top + 1)}
    worst = 0.0
    for n in range(2, top + 1):
        for m in range(1, n):
            head, tail = tables[n - m], tables[m]
            rhs = (np.outer(head.real + head.imag, tail.real)
                   + np.outer(head.real - head.imag, tail.imag)) / 4
            worst = max(worst, float(np.max(np.abs(tables[n].real.reshape(rhs.shape) - rhs))))
    return CheckResult(
        "f-decomposition",
        f"split identity exact on all 4^n assignments, all m < n <= {top}",
        worst == 0, {"max_deviation": worst})


def check_fragility(fast: bool = False) -> CheckResult:
    """GHZ fragility = 3n with I/2 single-qubit reductions; exact noise
    channel composes; fidelity-decay slope matches -fragility."""
    top = 6 if fast else 10
    ok = True
    worst_partial = 0.0
    for n in range(2, top + 1):
        psi = symstate.embed(symstate.ghz(n, 1))
        rep = criteria.fragility(psi)
        ok = ok and abs(rep.fragility - 3 * n) <= 1e-10 and rep.is_maximal
        for q in range(1, n + 1):
            reduced = qstate.partial_trace(psi, {q})
            worst_partial = max(worst_partial,
                                float(np.max(np.abs(reduced.mat - np.eye(2) / 2))))
    ok = ok and worst_partial <= 1e-10
    rng = np.random.default_rng(11)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = qstate.PureState(3, vec).to_density()
    lhs = criteria.depolarize(criteria.depolarize(rho, 0.07), 0.05)
    rhs = criteria.depolarize(rho, 0.12)
    comp_err = float(np.max(np.abs(lhs.mat - rhs.mat)))
    ok = ok and comp_err <= 1e-10
    # Fidelity-decay slope at t=0 vs -fragility, second-order difference:
    # f(t) = <psi|rho_t|psi> with f(0) = 1, so f'(0) ~ (4 f(h) - f(2h) - 3)/(2h).
    slope_err = 0.0
    for n in (2, 3, 4):
        psi = symstate.embed(symstate.ghz(n, 1))
        rep = criteria.fragility(psi)
        h = 1e-6
        f1 = float(np.vdot(psi.amp, criteria.depolarize(psi.to_density(), h).mat @ psi.amp).real)
        f2 = float(np.vdot(psi.amp, criteria.depolarize(psi.to_density(), 2 * h).mat @ psi.amp).real)
        slope = (4 * f1 - f2 - 3.0) / (2 * h)
        slope_err = max(slope_err, abs(slope - (-rep.fragility)))
    ok = ok and slope_err <= 1e-6
    return CheckResult(
        "fragility",
        f"GHZ fragility = 3n and reductions = I/2 (n<= {top}); channel composition "
        "within 1e-10; decay slope = -fragility within 1e-6",
        ok, {"worst_partial": worst_partial, "composition_error": comp_err,
             "slope_error": slope_err})


def check_distribution(fast: bool = False) -> CheckResult:
    """x-basis measurements on GHZ leave the remaining qubits on the
    parity-matched GHZ state, every trial."""
    top = 5 if fast else 8
    trials = 30 if fast else 200
    ok = True
    worst = 0.0
    for n in range(2, top + 1):
        for k in range(1, n):
            rep = criteria.distribute_check(n, k, trials, DEFAULT_SEED + 7919 * n + k)
            ok = ok and rep.passed
            worst = max(worst, rep.worst_fidelity_error)
    return CheckResult(
        "distribution",
        f"{trials} seeded trials per (n,k), n<= {top}: post-measurement fidelity "
        "with the parity-predicted GHZ state = 1 within 1e-10",
        ok, {"worst_fidelity_error": worst})


def check_mutual_information(fast: bool = False) -> CheckResult:
    """GHZ gives n-1 bits in the computational basis; the symmetric 2-qubit
    triplet gives 1 bit."""
    top = 8 if fast else 10
    worst = 0.0
    for n in range(2, top + 1):
        mi = criteria.mutual_information(symstate.embed(symstate.ghz(n, 1)),
                                         qstate.z_bases(n))
        worst = max(worst, abs(mi - (n - 1)))
    triplet = symstate.embed(symstate.SymState(2, [0, 1, 0]))
    tri = criteria.mutual_information(triplet, qstate.z_bases(2))
    worst_tri = abs(tri - 1.0)
    ok = worst <= 1e-10 and worst_tri <= 1e-10
    return CheckResult(
        "mutual-information",
        f"GHZ mutual information = n-1 bits within 1e-10 (n<= {top}); "
        "triplet = 1 bit", ok, {"worst_error": worst, "triplet_error": worst_tri})


def check_mm_partial_states(fast: bool = False) -> CheckResult:
    """Every cataloged state passes the maximally-mixed partial-state test;
    the n=5 search bottoms out well above zero (empirical floor, recorded,
    not a nonexistence proof).  The witness |D1> + |D4> has the partial
    state diag(3, 4, 3)/10, so its residual is exactly 1/150, the floor the
    search reaches."""
    residuals = {label: criteria.mm_partial_residual(state).residual
                 for label, state in criteria.mm_example_states().items()}
    states_ok = all(r < 1e-9 for r in residuals.values())
    restarts = 40 if fast else 200
    search = optimize.search_mm_partial(5, restarts=restarts, seed=DEFAULT_SEED)
    floor_ok = search.best_value > 1e-3
    witness = criteria.mm_partial_residual(symstate.SymState(5, [0, 1, 0, 0, 1, 0]))
    return CheckResult(
        "mm-partial-states",
        "all cataloged states give residual < 1e-9; n=5 search floor > 1e-3 "
        f"over {restarts} restarts",
        states_ok and floor_ok,
        {"max_state_residual": max(residuals.values()), "n5_floor": search.best_value,
         "witness_residual": witness.residual})


def _ket(n: int, j: int) -> symstate.SymState:
    """The z-basis symmetric ket |j,n>, with exact coefficients."""
    return symstate.SymState(n, [1 if i == j else 0 for i in range(n + 1)])


def check_symmetric_identities(fast: bool = False) -> CheckResult:
    """Inner products, split decomposition, z->x transform and the GHZ x/y
    forms, all via exact embedding (zero deviation up to one global scale
    per transform)."""
    top = 6 if fast else 8
    ok = True
    for n in range(1, top + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                ip = complex(np.vdot(symstate.embed_vector(_ket(n, j)),
                                     symstate.embed_vector(_ket(n, k))))
                ok = ok and abs(ip - symstate.inner(j, k, n)) < 1e-9
    for n in range(2, top + 1):
        for m in range(1, n):
            for j in range(n + 1):
                lhs = symstate.embed_vector(_ket(n, j))
                rhs = np.zeros(2**n, dtype=complex)
                for k, coeff in symstate.split(j, n, m):
                    rhs += coeff * np.kron(symstate.embed_vector(_ket(m, k)),
                                           symstate.embed_vector(_ket(n - m, j - k)))
                ok = ok and np.array_equal(lhs, rhs)
    for n in range(1, top + 1):
        scales = set()
        for j in range(n + 1):
            state = _ket(n, j)
            xs, scale = symstate.z_to_x(state)
            lhs = symstate.embed_vector(state)
            rhs = float(scale) * symstate.embed_vector(xs)
            ok = ok and np.allclose(lhs, rhs, atol=0, rtol=0)
            scales.add(scale)
        ok = ok and len(scales) == 1
        for sign in (1, -1):
            xs, scale = symstate.z_to_x(symstate.ghz(n, sign))
            expected_parity = 0 if sign == 1 else 1
            for ell, c in enumerate(xs.coeff):
                if ell % 2 != expected_parity:
                    ok = ok and c.is_zero
            ys = symstate.ghz_y_form(n, sign)
            vy = symstate.embed_vector(ys)
            vg = symstate.embed_vector(symstate.ghz(n, sign))
            idx = int(np.argmax(np.abs(vg)))
            ratio = vy[idx] / vg[idx]
            ok = ok and np.allclose(vy, ratio * vg, atol=1e-9)
            ok = ok and abs(abs(ratio) - 2.0**n) < 1e-9
    return CheckResult(
        "symmetric-identities",
        f"inner/split/z->x/GHZ x,y forms verified by exact embedding, n <= {top}",
        ok, {})


def check_entangled_basis(fast: bool = False) -> CheckResult:
    """The 2^n GHZ-type states form an orthonormal basis (Gram = identity)."""
    top = 6 if fast else 8
    worst = 0.0
    for n in range(2, top + 1):
        worst = max(worst, symstate.gram_error(symstate.bell_basis(n)))
    return CheckResult(
        "entangled-basis",
        f"Gram matrix of the 2^n-state basis = identity within 1e-12, n=2..{top}",
        worst <= 1e-12, {"worst_gram_error": worst})


def check_worked_example(fast: bool = False) -> CheckResult:
    """The singlet/up mixture certifies exactly 2 entangled qubits; the
    quoted maximum 2(1+sqrt(2)) exceeds the quantum cap and is flagged."""
    restarts = 15 if fast else 40
    _, rep = certify.example_rho3(restarts=restarts, seed=DEFAULT_SEED)
    ok = rep.optimized.best_value <= 4.0 + 1e-8
    ok = ok and rep.certificate.certified_entangled == 2
    ok = ok and rep.quoted_exceeds_cap
    return CheckResult(
        "worked-example",
        "3-qubit mixture: optimum <= 4 + 1e-8, certifies exactly 2 entangled "
        "qubits; quoted value 2(1+sqrt 2) flagged as above the cap",
        ok, rep.to_json())


def check_shot_noise(fast: bool = False) -> CheckResult:
    """Finite-shot estimates of E(F_3) on GHZ land within 4 standard errors
    of the exact value in at least 95% of seeded repetitions."""
    reps = 20 if fast else 100
    shots = 10**5
    st = bellop.ghz_optimal_settings(3)
    psi = symstate.embed(symstate.ghz(3, 1))
    exact = bellop.bell_expectation(psi, st)
    hits = 0
    for i in range(reps):
        est = certify.estimate_E(psi, st, shots, DEFAULT_SEED + i)
        # deterministic terms at the optimal settings carry estimate_E's
        # finite-shot stderr floor, so est.stderr > 0; the 1e-12 is the
        # check's fixed slack for round-off in the summed estimate
        if abs(est.value - exact) <= 4.0 * est.stderr + 1e-12:
            hits += 1
    need = int(np.ceil(0.95 * reps))
    return CheckResult(
        "shot-noise",
        f"estimate within 4 standard errors of exact in >= {need}/{reps} repetitions "
        f"({shots} shots/term)",
        hits >= need, {"hits": hits, "repetitions": reps, "exact": exact})


ALL_CHECKS = [
    check_lhv_bound,
    check_operator_bound,
    check_ghz_angles,
    check_optimizer_recovery,
    check_independent_subset_bound,
    check_f_decomposition,
    check_fragility,
    check_distribution,
    check_mutual_information,
    check_mm_partial_states,
    check_symmetric_identities,
    check_entangled_basis,
    check_worked_example,
    check_shot_noise,
]


def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every check in order, setting each result's wall time."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(fast=fast)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
