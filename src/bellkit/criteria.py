"""Maximal-entanglement criteria for symmetric states: fragility under
independent single-qubit white noise, entanglement distribution through
x-basis measurements, mutual information of joint outcomes, and the
maximally-mixed-partial-state spectrum test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import symstate
from .qstate import (DensityMatrix, PureState, State, child_rng, fidelity,
                     measure_sample, outcome_distribution, partial_trace, pauli_expect,
                     require_int, spectrum, x_bases, z_bases)

BLOCH_MAXIMAL_ATOL = 1e-10      # "all Bloch vectors vanish" threshold
DISTRIBUTE_FIDELITY_ATOL = 1e-10
NOISE_RATE = 4.0                # Bloch decay rate of one white-noise qubit


@dataclass(frozen=True)
class FragilityReport:
    """Per-qubit Bloch vectors and the resulting noise-fragility value
    |sum_j |<sigma_j>|^2 - 3n|; maximal (= 3n) iff every Bloch vector
    vanishes, i.e. every 1-qubit partial state is I/2."""

    n: int
    bloch: np.ndarray            # shape (n, 3)
    fragility: float
    is_maximal: bool
    tol: float

    def __post_init__(self):
        self.bloch.setflags(write=False)


def fragility(state: PureState, tol: float = BLOCH_MAXIMAL_ATOL) -> FragilityReport:
    """Initial fidelity-decay rate of a pure state under independent
    single-qubit white noise."""
    n = state.n
    bloch = np.empty((n, 3))
    axes = np.eye(3)
    for q in range(1, n + 1):
        for a in range(3):
            bloch[q - 1, a] = pauli_expect(state, q, axes[a])
    norms_sq = np.sum(bloch**2, axis=1)
    value = float(abs(norms_sq.sum() - 3 * n))
    maximal = bool(np.all(np.sqrt(norms_sq) <= tol))
    return FragilityReport(n, bloch, value, maximal, tol)


def depolarize(rho: DensityMatrix, t: float) -> DensityMatrix:
    """Exact state at time t under independent white noise on every qubit.

    The generator is a sum of single-qubit depolarizers, so the solution
    factorizes: per qubit q, rho -> p rho + (1 - p) tr_q(rho) (x) I/2 with
    p = exp(-4t).  Equivalently every weight-w Pauli-string component decays
    by exp(-4wt).
    """
    if not t >= 0:    # NaN fails too
        raise ValueError("time must be nonnegative")
    n = rho.n
    p = float(np.exp(-NOISE_RATE * t))
    arr = rho.mat.reshape([2] * (2 * n)).astype(complex)
    for q in range(n):
        eye = np.eye(2).reshape([2 if i in (q, n + q) else 1 for i in range(2 * n)])
        mixed = np.expand_dims(np.trace(arr, axis1=q, axis2=n + q), (q, n + q)) * eye
        arr = p * arr + (0.5 * (1.0 - p)) * mixed
    return DensityMatrix(n, arr.reshape(rho.dim, rho.dim))


@dataclass(frozen=True)
class DistributeReport:
    """Outcome of the seeded x-basis distribution trials on a GHZ state."""

    n: int
    k: int
    trials: int
    x_passes: int
    z_passes: int
    worst_fidelity_error: float
    passed: bool


def distribute_check(n: int, k: int, trials: int, seed: int) -> DistributeReport:
    """Measure k random qubits of the + GHZ state in the x-basis, ``trials``
    times, and verify the surviving n-k qubits always land exactly on a GHZ
    state: the + one after an even number of -1 outcomes, the - one after an
    odd number.  Each trial also measures one qubit in the z-basis and
    verifies the remainder collapses to the all-0 or all-1 product state.
    """
    n = require_int(n, "n", 2)
    k = require_int(k, "k", 1, n - 1)
    trials = require_int(trials, "trials", 1)
    seed = require_int(seed, "seed", 0)
    ghz_n = symstate.embed(symstate.ghz(n, +1))
    targets = {s: symstate.embed(symstate.ghz(n - k, s)) for s in (+1, -1)}
    zero_prod = PureState.basis(n - 1, 0)
    ones_prod = PureState.basis(n - 1, 2 ** (n - 1) - 1)
    x_passes = z_passes = 0
    worst = 0.0
    for i in range(trials):
        rng = child_rng(seed, i)
        subset = sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
        rec = measure_sample(ghz_n, x_bases(n), subset, seed=int(rng.integers(2**63)))
        minus_count = sum(1 for o in rec.outcomes if o == -1)
        expected = targets[+1] if minus_count % 2 == 0 else targets[-1]
        err = abs(fidelity(rec.post, expected) - 1.0)
        worst = max(worst, err)
        if err <= DISTRIBUTE_FIDELITY_ATOL:
            x_passes += 1
        zq = int(rng.integers(1, n + 1))
        zrec = measure_sample(ghz_n, z_bases(n), {zq}, seed=int(rng.integers(2**63)))
        ztarget = zero_prod if zrec.outcomes[0] == +1 else ones_prod
        zerr = abs(fidelity(zrec.post, ztarget) - 1.0)
        worst = max(worst, zerr)
        if zerr <= DISTRIBUTE_FIDELITY_ATOL:
            z_passes += 1
    passed = x_passes == trials and z_passes == trials
    return DistributeReport(n, k, trials, x_passes, z_passes, worst, passed)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def mutual_information(state: State, bases) -> float:
    """Mutual information, in bits, of the n outcome variables when every
    qubit is measured simultaneously along ``bases``:
    sum_j H(a_j) - H(a_1, ..., a_n), with 0 log 0 = 0."""
    n = state.n
    joint = outcome_distribution(state, bases)
    tensor = joint.reshape([2] * n)
    total = -_entropy_bits(joint)
    for q in range(n):
        other = tuple(i for i in range(n) if i != q)
        marginal = tensor.sum(axis=other) if other else tensor
        total += _entropy_bits(np.asarray(marginal).reshape(-1))
    return total


@dataclass(frozen=True)
class MMResidual:
    """Distance of the floor(n/2)-qubit partial spectrum from the maximally
    mixed symmetric target of m+1 equal nonzero eigenvalues."""

    m: int
    observed: np.ndarray
    target: np.ndarray
    residual: float

    def __post_init__(self):
        self.observed.setflags(write=False)
        self.target.setflags(write=False)


def mm_partial_residual(state: symstate.SymState) -> MMResidual:
    """Squared Euclidean distance between the sorted spectrum of the m-qubit
    partial state (m = floor(n/2)) and (1/(m+1), ..., 1/(m+1), 0, ..., 0).

    Only m = floor(n/2) is tested: if that partial state is maximally mixed,
    the smaller ones necessarily are too.
    """
    if state.n < 2:
        raise ValueError("need n >= 2")
    psi = symstate.embed(state)
    m = state.n // 2
    reduced = partial_trace(psi, set(range(1, m + 1)))
    observed = spectrum(reduced).values
    target = np.zeros(2**m)
    target[: m + 1] = 1.0 / (m + 1)
    residual = float(np.sum((observed - target) ** 2))
    return MMResidual(m, observed, target, residual)


@lru_cache(maxsize=None, typed=True)   # so True or 2.0 never hits the entry of 1 or 2
def schmidt_map(n: int, m: int) -> np.ndarray:
    """Read-only linear map J from z-basis coefficients c to the symmetric
    Schmidt matrix M = J @ c over the first m and remaining n-m qubits:
    M[k, l] = c[k+l] sqrt(C(m,k) C(n-m,l)).

    Splitting |j,n> = sum_k |k,m> (x) |j-k,n-m> and normalizing both factors
    writes the state as sum_kl M[k, l] |k>|l> in orthonormal symmetric bases,
    so |M|_F^2 = sum_j |c_j|^2 C(n,j) (Vandermonde) and M M^H / |M|_F^2 is
    the m-qubit partial state.
    """
    n = require_int(n, "n", 1)
    m = require_int(m, "m", 0, n)
    jac = np.zeros((m + 1, n - m + 1, n + 1))
    for k in range(m + 1):
        for l in range(n - m + 1):
            jac[k, l, k + l] = np.sqrt(comb(m, k) * comb(n - m, l))
    jac.setflags(write=False)
    return jac


def mm_example_states() -> dict[str, symstate.SymState]:
    """The known states whose floor(n/2)-qubit partial spectra are maximally
    mixed, labeled "n:variant".  For n <= 8, search_mm_partial finds such
    states at n = 2, 3, 4 and 6 only: 200 restarts end at 1/150 for n = 5,
    1/196 for n = 7 and 2/103 for n = 8.  That is numerical evidence, not a
    proof.  The sqrt(2)/sqrt(3) coefficients force numeric (non-rational)
    entries."""
    s3 = np.sqrt(3.0)
    states = {
        "3:+1": symstate.SymState(3, [1, 0, 0, 1]),
        "3:-1": symstate.SymState(3, [1, 0, 0, -1]),
        "3:+2": symstate.SymState(3, [1, 1, -1, -1]),
        "3:-2": symstate.SymState(3, [1, -1, -1, 1]),
        "4:+1": symstate.SymState(4, [-3, s3, 1, s3, -3]),
        "4:-1": symstate.SymState(4, [-3, -s3, 1, -s3, -3]),
        "4:2": symstate.SymState(4, [1, 0, 1j / s3, 0, 1]),
        "6:+1": symstate.SymState(6, [0, 1, 0, 0, 0, 1, 0]),
        "6:-1": symstate.SymState(6, [0, 1, 0, 0, 0, -1, 0]),
        "6:2": symstate.SymState(6, [-3, 0, 1, 0, 1, 0, -3]),
        "6:+3": symstate.SymState(6, [np.sqrt(2), 0, 0, 0.5j, 0, 0, np.sqrt(2)]),
        "6:-3": symstate.SymState(6, [np.sqrt(2), 0, 0, -0.5j, 0, 0, np.sqrt(2)]),
    }
    return states
