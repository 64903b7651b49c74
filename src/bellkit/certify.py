"""Entanglement-depth certification from Bell-Klyshko expectation values.

If at least k of the n qubits carry independent outcomes, the achievable
expectation is capped at bound(k) = 2^((n-k+1)/2).  Measuring a value above
bound(k) therefore rules out k independent qubits: at least n - k qubits are
each entangled with some other qubit.  This does not bound the size of the
largest entangled group: GHZ_3 (x) GHZ_3 reaches 2^(5/2) > bound(2) at n = 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import optimize
from .bellop import Settings, _fold, bell_expectation
from .qstate import (DensityMatrix, PureState, State, _born_distribution, _eigenbasis_rows,
                     _outcome_table, hamming_weights, require_int)

EXACT_EPSILON = 1e-9        # margin when certifying exact expectations
ESTIMATE_SIGMA = 4.0        # margin in standard errors for estimates
MIN_SHOTS = 100
TABLE_BITS = 20             # a pure-state outcome table holds at most 2^20 entries


def thresholds(n: int) -> np.ndarray:
    """bound(k) = 2^((n-k+1)/2) for k = 0..n, strictly decreasing."""
    n = require_int(n, "n", 2)
    k = np.arange(n + 1)
    return 2.0 ** ((n - k + 1) / 2.0)


@dataclass(frozen=True)
class CertResult:
    """Depth certificate for a measured expectation value E.

    max_consistent_independent is the largest k with E <= bound(k) + epsilon;
    certified_entangled = n - k.  Values above bound(0) + epsilon are not
    certified and instead carry the "exceeds_quantum_bound" flag.
    """

    n: int
    value: float
    epsilon: float
    thresholds: tuple[float, ...]
    max_consistent_independent: int | None
    certified_entangled: int | None
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "E": self.value,
            "epsilon": self.epsilon,
            "thresholds": list(self.thresholds),
            "max_consistent_independent": self.max_consistent_independent,
            "certified_entangled": self.certified_entangled,
            "flags": list(self.flags),
        }


def certify_depth(value: float, n: int, epsilon: float = EXACT_EPSILON) -> CertResult:
    """Certify how many qubits must be entangled to produce expectation
    ``value`` on n qubits, with statistical margin ``epsilon``."""
    if not (np.isfinite(value) and np.isfinite(epsilon)):
        raise ValueError(f"value and epsilon must be finite, got {value!r}, {epsilon!r}")
    if value < 0:
        raise ValueError("expectation value must be nonnegative")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    bounds = thresholds(n)
    if value > bounds[0] + epsilon:
        return CertResult(n, float(value), float(epsilon), tuple(bounds),
                          None, None, ("exceeds_quantum_bound",))
    consistent = [k for k in range(n + 1) if value <= bounds[k] + epsilon]
    k_max = max(consistent)
    return CertResult(n, float(value), float(epsilon), tuple(bounds),
                      k_max, n - k_max)


class EstimateResult(NamedTuple):
    value: float
    stderr: float


def _choice_table(state: State, rows: np.ndarray, prefix: tuple) -> np.ndarray:
    """Outcome table with the leading qubits measured along the directions
    ``prefix`` picks and every other qubit along both of its directions.
    table[c], for the other qubits' choices c, is that term's unnormalized
    2^n distribution with outcome bits in qubit order."""
    lead, rest = len(prefix), len(rows) - len(prefix)
    qubit_rows = [rows[j, c] for j, c in enumerate(prefix)] + list(rows[lead:].reshape(rest, 4, 2))
    table = _outcome_table(state, qubit_rows).reshape((2,) * lead + (2, 2) * rest)
    # axes: the leading qubits' bits, then (choice, bit) per other qubit
    choices = [lead + 2 * i for i in range(rest)]
    bits = list(range(lead)) + [c + 1 for c in choices]
    return np.ascontiguousarray(table.transpose(choices + bits))


def estimate_E(state: State, st: Settings, shots_per_term: int, seed: int) -> EstimateResult:
    """Simulate a finite-shot measurement of E(F_n).

    Every nonzero term of the multilinear expansion selects one product
    measurement of N = ``shots_per_term`` shots.  The mean of their +-1
    outcome products and its sample standard error depend only on the count
    k of even-parity shots, so each term draws k ~ Binomial(N, p_even) once,
    with p_even the even-parity mass of its exact distribution, and takes
    mean = (2k - N)/N and stderr = sqrt(4 k (N-k) / (N-1)) / N.  Per-term
    standard errors combine in quadrature, weighted by |coefficient|.  A term
    whose shots all agree (k = 0 or N) has no sample spread, so in place of a
    zero it gets the finite-shot floor sqrt(4 p (1-p) / N), with
    p = (N+1)/(N+2).  One stream, ``default_rng(seed)``, draws every term's
    count in one call, in choice-string order (qubit 1 most significant).

    The distributions are the rows of one outcome table that measures every
    qubit along both of its directions (4^n entries); every row is checked
    and normalized at once, and one masked row sum gives every p_even.  For
    a pure state above n = TABLE_BITS / 2 the table is built once per choice
    of the leading 2n - TABLE_BITS qubits, so that no table exceeds
    2^TABLE_BITS entries.  ``shots_per_term`` and ``seed`` must be integers.
    """
    # the binomial draw takes an int64
    shots = require_int(shots_per_term, "shots_per_term", MIN_SHOTS, 2**63 - 1)
    seed = require_int(seed, "seed", 0)
    if state.n != st.n:
        raise ValueError(f"state has {state.n} qubits but settings have {st.n}")
    n = st.n
    lead = max(0, 2 * n - TABLE_BITS) if isinstance(state, PureState) else 0
    # rows[j, c, b] = <outcome b of direction c of qubit j+1|  (b = 0 is +1)
    rows = np.array([[_eigenbasis_rows(d) for d in pair] for pair in st.vectors])
    even = hamming_weights(n) % 2 == 0
    tables = (_choice_table(state, rows, prefix).reshape(-1, 2**n)
              for prefix in np.ndindex((2,) * lead))
    # p_even of every choice string, qubit 1 most significant
    p_even = np.concatenate([_born_distribution(t)[:, even].sum(axis=1) for t in tables])
    coeffs = _fold([np.eye(2)] * n).real   # the expansion of expand_correlators
    terms = np.flatnonzero(coeffs)
    w = coeffs[terms]
    # the sum can pass 1 by an ulp; floats keep 2k and 4k(N-k) clear of int64
    k = np.random.default_rng(seed).binomial(shots, np.minimum(p_even[terms], 1.0)).astype(float)
    mean = (2 * k - shots) / shots
    stderr = np.sqrt(4 * k * (shots - k) / (shots - 1)) / shots
    p = (shots + 1) / (shots + 2)
    stderr[stderr == 0.0] = np.sqrt(4 * p * (1 - p) / shots)   # every shot agrees
    return EstimateResult(float(np.sum(w * mean)), float(np.sqrt(np.sum((w * stderr) ** 2))))


QUOTED_RHO3_VALUE = 2.0 * (1.0 + np.sqrt(2.0))  # historically quoted maximum


@dataclass(frozen=True)
class Rho3Report:
    """Worked 3-qubit example: an equal mixture of singlet-(x)-up and
    up-(x)-singlet, which carries 2-qubit but no 3-qubit entanglement."""

    value_at_listed_angles: float
    optimized: optimize.OptResult
    quoted_value: float
    quantum_cap: float
    quoted_exceeds_cap: bool
    certificate: CertResult

    def to_json(self) -> dict:
        return {
            "value_at_listed_angles": self.value_at_listed_angles,
            "optimized_max": self.optimized.best_value,
            "quoted_value": self.quoted_value,
            "quantum_cap": self.quantum_cap,
            "quoted_exceeds_cap": self.quoted_exceeds_cap,
            "certificate": self.certificate.to_json(),
        }


def rho3_state() -> DensityMatrix:
    """rho = (P_singlet (x) P_up + P_up (x) P_singlet) / 2 on 3 qubits."""
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / np.sqrt(2)
    singlet[2] = -1 / np.sqrt(2)
    p_s = np.outer(singlet, singlet.conj())
    p_up = np.diag([1.0, 0.0]).astype(complex)
    return DensityMatrix(3, 0.5 * (np.kron(p_s, p_up) + np.kron(p_up, p_s)))


def rho3_listed_settings() -> Settings:
    """The xz-plane angles that historically accompany this example
    (measured from +z): alpha = -alpha' = gamma = -gamma' = pi/8,
    beta = pi, beta' = pi/2."""
    a = np.pi / 8
    return Settings.from_xz_angles([(a, -a), (np.pi, np.pi / 2), (a, -a)])


def example_rho3(restarts: int = 40, seed: int = 0) -> tuple[DensityMatrix, Rho3Report]:
    """Build the mixed 3-qubit example and certify its entanglement depth.

    The value 2(1+sqrt(2)) quoted for this construction exceeds the 3-qubit
    operator cap 2^2 = 4 and is not reproducible; the dense computation
    yields 1 + sqrt(2) at the optimum (and a smaller value at the listed
    angles).  Both numbers are reported, and the certificate is taken from
    the computed optimum, which lands in the 2-qubit-entanglement window
    (2, 2^(3/2)].
    """
    rho = rho3_state()
    at_angles = bell_expectation(rho, rho3_listed_settings())
    opt = optimize.max_violation_settings(rho, restarts=restarts, tol=1e-11, seed=seed)
    cap = float(thresholds(3)[0])
    cert = certify_depth(opt.best_value, 3, EXACT_EPSILON)
    report = Rho3Report(
        value_at_listed_angles=at_angles,
        optimized=opt,
        quoted_value=float(QUOTED_RHO3_VALUE),
        quantum_cap=cap,
        quoted_exceeds_cap=bool(QUOTED_RHO3_VALUE > cap),
        certificate=cert,
    )
    return rho, report
