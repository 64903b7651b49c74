"""Reference computations the benchmark checks bellkit against.

Everything here is plain numpy and imports nothing from bellkit, so a fault
in the library cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import numpy as np

SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)

COEFF_ZERO_ATOL = 1e-12


def popcount(n: int) -> np.ndarray:
    """Number of set bits of every index 0..2^n-1."""
    idx = np.arange(2**n)
    return np.array([bin(i).count("1") for i in idx])


def klyshko_coefficients(n: int) -> np.ndarray:
    """Coefficient of every correlator term of F_n, indexed by its choice
    string read as bits (qubit 1 = most significant, bit 1 = primed).

    Writing C_n = F_n + i F_n', the recursion collapses to
    C_n = C_{n-1} (1-i)/2 (a_n + i a_n') with C_1 = 2 (a_1 + i a_1'), so
    C_n = 2 ((1-i)/2)^(n-1) prod_j (a_j + i a_j') and the coefficient of a
    term with p primed factors is Re[2 ((1-i)/2)^(n-1) i^p].
    """
    p = popcount(n)
    coeff = (2 * ((1 - 1j) / 2) ** (n - 1) * 1j ** p).real
    coeff[np.abs(coeff) < COEFF_ZERO_ATOL] = 0.0
    return coeff


def choice_bits(n: int, index: int) -> list[int]:
    return [(index >> (n - 1 - j)) & 1 for j in range(n)]


def bell_operator(vectors: np.ndarray) -> np.ndarray:
    """B_n summed term by term: sum_c coeff(c) (x)_j (v[j, c_j] . sigma)."""
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    dots = np.einsum("jca,akl->jckl", vectors, SIGMA)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for index, coeff in enumerate(klyshko_coefficients(n)):
        if coeff == 0.0:
            continue
        term = np.ones((1, 1), dtype=complex)
        for j, c in enumerate(choice_bits(n, index)):
            term = np.kron(term, dots[j, c])
        total += coeff * term
    return total


def expectation(state: np.ndarray, vectors: np.ndarray) -> float:
    """<B_n> for a state vector (1-d) or a density matrix (2-d)."""
    b = bell_operator(vectors)
    if state.ndim == 1:
        return float(np.vdot(state, b @ state).real)
    return float(np.sum(state.T * b).real)


def quantum_max(n: int) -> float:
    return 2.0 ** ((n + 1) / 2)


def ghz(n: int, sign: int = 1) -> np.ndarray:
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = 1 / np.sqrt(2)
    amp[-1] = sign / np.sqrt(2)
    return amp


def werner_ghz(n: int, v: float) -> np.ndarray:
    """v |GHZ><GHZ| + (1-v) I / 2^n."""
    g = ghz(n)
    return v * np.outer(g, g.conj()) + (1 - v) * np.eye(2**n) / 2**n


def ladder(n: int) -> np.ndarray:
    """bound(k) = 2^((n-k+1)/2) for k = 0..n."""
    return 2.0 ** ((n - np.arange(n + 1) + 1) / 2)


def ladder_depth(value: float, n: int, atol: float = 1e-9) -> int | None:
    """n - k for the largest k with value <= bound(k); None above bound(0)."""
    bounds = ladder(n)
    if value > bounds[0] + atol:
        return None
    k = max(k for k in range(n + 1) if value <= bounds[k] + atol)
    return n - k


def symmetric_amplitudes(n: int, coeff) -> np.ndarray:
    """Normalized dense amplitudes of sum_j coeff[j] |j,n>: every basis
    string of Hamming weight j carries coeff[j]."""
    amp = np.asarray(coeff, dtype=complex)[popcount(n)]
    return amp / np.linalg.norm(amp)


def mm_residual(n: int, coeff) -> float:
    """Squared distance of the floor(n/2)-qubit partial spectrum from
    (1/(m+1), ..., 1/(m+1), 0, ..., 0), by reshape partial trace."""
    m = n // 2
    block = symmetric_amplitudes(n, coeff).reshape(2**m, 2 ** (n - m))
    w = np.sort(np.linalg.eigvalsh(block @ block.conj().T))[::-1]
    target = np.zeros(2**m)
    target[: m + 1] = 1.0 / (m + 1)
    return float(np.sum((w - target) ** 2))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases phi of |a - e^(i phi) b| for normalized a and b."""
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def x_post_state(n_rest: int, outcomes) -> np.ndarray:
    """GHZ+ after x-measurements: GHZ with sign (-1)^(number of -1 outcomes)."""
    minus = sum(1 for o in outcomes if o == -1)
    return ghz(n_rest, -1 if minus % 2 else 1)


def z_post_state(n_rest: int, outcome: int) -> np.ndarray:
    """GHZ after z-measurements that all read +1 (-1): all zeros (ones)."""
    amp = np.zeros(2**n_rest, dtype=complex)
    amp[0 if outcome == 1 else -1] = 1.0
    return amp
