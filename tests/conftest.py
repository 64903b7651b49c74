"""Shared helpers: dense oracle states built directly from amplitudes,
independent of the symmetric-state algebra under test."""

from __future__ import annotations

import numpy as np
import pytest

from bellkit.qstate import DensityMatrix, PureState, pauli_dot


def ghz_pure(n: int, sign: int = 1) -> PureState:
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = 1 / np.sqrt(2)
    amp[-1] = sign / np.sqrt(2)
    return PureState(n, amp)


def kron_state(a: PureState, b: PureState) -> PureState:
    """a (x) b by np.kron; a's qubits come first (most significant)."""
    return PureState(a.n + b.n, np.kron(a.amp, b.amp))


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, vec)


def random_density(n: int, rng: np.random.Generator, rank: int = 3) -> DensityMatrix:
    d = 2**n
    mat = np.zeros((d, d), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for w in weights:
        psi = random_pure(n, rng)
        mat += w * np.outer(psi.amp, psi.amp.conj())
    return DensityMatrix(n, mat)


def random_unit_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, 2, 3))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


def kron_chain_operator(vectors: np.ndarray) -> np.ndarray:
    """Reference B_n as a Kronecker chain of 2x2 matrices for arbitrary
    (possibly non-unit) 3-vectors:
    B_n = B_{n-1} (x) (a_n + a_n').sigma/2 + B_{n-1}' (x) (a_n - a_n').sigma/2."""
    b = 2.0 * pauli_dot(vectors[0, 0])
    bp = 2.0 * pauli_dot(vectors[0, 1])
    for a, ap in vectors[1:]:
        m_plus = 0.5 * (pauli_dot(a) + pauli_dot(ap))
        m_minus = 0.5 * (pauli_dot(a) - pauli_dot(ap))
        b, bp = (np.kron(b, m_plus) + np.kron(bp, m_minus),
                 np.kron(bp, m_plus) - np.kron(b, m_minus))
    return b


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
