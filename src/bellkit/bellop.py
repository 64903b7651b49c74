"""Recursive Klyshko correlation polynomial F_n, its multilinear expansion,
and the matching Hermitian Bell operator B_n.

The paper's recursion, from (F_1, F_1') = (2 A_1, 2 A_1'),

    F_n  = F_{n-1} (x) (A_n + A_n')/2 + F_{n-1}' (x) (A_n - A_n')/2
    F_n' = F_{n-1}' (x) (A_n + A_n')/2 - F_{n-1} (x) (A_n - A_n')/2

(the primed polynomial swaps every a_j with a_j') closes on G = F_n + i F_n':
G_n = G_{n-1} (x) ((1-i) A_n + (1+i) A_n')/2 with G_1 = 2 (A_1 + i A_1').  So
G is one Kronecker product, G = z_1 (x) ... (x) z_n with per-qubit factors
z_j = c_j0 A_j + c_j1 A_j', c_1 = (2, 2i) and c_j = ((1-i)/2, (1+i)/2) for
j >= 2 (_factors).  _fold builds G; the factor pairs choose the algebra, and
each caller takes what it needs from G:

    Pauli matrices (a_j.sigma, a_j'.sigma)   the dense B_n = (G + G^dagger)/2 (bell_operator)
      (_pauli_factors)                        and <B_n> = Re tr(rho G) (bell_expectation)
    the 3-vectors (a_j, a_j')                 Pauli weights W_n = Re G, <B_n> = W_n . T
    unit pair (e_0, e_1)                      the 2^n correlator coefficients, Re G
    +-1 pair ([1,1,-1,-1], [1,-1,1,-1])       F_n = Re G and F_n' = Im G on all 4^n
                                              assignments
    frame flip pair ((1, 1),                  G|s> = g_s |~s> in each qubit's frame:
      (rot_j, conj rot_j))                    the spectrum of B_n (_spectrum) and its
                                              top eigenvector (_top_eigenpair)

On the +-1 pairs every factor is 2(+-1 +- i) or one of +-1, +-i, and on the
unit pair a dyadic rational, so both tables are exact in float64.
<B_n> = W_n . T is linear in each z_j, which gives the optimizers closed-form
coordinate updates and the exact gradient and Hessian of <B_n> in the
settings.  Deterministic +-1 assignments can never push F_n above 2, while
B_n satisfies B_n^2 <= 2^(n+1) and reaches eigenvalue 2^((n+1)/2) at the GHZ
states, an exponentially growing gap that powers the entanglement-depth
certificates in :mod:`bellkit.certify`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .qstate import (MAX_QUBITS, PAULI_X, PAULI_Y, PAULI_Z, PureState, State, _contract_leading,
                     _contract_pairs, _read_json, as_bases, require_finite, require_int)

_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
MAX_OPERATOR_QUBITS = 12   # dense 2^n operators
MAX_ENUM_QUBITS = 10       # 4^n assignment enumeration
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class Settings:
    """Per-qubit measurement pair: vectors[j, 0] = a_j, vectors[j, 1] = a_j'."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = require_finite(np.array(self.vectors, dtype=float), "measurement directions")
        if arr.ndim != 3 or arr.shape[1:] != (2, 3) or arr.shape[0] < 1:
            raise ValueError(f"expected shape (n, 2, 3), got {arr.shape}")
        as_bases(arr.reshape(-1, 3), 2 * arr.shape[0])
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "Settings":
        return cls(np.array([[a, ap] for a, ap in pairs], dtype=float))

    @classmethod
    def from_xz_angles(cls, angles: Iterable[tuple[float, float]]) -> "Settings":
        """Directions in the xz-plane; the angle is measured from +z."""
        def vec(t):
            return [np.sin(t), 0.0, np.cos(t)]
        return cls.from_pairs([(vec(a), vec(ap)) for a, ap in angles])

    def to_json(self) -> list:
        return [{"a": list(map(float, a)), "a_prime": list(map(float, ap))}
                for a, ap in self.vectors]

    @classmethod
    def from_json(cls, obj: list) -> "Settings":
        return cls.from_pairs([(entry["a"], entry["a_prime"]) for entry in obj])

    @classmethod
    def load(cls, path) -> "Settings":
        return _read_json(path, cls.from_json)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def _factors(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(z, c): the factors z[j] = c[j, 0] A_j + c[j, 1] A_j' of G for factor
    pairs of shape (n, 2, ...), and their weights c."""
    pairs = np.asarray(pairs)
    c = np.empty((pairs.shape[0], 2), dtype=complex)
    c[0] = 2, 2j
    c[1:] = (1 - 1j) / 2, (1 + 1j) / 2
    return np.einsum("jx,jx...->j...", c, pairs), c


def _kron(factors) -> np.ndarray:
    """np.kron over equal-rank vectors or matrices, first factor most significant:
    np.multiply.outer forms the same products without np.kron's per-call overhead."""
    out = reduce(np.multiply.outer, factors)
    if np.ndim(factors[0]) == 1:
        return out.ravel()
    k = out.ndim // 2
    return out.transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2)).reshape(
        np.prod(out.shape[::2]), -1)


def _pauli_factors(vectors: np.ndarray) -> np.ndarray:
    """The factors z_j.sigma of G over the pairs (a_j.sigma, a_j'.sigma), shape
    (n, 2, 2), for arbitrary (possibly non-unit) 3-vectors."""
    return np.einsum("ja,abc->jbc", _factors(vectors)[0], _PAULIS)


def _fold(pairs) -> np.ndarray:
    """G = F_n + i F_n' = z_1 (x) ... (x) z_n from the factor pairs
    (A_j, A_j'), j = 1..n."""
    return _kron(_factors(pairs)[0])


def _assignment_table(n: int) -> np.ndarray:
    """G on all 4^n deterministic assignments, qubit 1 most significant and
    each qubit's (a, a') ordered (1, 1), (1, -1), (-1, 1), (-1, -1); every
    entry is a Gaussian integer, exact in float64."""
    n = require_int(n, "n", 1, MAX_ENUM_QUBITS)
    return _fold([(np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1]))] * n)


def lhv_max(n: int) -> int:
    """Exact max of F_n = Re G over all 4^n deterministic assignments
    (equals 2), read from the exact table of _assignment_table."""
    return int(_assignment_table(n).real.max())


@dataclass(frozen=True)
class CorrelatorPoly:
    """Multilinear expansion F_n = sum_c coeff(c) prod_j a_j^(c_j).

    Choice strings are 0/1 tuples per qubit (0 = unprimed); only nonzero
    coefficients are stored, in a read-only mapping.
    """

    n: int
    coeffs: Mapping

    def __post_init__(self):
        # expand_correlators hands one cached instance to every caller
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))

    def coefficient(self, choice: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(choice), Fraction(0))

    def items(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)


@lru_cache(maxsize=None, typed=True)   # so True or 3.0 never hits the entry of 1 or 3
def expand_correlators(n: int) -> CorrelatorPoly:
    """Exact expansion of F_n over choice strings, computed once per n.

    Re G over the unit pair (e_0, e_1) gives the 2^n coefficients indexed
    by choice string (qubit 1 most significant); they are dyadic rationals,
    exact in float64, and the nonzero ones become Fractions in sorted order.
    """
    n = require_int(n, "n", 1, MAX_QUBITS)
    table = _fold([np.eye(2)] * n).real.tolist()
    return CorrelatorPoly(n, {choice: Fraction(v) for choice, v
                              in zip(itertools.product((0, 1), repeat=n), table) if v})


# Row mu holds sigma_mu[j, i] at the interleaved index 2i + j, so that a row
# dotted with the (i, j) pair of one qubit of rho gives tr(rho sigma_mu).
_PAULI_TRACE_ROWS = np.array([p.T.ravel() for p in _PAULIS])


def _correlation_tensor(state: State) -> np.ndarray:
    """Full-weight Pauli correlations T[mu_1..mu_n] = tr(rho sigma_mu1 (x) ...
    (x) sigma_mun), flattened with qubit 1 most significant (3^n real
    entries).  <B_n> = W_n . T with the Pauli weights W_n = Re _fold(vectors)
    is linear in T, so one T serves every setting."""
    rho = np.outer(state.amp, state.amp.conj()) if isinstance(state, PureState) else state.mat
    return _contract_pairs(rho, [_PAULI_TRACE_ROWS] * state.n)


def bell_operator(st: Settings) -> np.ndarray:
    """Dense B_n = (G + G^dagger)/2, G the Kronecker product of _pauli_factors."""
    if st.n > MAX_OPERATOR_QUBITS:
        raise ValueError(f"dense operator supports n <= {MAX_OPERATOR_QUBITS}")
    g = _kron(_pauli_factors(st.vectors))
    g += g.conj().T
    g *= 0.5
    return g


def bell_expectation(state: State, st: Settings) -> float:
    """<B_n> = Re tr(rho G), contracting the state with each z_j.sigma in turn."""
    if state.n != st.n:
        raise ValueError(f"state has {state.n} qubits but settings have {st.n}")
    ops = _pauli_factors(st.vectors)
    if isinstance(state, PureState):
        return float(np.vdot(state.amp, _contract_leading(state.amp, ops).ravel()).real)
    return float(_contract_pairs(state.mat, [op.T.reshape(1, 4) for op in ops])[0])


def _flip_weights(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_s = g_s + conj(g_~s) for unit 3-vectors, and the a_j x a_j'.

    In the frame a_j = e1, a_j' = cos t e1 + sin t e2 (cos t = a_j.a_j',
    sin t = |a_j x a_j'|, any e2 if they are parallel), z_j.sigma sends |0>
    to beta_j |1> and |1> to alpha_j |0>, beta_j, alpha_j = c_j0 + c_j1
    rot_j^(+-1) with rot_j = e^(i t).  So G|s> = g_s |~s>, g = _fold of the
    frame flip pairs ((1, 1), (rot_j, conj rot_j)), and B_n splits into 2x2
    blocks on span{|s>, |~s>}: B_n |s> = h_s/2 |~s>."""
    a, ap = vectors[:, 0], vectors[:, 1]
    cross = np.cross(a, ap)
    rot = np.sum(a * ap, axis=1) + 1j * np.linalg.norm(cross, axis=1)
    g = _fold([((1, 1), (r, r.conjugate())) for r in rot])
    return g + g[::-1].conj(), cross


def _spectrum(vectors: np.ndarray) -> np.ndarray:
    """The 2^n eigenvalues of B_n for unit 3-vectors, in closed form.

    Each 2x2 block of _flip_weights has eigenvalues +-|h_s|/2, with h_s =
    conj(h_~s); + goes to the s with leading bit 0.  As |beta_j|^2 +
    |alpha_j|^2 = 2 |z_j|^2 (16 at j = 1, then 2), Cauchy-Schwarz on
    |h_s| <= |g_s| + |g_~s| gives the paper's B_n^2 <= 2^(n+1)."""
    h = _flip_weights(vectors)[0]
    return np.abs(h) / 2 * np.repeat([1, -1], len(h) // 2)


def _top_eigenpair(vectors: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of B_n for unit 3-vectors and a unit eigenvector, in
    closed form: for s = argmax |h_s| (_flip_weights), |h_s|/2 and
    (|u_s> + (h_s/|h_s|) |u_~s>)/sqrt(2) with |u_s> = (x)_j U_j|s_j>.  Column 0
    of the frame U_j is the +1 eigenvector of e3.sigma (the larger column of
    I + e3.sigma), e3 = e1 x e2 the unit a_j x a_j' kept orthogonal to a_j (any
    such vector if the pair is parallel); column 1 is a_j.sigma column 0."""
    h, cross = _flip_weights(vectors)
    s = int(np.argmax(np.abs(h)))
    top = abs(h[s])
    a, idx = vectors[:, 0], np.arange(len(vectors))
    e3 = cross - np.einsum("ja,ja->j", cross, a)[:, None] * a
    for j in np.flatnonzero(~e3.any(axis=1)):
        e3[j] = np.cross(a[j], np.eye(3)[np.argmin(np.abs(a[j]))])
    e3 /= np.linalg.norm(e3, axis=1, keepdims=True)
    u0 = (np.eye(2) + np.einsum("ja,abc->jbc", e3, _PAULIS))[idx, :, (e3[:, 2] < 0).astype(int)]
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
    frames = np.stack([u0, np.einsum("ja,abc,jc->jb", a, _PAULIS, u0)], axis=2)
    bits = (s >> idx[::-1]) & 1
    vec = _kron(frames[idx, :, bits]) + h[s] / top * _kron(frames[idx, :, 1 - bits])
    return top / 2, vec / np.sqrt(2)


@dataclass(frozen=True)
class BoundCheck:
    lambda_max_sq: float
    bound: float
    passed: bool


def bound_check(st: Settings) -> BoundCheck:
    """Largest eigenvalue of B_n^2 (from _spectrum) against its cap 2^(n+1)."""
    if st.n > MAX_QUBITS:
        raise ValueError(f"bound_check supports n <= {MAX_QUBITS}")
    lam_sq = float(np.max(_spectrum(st.vectors) ** 2))
    bound = 2.0 ** (st.n + 1)
    return BoundCheck(lam_sq, bound, lam_sq <= bound + BOUND_SLACK)


def ghz_optimal_settings(n: int) -> Settings:
    """Settings that make the GHZ state saturate <B_n> = 2^((n+1)/2).

    All directions lie in the xy-plane: a_j at angle
    phi_j = (j-1) * (-1)^(n+1) * pi / (2n) from the x-axis and a_j' at
    phi_j + s pi/2.  On the GHZ state a product of xy-plane directions has
    expectation Re e^(i sum of angles), so <B_n> = Re F_n(z) with every
    direction replaced by z = e^(i angle).  F_n = (G + H)/2, where
    G, H = F_n +- i F_n' = 2 (a_1 +- i a_1') prod_{j>1} (e^(-+i pi/4) a_j
    + e^(+-i pi/4) a_j') / sqrt(2); z_j' = s i z_j kills G at s = +1 and H at
    s = -1, leaving <B_n> = 2^((n+1)/2) cos(sum_j phi_j + s (n-1) pi/4) with
    sum_j phi_j = (-1)^(n+1) (n-1) pi/4.  The maximum takes s = -1 when
    n = 3 (mod 4) and s = +1 otherwise; at n = 1 (mod 4) both signs tie and
    +1 is kept.
    """
    n = require_int(n, "n", 2)
    sign = -1 if n % 4 == 3 else 1

    def xy(phi: float) -> np.ndarray:
        return np.array([np.cos(phi), np.sin(phi), 0.0])

    vecs = []
    for j in range(1, n + 1):
        phi = (j - 1) * ((-1) ** (n + 1)) * np.pi / (2 * n)
        vecs.append((xy(phi), xy(phi + sign * np.pi / 2)))
    return Settings.from_pairs(vecs)
