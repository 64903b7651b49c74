"""Dense n-qubit state engine: construction, tensor products, operator
application, partial traces, expectations and seeded projective sampling.

Conventions used throughout the package:

* Qubit 1 is the most significant bit of an amplitude (or matrix) index,
  so for n=3 the basis state |100> sits at index 4.
* Qubit indices in public APIs are 1-based.
* A measurement direction is a unit 3-vector d on the Bloch sphere; the +1
  outcome corresponds to the +1 eigenvector of d.sigma.
* Every operation is a pure function of its inputs.  States are immutable
  after construction (their arrays are marked read-only) and safe to share
  across concurrent readers.
* All stochastic operations take an explicit integer seed and use numpy's
  PCG64 generator; derived sub-streams are spawned by counter so results do
  not depend on evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

MAX_QUBITS = 14

NORM_ATOL = 1e-12           # pure-state normalization after construction
HERMITIAN_ATOL = 1e-12      # density-matrix Hermiticity
TRACE_ATOL = 1e-12          # density-matrix unit trace
EIGENVALUE_FLOOR = -1e-10   # density-matrix positivity slack
UNIT_ATOL = 1e-12           # Bloch-vector unit norm
SPECTRUM_HERMITIAN_ATOL = 1e-10
SPECTRUM_RESIDUAL_RTOL = 1e-8
PROBABILITY_ATOL = 1e-12    # outcome distributions sum to 1 within this

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-derived independent substream (stable across worker layouts)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Read-only table of the number of 1 bits of every index 0..2^n-1."""
    table = np.array([bin(i).count("1") for i in range(2**n)])
    table.setflags(write=False)
    return table


def pauli_dot(d: Sequence[float]) -> np.ndarray:
    """2x2 Hermitian matrix d.sigma.  No unit-norm requirement here; callers
    that need one validate separately."""
    v = np.asarray(d, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def require_finite(values, what: str) -> np.ndarray:
    """Return values as an array, raising ValueError on any NaN or infinity."""
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (no NaN or infinity)")
    return arr


def require_unit(d: Sequence[float]) -> np.ndarray:
    """Return d as a float array, raising unless ||d|| = 1 within UNIT_ATOL."""
    v = np.asarray(d, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_ATOL:
        raise ValueError(f"direction must be unit norm, got |d| = {np.linalg.norm(v)!r}")
    return v


def as_bases(bases, n: int) -> np.ndarray:
    """Coerce per-qubit measurement directions to an (n, 3) array of unit vectors."""
    arr = np.asarray(bases, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"expected {n} direction 3-vectors, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_ATOL:
        raise ValueError("all measurement directions must be unit vectors")
    return arr


def z_bases(n: int) -> np.ndarray:
    return np.tile([0.0, 0.0, 1.0], (n, 1))


def x_bases(n: int) -> np.ndarray:
    return np.tile([1.0, 0.0, 0.0], (n, 1))


def y_bases(n: int) -> np.ndarray:
    return np.tile([0.0, 1.0, 0.0], (n, 1))


def _check_n(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


@dataclass(frozen=True)
class PureState:
    """Pure state of ``n`` qubits as 2^n complex amplitudes.

    The constructor normalizes (and rejects the zero vector), so the norm is
    1 within NORM_ATOL afterwards.
    """

    n: int
    amp: np.ndarray

    def __post_init__(self):
        n = _check_n(self.n)
        amp = require_finite(np.array(self.amp, dtype=complex).reshape(-1), "amplitudes")
        if amp.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes for n={n}, got {amp.shape[0]}")
        with np.errstate(over="ignore", under="ignore"):
            norm = np.linalg.norm(amp)
        if not 1e-150 <= norm < np.inf:    # the square sum over- or underflowed
            scale = np.max(np.abs(amp))
            if scale == 0:
                raise ValueError("cannot normalize the zero vector")
            amp = amp / scale
            norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_ATOL:
            amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amp", amp)

    @property
    def dim(self) -> int:
        return 2**self.n

    @classmethod
    def basis(cls, n: int, index: int) -> "PureState":
        """Computational basis state |index> (qubit 1 = most significant bit)."""
        amp = np.zeros(2**n, dtype=complex)
        amp[index] = 1.0
        return cls(n, amp)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.n, np.outer(self.amp, self.amp.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of ``n`` qubits: Hermitian, PSD, unit-trace 2^n x 2^n matrix.

    Construction validates all three invariants and fails loudly otherwise.
    """

    n: int
    mat: np.ndarray

    def __post_init__(self):
        n = _check_n(self.n)
        mat = require_finite(np.array(self.mat, dtype=complex), "density matrix entries")
        d = 2**n
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix for n={n}, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(mat)!r}")
        if np.linalg.eigvalsh(mat).min() < EIGENVALUE_FLOOR:
            raise ValueError("density matrix must be positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return 2**self.n


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted in descending order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product a (x) b; a's qubits come first (most significant)."""
    if a.n + b.n > MAX_QUBITS:
        raise ValueError(f"tensor product would exceed {MAX_QUBITS} qubits")
    return PureState(a.n + b.n, np.kron(a.amp, b.amp))


def _apply_1q(arr: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 2x2 matrix to one tensor axis of arr."""
    out = np.tensordot(m, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _check_qubit(qubit: int, n: int) -> int:
    q = int(qubit)
    if not 1 <= q <= n:
        raise ValueError(f"qubit index must be in [1, {n}], got {q}")
    return q


def pauli_expect(state: State, qubit: int, d: Sequence[float]) -> float:
    """Expectation <d.sigma> on one qubit; d must be a unit vector."""
    v = require_unit(d)
    q = _check_qubit(qubit, state.n)
    op = pauli_dot(v)
    if isinstance(state, PureState):
        arr = state.amp.reshape([2] * state.n)
        applied = _apply_1q(arr, op, q - 1)
        return float(np.vdot(state.amp, applied.reshape(-1)).real)
    if state.n == 1:
        return float(np.trace(state.mat @ op).real)
    reduced = partial_trace(state, {q})
    return float(np.trace(reduced.mat @ op).real)


def partial_trace(state: State, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not in ``keep`` (a nonempty proper subset).

    Kept qubits appear in the result in ascending original order, the
    smallest index becoming the new most significant qubit.
    """
    n = state.n
    kept = sorted({_check_qubit(q, n) for q in keep})
    if not kept:
        raise ValueError("keep set must be nonempty")
    if len(kept) == n:
        raise ValueError("keep set must be a proper subset of the qubits")
    keep0 = [q - 1 for q in kept]
    k = len(keep0)
    if isinstance(state, PureState):
        rest = [q for q in range(n) if q not in keep0]
        arr = state.amp.reshape([2] * n).transpose(keep0 + rest).reshape(2**k, 2 ** (n - k))
        return DensityMatrix(k, arr @ arr.conj().T)
    arr = state.mat.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in keep0]
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    for p, q in enumerate(keep0):
        row[q], col[q] = p, k + p
    for t, q in enumerate(traced):
        row[q] = col[q] = 2 * k + t
    subs = [row[q] for q in range(n)] + [col[q] for q in range(n)]
    out = np.einsum(arr, subs, list(range(2 * k)))
    return DensityMatrix(k, out.reshape(2**k, 2**k))


def spectrum(h: Union[np.ndarray, DensityMatrix]) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The eigendecomposition is sanity-checked by reconstruction: the residual
    must not exceed SPECTRUM_RESIDUAL_RTOL times the spectral norm.
    """
    a = h.mat if isinstance(h, DensityMatrix) else np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(a - a.conj().T)) > SPECTRUM_HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, vecs = np.linalg.eigh(a)
    resid = np.max(np.abs((vecs * w) @ vecs.conj().T - a))
    scale = max(float(np.max(np.abs(w))), 1e-300)
    if resid > SPECTRUM_RESIDUAL_RTOL * scale:
        raise RuntimeError("eigendecomposition reconstruction residual too large")
    return Spectrum(np.sort(w)[::-1])


def power_max_eigenvalue(h: np.ndarray, iters: int = 5000, tol: float = 1e-13,
                         seed: int = 7) -> float:
    """Largest eigenvalue via shifted power iteration (cross-check for spectrum).

    The Gershgorin shift makes h + shift*I positive so the dominant
    eigenvalue of the shifted matrix is lambda_max + shift.
    """
    a = np.asarray(h, dtype=complex)
    shift = float(np.max(np.sum(np.abs(a), axis=1)))
    m = a + shift * np.eye(a.shape[0])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
    v /= np.linalg.norm(v)
    last = None
    for _ in range(iters):
        w = m @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return -shift
        v = w / nrm
        rq = float(np.vdot(v, m @ v).real)
        if last is not None and abs(rq - last) < tol * max(1.0, abs(rq)):
            last = rq
            break
        last = rq
    return last - shift


def _eigenbasis_rows(d: np.ndarray) -> np.ndarray:
    """Rows are <v+| and <v-| for d.sigma, so M @ psi rotates a qubit into the
    measurement eigenbasis (row 0 <-> outcome +1)."""
    dz = min(1.0, max(-1.0, float(d[2])))
    theta = np.arccos(dz)
    st = np.sin(theta)
    phase = 1.0 + 0j if st < 1e-15 else (d[0] + 1j * d[1]) / st
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    v_plus = np.array([c, phase * s], dtype=complex)
    v_minus = np.array([s, -phase * c], dtype=complex)
    return np.array([v_plus.conj(), v_minus.conj()])


@dataclass(frozen=True)
class MeasureResult:
    """One projective-measurement sample: per-qubit outcomes (ascending qubit
    order of the measured subset), the renormalized post-state on the
    unmeasured qubits, and the Born probability of the sampled branch."""

    outcomes: tuple[int, ...]
    post: PureState
    probability: float


def measure_sample(state: PureState, bases, subset: Iterable[int], seed: int) -> MeasureResult:
    """Sample a product projective measurement on ``subset`` (Born rule).

    ``bases`` gives one direction per qubit (length n); entries for
    unmeasured qubits are ignored.  At least one qubit must remain
    unmeasured, since the post-state is returned with the measured qubits
    tensored out.  Deterministic given ``seed``.
    """
    n = state.n
    dirs = as_bases(bases, n)
    qubits = sorted({_check_qubit(q, n) for q in subset})
    if not qubits:
        raise ValueError("subset must be nonempty")
    if len(qubits) == n:
        raise ValueError("at least one qubit must remain unmeasured")
    arr = state.amp.reshape([2] * n)
    for q in qubits:
        arr = _apply_1q(arr, _eigenbasis_rows(dirs[q - 1]), q - 1)
    meas_axes = [q - 1 for q in qubits]
    rest_axes = tuple(i for i in range(n) if i not in set(meas_axes))
    probs = np.abs(arr) ** 2
    if rest_axes:
        probs = probs.sum(axis=rest_axes)
    probs = probs.reshape(-1)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    idx = int(rng.choice(probs.size, p=probs))
    k = len(qubits)
    bits = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
    slicer: list = [slice(None)] * n
    for axis, bit in zip(meas_axes, bits):
        slicer[axis] = bit
    branch = arr[tuple(slicer)].reshape(-1)
    if np.linalg.norm(branch) < 1e-150:
        raise RuntimeError("sampled a zero-probability branch (internal error)")
    outcomes = tuple(1 if b == 0 else -1 for b in bits)
    return MeasureResult(outcomes, PureState(n - k, branch), float(probs[idx]))


def _contract_pairs(mat: np.ndarray, weights) -> np.ndarray:
    """Contract each qubit's (row, col) index pair of a 2^n x 2^n Hermitian
    matrix with that qubit's weight rows, ``weights[j]`` of shape (K_j, 4)
    holding the weight of pair (i, j) at column 2i + j.  Every row weighs a
    Hermitian 2x2 matrix, so the prod K_j results are real; they come back
    flattened with qubit 1 most significant."""
    n = len(weights)
    arr = mat.reshape((2,) * (2 * n)).transpose([ax for q in range(n) for ax in (q, n + q)])
    for w in weights:
        # contract the leading qubit's pair and rotate its new index to the back
        arr = (w @ arr.reshape(4, -1)).T
    return arr.real.ravel()


def _outcome_table(state: State, rows) -> np.ndarray:
    """Born probabilities of every joint outcome of a product measurement.

    ``rows[j]`` (shape (K_j, 2)) holds the bra rows <r| of qubit j+1; entry
    [k_1, ..., k_n] of the result is the probability of projecting onto
    |r_1k_1> (x) ... (x) |r_nk_n>.  One contraction per qubit.
    """
    if isinstance(state, PureState):
        arr = state.amp
        for r in rows:
            # contract the leading amplitude axis and rotate the K outcomes to the back
            arr = (r @ arr.reshape(2, -1)).T
        table = np.abs(arr) ** 2
    else:
        # <r|rho|r> weighs the (i, j) entry of a qubit's pair by r[i] conj(r[j])
        outer = [(r[:, :, None] * r[:, None, :].conj()).reshape(len(r), 4) for r in rows]
        table = _contract_pairs(state.mat, outer)
    return table.reshape([len(r) for r in rows])


def _born_distribution(probs: np.ndarray) -> np.ndarray:
    """Clip round-off negatives and renormalize, raising unless the raw
    probabilities sum to 1 within PROBABILITY_ATOL."""
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > PROBABILITY_ATOL:
        raise RuntimeError(f"outcome probabilities sum to {total!r}")
    return probs / total


def outcome_distribution(state: State, bases) -> np.ndarray:
    """Joint outcome probabilities for measuring every qubit along ``bases``.

    The result has 2^n entries indexed by outcome bits in qubit order
    (qubit 1 = most significant bit); bit 0 means outcome +1.
    """
    dirs = as_bases(bases, state.n)
    table = _outcome_table(state, [_eigenbasis_rows(d) for d in dirs])
    return _born_distribution(table.reshape(-1))


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if a.n != b.n:
        raise ValueError("states act on different qubit counts")
    return complex(np.vdot(a.amp, b.amp))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2."""
    return abs(overlap(a, b)) ** 2


# --- JSON state files -------------------------------------------------------
#
# Pure states:     {"n": n, "amp": [[re, im], ...]}          (length 2^n)
# Density matrices: {"n": n, "mat": [[[re, im], ...], ...]}  (row-major 2^n x 2^n)


def state_to_json(state: State) -> dict:
    if isinstance(state, PureState):
        return {"n": state.n, "amp": [[z.real, z.imag] for z in state.amp]}
    return {"n": state.n,
            "mat": [[[z.real, z.imag] for z in row] for row in state.mat]}


def state_from_json(obj: dict) -> State:
    n = int(obj["n"])
    if "amp" in obj:
        amp = np.array([complex(re, im) for re, im in obj["amp"]])
        return PureState(n, amp)
    if "mat" in obj:
        mat = np.array([[complex(re, im) for re, im in row] for row in obj["mat"]])
        return DensityMatrix(n, mat)
    raise ValueError("state JSON needs an 'amp' or 'mat' field")


def save_state(path, state: State) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)


def load_state(path) -> State:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
