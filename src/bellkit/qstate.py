"""Dense n-qubit state engine: construction, operator application, partial
traces, expectations and seeded projective sampling.

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
import math
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


def require_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """Return value as a Python int, raising ValueError unless it is an
    integer (not a bool or float) in [low, high]; None leaves a side open."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return int(value)


def as_bases(bases, n: int) -> np.ndarray:
    """Coerce per-qubit measurement directions to an (n, 3) array of unit vectors."""
    arr = np.asarray(bases, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"expected {n} direction 3-vectors, got shape {arr.shape}")
    norms = np.sqrt(np.add.reduce(arr * arr, axis=1))   # np.linalg.norm(arr, axis=1)
    if not np.abs(norms - 1.0).max() <= UNIT_ATOL:       # NaN fails too
        raise ValueError("all measurement directions must be unit vectors")
    return arr


def z_bases(n: int) -> np.ndarray:
    return np.tile([0.0, 0.0, 1.0], (n, 1))


def x_bases(n: int) -> np.ndarray:
    return np.tile([1.0, 0.0, 0.0], (n, 1))


def _check_n(n: int) -> int:
    return require_int(n, "qubit count", 1, MAX_QUBITS)


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
        # np.linalg.norm bit for bit (the same dots and IEEE sqrt) without its
        # overhead; the dots still warn on overflow
        re, im = amp.real, amp.imag
        with np.errstate(over="ignore", under="ignore"):
            norm = math.sqrt(float(re.dot(re)) + float(im.dot(im)))
        if not 1e-150 <= norm < math.inf:    # the square sum over- or underflowed
            scale = np.max(np.abs(amp))
            if scale == 0:
                raise ValueError("cannot normalize the zero vector")
            amp = amp / scale
            norm = np.linalg.norm(amp)
        # Born probabilities sum to norm**2, so a norm inside NORM_ATOL could
        # still break PROBABILITY_ATOL; keep the bits only well inside it
        if abs(norm - 1.0) > PROBABILITY_ATOL / 4:
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
        n = _check_n(n)
        index = require_int(index, "index", 0, 2**n - 1)
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
        trace = np.trace(mat).real
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(mat)!r}")
        if np.linalg.eigvalsh(mat).min() < EIGENVALUE_FLOOR:
            raise ValueError("density matrix must be positive semidefinite")
        # Born probabilities sum to the trace: rescale unless well inside PROBABILITY_ATOL
        if abs(trace - 1.0) > PROBABILITY_ATOL / 2:
            mat = mat / trace
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


def _check_qubit(qubit: int, n: int) -> int:
    return require_int(qubit, "qubit index", 1, n)


def pauli_expect(state: State, qubit: int, d: Sequence[float]) -> float:
    """Expectation <d.sigma> on one qubit; d must be a unit vector."""
    q = _check_qubit(qubit, state.n)
    op = pauli_dot(as_bases([d], 1)[0])
    if isinstance(state, PureState):
        a = np.moveaxis(state.amp.reshape([2] * state.n), q - 1, 0).reshape(2, -1)
        return float(np.vdot(a, op @ a).real)
    rows = [np.eye(2).reshape(1, 4)] * state.n   # tr(rho (I (x) .. op .. (x) I))
    rows[q - 1] = op.T.reshape(1, 4)
    return float(_contract_pairs(state.mat, rows)[0])


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
    k = len(kept)
    order = [q - 1 for q in kept] + [q for q in range(n) if q + 1 not in kept]
    if isinstance(state, PureState):
        arr = state.amp.reshape([2] * n).transpose(order).reshape(2**k, 2 ** (n - k))
        return DensityMatrix(k, arr @ arr.conj().T)
    arr = state.mat.reshape([2] * (2 * n)).transpose(order + [n + q for q in order])
    arr = arr.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return DensityMatrix(k, np.einsum("ajbj->ab", arr))


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


def _eigenbasis_rows(d: np.ndarray) -> np.ndarray:
    """Rows are <v+| and <v-| for d.sigma, so M @ psi rotates a qubit into the
    measurement eigenbasis (row 0 <-> outcome +1).  The result is shared
    and read-only."""
    return _eigenbasis_rows_of(np.asarray(d, dtype=float).tobytes())


@lru_cache(maxsize=1024)
def _eigenbasis_rows_of(key: bytes) -> np.ndarray:
    # keyed by bytes, so inputs equal as floats but not as bits (-0.0, 0.0) never share rows
    d = np.frombuffer(key)
    # not arccos(d_z): it loses digits near the poles, where |phase| would
    # drift from 1 by eps/theta^2 and the rows would stop being unitary
    st = float(np.hypot(d[0], d[1]))
    theta = np.arctan2(st, d[2])
    phase = 1.0 + 0j if st < 1e-15 else (d[0] + 1j * d[1]) / st
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    v_plus = np.array([c, phase * s], dtype=complex)
    v_minus = np.array([s, -phase * c], dtype=complex)
    rows = np.array([v_plus.conj(), v_minus.conj()])
    rows.setflags(write=False)
    return rows


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

    ``bases`` gives one unit direction per qubit (length n, every entry
    validated); only the entries of the measured qubits are used.  At least
    one qubit must remain unmeasured, since the post-state is returned with
    the measured qubits tensored out.  Deterministic given ``seed``.

    The measured qubits are rotated into their eigenbases with one
    contraction each; column j of the result is the unnormalized branch of
    joint outcome j, so the marginal is the column sums of |.|^2 and the
    post-state is the one sampled column.
    """
    if not isinstance(state, PureState):
        raise TypeError(f"measure_sample needs a PureState, got {type(state).__name__}")
    n = state.n
    dirs = as_bases(bases, n)
    seed = require_int(seed, "seed", 0)
    meas = sorted({_check_qubit(q, n) - 1 for q in subset})
    if not meas:
        raise ValueError("subset must be nonempty")
    if len(meas) == n:
        raise ValueError("at least one qubit must remain unmeasured")
    k = len(meas)
    rest = [i for i in range(n) if i not in meas]
    amp = state.amp.reshape([2] * n).transpose(meas + rest).reshape(-1)
    arr = _contract_leading(amp, [_eigenbasis_rows(dirs[q]) for q in meas])
    arr = arr.reshape(2 ** (n - k), 2**k)
    mass = (np.abs(arr) ** 2).sum(axis=0)
    probs = _born_distribution(mass)
    # the inverse-CDF draw of Generator.choice(p=probs), without re-validating probs
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(np.random.default_rng(seed).random(), side="right"))
    if mass[idx] < 1e-300:
        raise RuntimeError("sampled a zero-probability branch (internal error)")
    outcomes = tuple(-1 if (idx >> (k - 1 - i)) & 1 else 1 for i in range(k))
    return MeasureResult(outcomes, PureState(n - k, arr[:, idx]), float(probs[idx]))


def _contract_leading(amp: np.ndarray, rows) -> np.ndarray:
    """Contract the leading qubit axes of flat amplitudes with bra rows, one
    qubit per ``rows`` entry (shape (K_j, 2)).  Each step rotates the new K_j
    outcome index to the back, so the result, flattened, is indexed by the
    untouched qubits first and then the outcomes in ``rows`` order."""
    arr = amp
    for r in rows:
        arr = (r @ arr.reshape(2, -1)).T
    return arr


def _contract_pairs(mat: np.ndarray, weights) -> np.ndarray:
    """Contract each qubit's (row, col) index pair of a 2^n x 2^n Hermitian
    matrix with that qubit's weight rows, ``weights[j]`` of shape (K_j, 4)
    holding the weight of pair (i, j) at column 2i + j.  The real parts of
    the prod K_j results come back (the results are real when every row
    weighs a Hermitian 2x2 matrix), flattened with qubit 1 most significant."""
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
        table = np.abs(_contract_leading(state.amp, rows)) ** 2
    else:
        # <r|rho|r> weighs the (i, j) entry of a qubit's pair by r[i] conj(r[j])
        outer = [(r[:, :, None] * r[:, None, :].conj()).reshape(len(r), 4) for r in rows]
        table = _contract_pairs(state.mat, outer)
    return table.reshape([len(r) for r in rows])


def _born_distribution(probs: np.ndarray) -> np.ndarray:
    """Distributions along the last axis: clip round-off negatives and
    renormalize each row, raising unless every row's raw probabilities sum to
    1 within PROBABILITY_ATOL (a NaN sum fails the check)."""
    probs = np.maximum(probs, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    worst = float(total.flat[np.abs(total - 1.0).argmax()])   # argmax picks a NaN first
    if not abs(worst - 1.0) <= PROBABILITY_ATOL:
        raise RuntimeError(f"outcome probabilities sum to {worst!r}")
    return np.divide(probs, total, out=probs)


def outcome_distribution(state: State, bases) -> np.ndarray:
    """Joint outcome probabilities for measuring every qubit along ``bases``.

    The result has 2^n entries indexed by outcome bits in qubit order
    (qubit 1 = most significant bit); bit 0 means outcome +1.
    """
    dirs = as_bases(bases, state.n)
    table = _outcome_table(state, [_eigenbasis_rows(d) for d in dirs])
    return _born_distribution(table.reshape(-1))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2."""
    if a.n != b.n:
        raise ValueError("states act on different qubit counts")
    return abs(complex(np.vdot(a.amp, b.amp))) ** 2


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
    n = obj["n"]
    if "amp" in obj:
        return PureState(n, [complex(re, im) for re, im in obj["amp"]])
    if "mat" in obj:
        return DensityMatrix(n, [[complex(re, im) for re, im in row] for row in obj["mat"]])
    raise ValueError("state JSON needs an 'amp' or 'mat' field")


def save_state(path, state: State) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)


def _read_json(path, parse):
    """parse(JSON file); malformed content raises ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}: {what}") from exc


def load_state(path) -> State:
    return _read_json(path, state_from_json)
