"""Maximization routines built on the multilinearity of <B_n> in each
measurement direction: with every other vector fixed, the expectation is
linear in a_j (or a_j'), so the optimal update is the normalized coefficient
3-vector in closed form.  Multi-start coordinate ascent then handles the
outer non-convexity.

The settings sweeps never build a dense operator.  <B_n> = W_n . T is linear
in the state's 3^n-entry Pauli correlation tensor T, with weights W_n from the
F_n recursion lifted to vectors; a sweep builds the right environments of the
qubits not yet visited, carries the left weights of the qubits already
updated, and reads the coefficients of a_j and a_j' from one contraction of T
per qubit.  T is built once per state.  Dense operators remain only for the
eigenvalue steps and for re-verifying every reported optimum.

All routines are deterministic: restart r draws from a child generator
spawned by counter from the caller's seed, so results are independent of
evaluation order, and ties between restarts resolve to the lowest index: a
later restart replaces the best only when it beats it by more than
ASCENT_SLACK.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import criteria, symstate
from .bellop import (Settings, _bell_operator_raw, _bell_weights, _correlation_tensor,
                     _lift_step, bell_expectation)
from .qstate import PureState, State, child_rng

BACKTRACK_FACTOR = 0.5    # line-search shrink factor
MAX_ITERATIONS = 500      # per-restart iteration cap
ASCENT_SLACK = 1e-12      # allowed arithmetic regression per accepted step
VERIFY_ATOL = 1e-10       # argmax re-evaluation tolerance


@dataclass(frozen=True)
class OptResult:
    """Best objective value with its argmax, plus full per-restart traces.

    ``direction`` is "max" or "min"; traces improve monotonically in that
    direction within every restart, and best_value is the corresponding
    extremum over all traces.
    """

    best_value: float
    best_settings: Optional[Settings]
    best_state: Optional[object]
    restarts: int
    traces: tuple
    converged: bool
    direction: str = "max"

    def to_json(self) -> dict:
        out = {
            "best_value": self.best_value,
            "restarts": self.restarts,
            "converged": self.converged,
            "direction": self.direction,
            "traces": [list(map(float, t)) for t in self.traces],
        }
        if self.best_settings is not None:
            out["settings"] = self.best_settings.to_json()
        if isinstance(self.best_state, symstate.SymState):
            out["sym_state"] = symstate.sym_to_json(self.best_state)
        elif isinstance(self.best_state, PureState):
            out["state"] = [[z.real, z.imag] for z in self.best_state.amp]
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


def _random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 2, 3))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


def _coordinate_sweep(corr: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """One pass of closed-form updates over all 2n direction vectors, given
    the state's correlation tensor ``corr``.

    At qubit j, with left weights (W, W') over the updated qubits 1..j-1 and
    right environments (R0, R1) over the unvisited qubits j+1..n,
    C_xy = left_x . T . right_y gives u = C00 + C11 and v = C10 - C01, and
    <B> = a_j.(u+v)/2 + a_j'.(u-v)/2.  Each coefficient g is free of both
    a_j and a_j', so the maximizing unit vectors g/|g| are set together.
    Never decreases the objective.
    """
    n = vectors.shape[0]
    vectors = vectors.copy()
    rights = [(np.ones(1), np.zeros(1))]    # rights[k]: environment of the last k qubits
    for a, ap in vectors[:0:-1]:
        p, m = 0.5 * (a + ap), 0.5 * (a - ap)
        r0, r1 = rights[-1]
        rights.append((np.kron(p, r0) - np.kron(m, r1), np.kron(m, r0) + np.kron(p, r1)))
    w = wp = np.full(1, 2.0)
    for j in range(n):
        right = np.stack(rights[n - 1 - j])
        left = np.stack([w, wp]) @ corr.reshape(w.size, -1)
        c = left.reshape(2, 3, right.shape[1]) @ right.T    # c[x, :, y] = C_xy
        u, v = c[0, :, 0] + c[1, :, 1], c[1, :, 0] - c[0, :, 1]
        g = np.stack([0.5 * (u + v), 0.5 * (u - v)])
        for which in (0, 1):
            norm = float(np.linalg.norm(g[which]))
            if norm > 1e-14:
                vectors[j, which] = g[which] / norm
        w, wp = _lift_step(w, wp, vectors[j, 0], vectors[j, 1])
    return vectors, float(np.sum(g * vectors[-1]))


def max_violation_settings(state: State, restarts: int = 20, tol: float = 1e-9,
                           seed: int = 0) -> OptResult:
    """Maximize <B_n> over measurement settings for a fixed state."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if state.n > 10:
        raise ValueError("settings optimization supports n <= 10")
    corr = _correlation_tensor(state)
    best_val, best_st, best_converged = -np.inf, None, False
    traces = []
    for r in range(restarts):
        rng = child_rng(seed, r)
        vectors = _random_unit_vectors(rng, state.n)
        trace = [float(_bell_weights(vectors) @ corr)]
        converged = False
        for _ in range(MAX_ITERATIONS):
            vectors, value = _coordinate_sweep(corr, vectors)
            if value < trace[-1] - ASCENT_SLACK:
                raise RuntimeError("coordinate ascent regressed")
            improved = value - trace[-1]
            trace.append(value)
            if improved < tol:
                converged = True
                break
        traces.append(tuple(trace))
        if trace[-1] > best_val + ASCENT_SLACK:
            best_val, best_st, best_converged = trace[-1], Settings(vectors), converged
    check = bell_expectation(state, best_st)
    if abs(check - best_val) > VERIFY_ATOL:
        raise RuntimeError("optimizer result failed re-verification")
    return OptResult(best_val, best_st, None, restarts, tuple(traces), best_converged)


def max_eigen_settings(n: int, restarts: int = 20, tol: float = 1e-9,
                       seed: int = 0) -> OptResult:
    """Maximize the largest eigenvalue of B_n over settings by alternating
    top-eigenvector extraction with coordinate ascent on that eigenvector."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 2 <= n <= 10:
        raise ValueError("eigenvalue optimization supports 2 <= n <= 10")
    best_val, best_st, best_converged = -np.inf, None, False
    traces = []
    for r in range(restarts):
        rng = child_rng(seed, r)
        vectors = _random_unit_vectors(rng, n)
        w, v = np.linalg.eigh(_bell_operator_raw(vectors))
        trace = [float(w[-1])]
        converged = False
        for _ in range(MAX_ITERATIONS):
            eigvec = PureState(n, v[:, -1])
            vectors, _ = _coordinate_sweep(_correlation_tensor(eigvec), vectors)
            w, v = np.linalg.eigh(_bell_operator_raw(vectors))
            lam = float(w[-1])
            if lam < trace[-1] - ASCENT_SLACK:
                raise RuntimeError("eigenvalue ascent regressed")
            improved = lam - trace[-1]
            trace.append(lam)
            if improved < tol:
                converged = True
                break
        traces.append(tuple(trace))
        if trace[-1] > best_val + ASCENT_SLACK:
            best_val, best_st, best_converged = trace[-1], Settings(vectors), converged
    check = float(np.linalg.eigvalsh(_bell_operator_raw(best_st.vectors))[-1])
    if abs(check - best_val) > VERIFY_ATOL:
        raise RuntimeError("optimizer result failed re-verification")
    return OptResult(best_val, best_st, None, restarts, tuple(traces), best_converged)


def _effective_operator(bmat: np.ndarray, n: int, fixed: Sequence, free: Sequence[int]) -> np.ndarray:
    """<fixed|B|fixed> as an operator on the free qubits (0-based ascending).

    ``fixed`` is a sequence of (qubit_tuple, state_vector) groups covering
    every qubit outside ``free``.
    """
    operands = [bmat.reshape([2] * (2 * n)), list(range(2 * n))]
    for qubits, vec in fixed:
        v = np.asarray(vec, dtype=complex).reshape([2] * len(qubits))
        operands.extend([v.conj(), [q for q in qubits]])
        operands.extend([v, [n + q for q in qubits]])
    out_subs = [q for q in free] + [n + q for q in free]
    res = np.einsum(*operands, out_subs)
    d = 2 ** len(free)
    return res.reshape(d, d)


def product_bound_max(n: int, m: int, restarts: int = 20, tol: float = 1e-8,
                      seed: int = 0) -> OptResult:
    """Maximize <B_n> over states of the form (arbitrary block on the first
    n-m qubits) (x) (product of m single-qubit states), jointly with the
    settings.  The optimum is 2^((n-m+1)/2): m independent qubits cap the
    achievable value at the n-m qubit quantum maximum.

    Alternates (a) a settings sweep, (b) the block state as the top
    eigenvector of its effective operator, and (c) each product qubit as the
    top eigenvector of its effective 2x2 operator; every step is an exact
    subproblem optimum, so the objective never decreases.
    """
    if not 1 <= m < n <= 8:
        raise ValueError("need 1 <= m < n <= 8")
    block_qubits = tuple(range(n - m))
    single_qubits = list(range(n - m, n))
    best_val, best_st, best_state, best_converged = -np.inf, None, None, False
    traces = []
    for r in range(restarts):
        rng = child_rng(seed, r)
        vectors = _random_unit_vectors(rng, n)
        block = rng.normal(size=2 ** (n - m)) + 1j * rng.normal(size=2 ** (n - m))
        block /= np.linalg.norm(block)
        singles = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in single_qubits]
        singles = [s / np.linalg.norm(s) for s in singles]

        def assemble() -> PureState:
            full = block
            for s in singles:
                full = np.kron(full, s)
            return PureState(n, full)

        corr = _correlation_tensor(assemble())
        trace = [float(_bell_weights(vectors) @ corr)]
        converged = False
        for _ in range(MAX_ITERATIONS):
            vectors, _ = _coordinate_sweep(corr, vectors)
            b = _bell_operator_raw(vectors)
            fixed = [((q,), s) for q, s in zip(single_qubits, singles)]
            eff = _effective_operator(b, n, fixed, block_qubits)
            w, v = np.linalg.eigh(eff)
            block = v[:, -1]
            for i, q in enumerate(single_qubits):
                fixed = [(block_qubits, block)]
                fixed += [((qq,), ss) for qq, ss in zip(single_qubits, singles) if qq != q]
                eff2 = _effective_operator(b, n, fixed, [q])
                w2, v2 = np.linalg.eigh(eff2)
                singles[i] = v2[:, -1]
            corr = _correlation_tensor(assemble())
            value = float(_bell_weights(vectors) @ corr)
            if value < trace[-1] - ASCENT_SLACK:
                raise RuntimeError("alternating ascent regressed")
            improved = value - trace[-1]
            trace.append(value)
            if improved < tol:
                converged = True
                break
        traces.append(tuple(trace))
        if trace[-1] > best_val + ASCENT_SLACK:
            best_val, best_st, best_state = trace[-1], Settings(vectors), assemble()
            best_converged = converged
    check = bell_expectation(best_state, best_st)
    if abs(check - best_val) > VERIFY_ATOL:
        raise RuntimeError("optimizer result failed re-verification")
    return OptResult(best_val, best_st, best_state, restarts, tuple(traces), best_converged)


def _params_to_coeff(n: int, theta: np.ndarray) -> np.ndarray:
    """2(n+1)-1 free real parameters -> symmetric coefficients: the first
    coefficient is pinned real (global phase) and the norm is fixed by the
    residual's own normalization."""
    return np.insert(theta, 1, 0.0).view(complex)


def _mm_residual_grad(n: int, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form partial-state residual and its exact theta-gradient.

    The m-qubit partial state of a symmetric state has rank at most m+1, so
    the spectral residual of criteria.mm_partial_residual equals
    R = tr(rho_m^2) - 1/(m+1) = f/g^2 - 1/(m+1), with M = J c the symmetric
    Schmidt matrix, g = |M|_F^2 and f = |M M^H|_F^2.  Its Wirtinger derivative
    dR/dconj(M) = 2 M M^H M / g^2 - 2 f M / g^3 is pulled back through J
    (anti-diagonal sums k+l = j) onto each c_j, then onto theta as 2 Re/Im.
    """
    m = n // 2
    jac = criteria.schmidt_map(n, m)
    mat = jac @ _params_to_coeff(n, theta)
    g = float(np.vdot(mat, mat).real)
    if g < 1e-20:       # norm below 1e-10
        return 1e6, np.zeros_like(theta)
    rho = mat @ mat.conj().T
    f = float(np.vdot(rho, rho).real)
    dmat = 2.0 * (rho @ mat) / g**2 - (2.0 * f / g**3) * mat
    dc = np.tensordot(dmat, jac, axes=2)
    return f / g**2 - 1.0 / (m + 1), 2.0 * np.delete(dc.view(float), 1)


def search_mm_partial(n: int, restarts: int = 50, tol: float = 1e-12,
                      seed: int = 0) -> OptResult:
    """Minimize the maximally-mixed-partial-state residual over normalized
    symmetric states by multi-start gradient descent with a backtracking
    line search, on the closed-form residual tr(rho_m^2) - 1/(m+1) and its
    exact gradient (see _mm_residual_grad).  The reported optimum is
    re-verified through the spectral criteria.mm_partial_residual.

    A residual at numerical zero certifies a state satisfying the criterion;
    a stubborn floor over many restarts is recorded as empirical evidence of
    nonexistence (as happens for n = 5), never as a proof.
    """
    if not 2 <= n <= 8:
        raise ValueError("search supports 2 <= n <= 8")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dim = 2 * (n + 1) - 1
    best_val, best_state, best_converged = np.inf, None, False
    traces = []
    for r in range(restarts):
        rng = child_rng(seed, r)
        theta = rng.normal(size=dim)
        f, grad = _mm_residual_grad(n, theta)
        trace = [f]
        step = 0.25
        converged = False
        for _ in range(MAX_ITERATIONS):
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-13 or f < 1e-14:
                converged = True
                break
            accepted = False
            while step > 1e-14:
                candidate = theta - step * grad
                fc, gc = _mm_residual_grad(n, candidate)
                if fc < f - 1e-4 * step * gnorm**2:
                    improvement = f - fc
                    theta, f, grad = candidate, fc, gc
                    trace.append(f)
                    step = min(step * 2.0, 4.0)
                    accepted = True
                    break
                step *= BACKTRACK_FACTOR
            if not accepted:
                converged = True
                break
            # Relative stall: near a strictly positive local floor the gain
            # per step collapses relative to f, while genuine descent toward
            # zero keeps a roughly constant gain/f ratio.
            if improvement < max(tol, 1e-6 * f):
                converged = True
                break
        traces.append(tuple(trace))
        if trace[-1] < best_val - ASCENT_SLACK:
            best_val = trace[-1]
            best_state = symstate.SymState(n, list(_params_to_coeff(n, theta)))
            best_converged = converged
    check = criteria.mm_partial_residual(best_state).residual
    if abs(check - best_val) > VERIFY_ATOL:
        raise RuntimeError("optimizer result failed re-verification")
    return OptResult(best_val, None, best_state, restarts, tuple(traces), best_converged,
                     direction="min")
