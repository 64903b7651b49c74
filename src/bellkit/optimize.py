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

Every optimizer runs through one multi-start driver, _multistart, and keeps
only its per-restart step generator and its re-verification.  The driver
draws restart r from a child generator spawned by counter from the caller's
seed (results are independent of evaluation order), checks every step
against ASCENT_SLACK, stops a restart at a gain below tol, keeps the lowest
restart index on ties (a later restart wins only by more than ASCENT_SLACK),
re-verifies the best value to VERIFY_ATOL, and records how each restart
ended: "converged", "stalled" or "capped" (see RESTART_STATUSES).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
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
RESTART_STATUSES = ("converged", "stalled", "capped")


@dataclass(frozen=True)
class OptResult:
    """Best objective value with its argmax, plus full per-restart traces.

    ``direction`` is "max" or "min"; traces improve monotonically in that
    direction within every restart, and best_value is the corresponding
    extremum over all traces.  ``statuses`` says how each restart ended (one
    of RESTART_STATUSES); ``converged`` is "the best restart was not capped".
    """

    best_value: float
    best_settings: Optional[Settings]
    best_state: Optional[object]
    restarts: int
    traces: tuple
    converged: bool
    direction: str = "max"
    statuses: tuple = ()

    def to_json(self) -> dict:
        out = {
            "best_value": self.best_value,
            "restarts": self.restarts,
            "converged": self.converged,
            "direction": self.direction,
            "traces": [list(map(float, t)) for t in self.traces],
            "statuses": list(self.statuses),
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


def _multistart(search, finish, restarts: int, seed: int, tol: float,
                direction: str = "max") -> OptResult:
    """The restart frame every optimizer runs through.

    ``search(rng)`` is a generator for one restart.  It yields
    ``(value, stop, point)`` at its random start and then once per step:
    the objective at the iterate ``point`` (``value`` None when the step
    found no new iterate), and ``stop``, None to go on or the status that
    ends the restart, after which the generator is not resumed.  A gain
    below ``tol`` ends it as "converged"; MAX_ITERATIONS steps end it as
    "capped".  ``finish(point)`` turns the best restart's iterate into
    ``(settings, state, value)`` with the value recomputed independently.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    sign = 1.0 if direction == "max" else -1.0
    best_score, best, best_point = -np.inf, None, None
    traces, statuses = [], []
    for r in range(restarts):
        steps = search(child_rng(seed, r))
        value, _, point = next(steps)
        trace, status = [value], "capped"
        for _ in range(MAX_ITERATIONS):
            value, stop, iterate = next(steps)
            if value is not None:
                gain = sign * (value - trace[-1])
                if gain < -ASCENT_SLACK:
                    raise RuntimeError(f"optimizer step regressed ({direction}imizing)")
                trace.append(value)
                point = iterate
                stop = "converged" if gain < tol else stop
            if stop:
                status = stop
                break
        traces.append(tuple(trace))
        statuses.append(status)
        if sign * trace[-1] > best_score + ASCENT_SLACK:
            best_score, best, best_point = sign * trace[-1], r, point
    best_value = traces[best][-1]
    settings, state, check = finish(best_point)
    if abs(check - best_value) > VERIFY_ATOL:
        raise RuntimeError("optimizer result failed re-verification")
    return OptResult(best_value, settings, state, restarts, tuple(traces),
                     statuses[best] != "capped", direction, tuple(statuses))


def max_violation_settings(state: State, restarts: int = 20, tol: float = 1e-9,
                           seed: int = 0) -> OptResult:
    """Maximize <B_n> over measurement settings for a fixed state."""
    if state.n > 10:
        raise ValueError("settings optimization supports n <= 10")
    corr = _correlation_tensor(state)

    def ascent(rng):
        vectors = _random_unit_vectors(rng, state.n)
        value = float(_bell_weights(vectors) @ corr)
        while True:
            yield value, None, vectors
            vectors, value = _coordinate_sweep(corr, vectors)

    def finish(vectors):
        st = Settings(vectors)
        return st, None, bell_expectation(state, st)

    return _multistart(ascent, finish, restarts, seed, tol)


def max_eigen_settings(n: int, restarts: int = 20, tol: float = 1e-9,
                       seed: int = 0) -> OptResult:
    """Maximize the largest eigenvalue of B_n over settings by alternating
    top-eigenvector extraction with coordinate ascent on that eigenvector."""
    if not 2 <= n <= 10:
        raise ValueError("eigenvalue optimization supports 2 <= n <= 10")

    def ascent(rng):
        vectors = _random_unit_vectors(rng, n)
        while True:
            w, v = np.linalg.eigh(_bell_operator_raw(vectors))
            yield float(w[-1]), None, vectors
            eigvec = PureState(n, v[:, -1])
            vectors, _ = _coordinate_sweep(_correlation_tensor(eigvec), vectors)

    def finish(vectors):
        return Settings(vectors), None, float(np.linalg.eigvalsh(_bell_operator_raw(vectors))[-1])

    return _multistart(ascent, finish, restarts, seed, tol)


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

    def ascent(rng):
        vectors = _random_unit_vectors(rng, n)
        block = rng.normal(size=2 ** (n - m)) + 1j * rng.normal(size=2 ** (n - m))
        block /= np.linalg.norm(block)
        singles = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in single_qubits]
        singles = [s / np.linalg.norm(s) for s in singles]
        while True:
            state = PureState(n, reduce(np.kron, singles, block))
            corr = _correlation_tensor(state)
            yield float(_bell_weights(vectors) @ corr), None, (vectors, state)
            vectors, _ = _coordinate_sweep(corr, vectors)
            b = _bell_operator_raw(vectors)
            fixed = [((q,), s) for q, s in zip(single_qubits, singles)]
            block = np.linalg.eigh(_effective_operator(b, n, fixed, block_qubits))[1][:, -1]
            for i, q in enumerate(single_qubits):
                fixed = [(block_qubits, block)]
                fixed += [((qq,), ss) for qq, ss in zip(single_qubits, singles) if qq != q]
                singles[i] = np.linalg.eigh(_effective_operator(b, n, fixed, [q]))[1][:, -1]

    def finish(point):
        vectors, state = point
        st = Settings(vectors)
        return st, state, bell_expectation(state, st)

    return _multistart(ascent, finish, restarts, seed, tol)


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

    def descent(rng):
        theta = rng.normal(size=2 * (n + 1) - 1)
        f, grad = _mm_residual_grad(n, theta)
        step = 0.25
        yield f, None, theta
        while True:
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-13 or f < 1e-14:     # gradient or residual floor
                yield None, "converged", None
            while step > 1e-14:
                candidate = theta - step * grad
                fc, gc = _mm_residual_grad(n, candidate)
                if fc < f - 1e-4 * step * gnorm**2:
                    break
                step *= BACKTRACK_FACTOR
            else:
                yield None, "stalled", None     # no step accepted
            # Relative stall: near a strictly positive local floor the gain
            # per step collapses relative to f, while genuine descent toward
            # zero keeps a roughly constant gain/f ratio.
            stalled = f - fc < 1e-6 * fc
            theta, f, grad = candidate, fc, gc
            step = min(step * 2.0, 4.0)
            yield f, "stalled" if stalled else None, theta

    def finish(theta):
        state = symstate.SymState(n, list(_params_to_coeff(n, theta)))
        return None, state, criteria.mm_partial_residual(state).residual

    return _multistart(descent, finish, restarts, seed, tol, direction="min")
