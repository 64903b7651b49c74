"""Maximization routines built on the multilinearity of <B_n> in each
measurement direction: with every other vector fixed, the expectation is
linear in a_j (or a_j'), so the optimal update is the normalized coefficient
3-vector in closed form.  Multi-start coordinate ascent then handles the
outer non-convexity.

The settings sweeps never build a dense operator.  <B_n> = Re G . T is linear
in the state's 3^n-entry Pauli correlation tensor T and in each factor z_j of
G = z_1 (x) ... (x) z_n (bellop._fold over the 3-vectors).  A sweep carries
the contraction of T with the factors already updated (a prefix) and the
Kronecker products of the factors not yet visited (suffixes, built once per
sweep), and reads the coefficients of a_j and a_j' from their product, in
O(3^n) per sweep.  T is built once per state.  The eigen step of
max_eigen_settings reads B_n's top eigenpair in closed form, so only its
re-check of the reported optimum builds a dense B_n; product_bound_max
builds only the operators of its product state's parts.

Coordinate ascent converges linearly, and on generic states slowly.  When
max_violation_settings sees its sweep gains shrink by less than
NEWTON_GATE per sweep over three sweeps, it tries one Riemannian Newton
step on the 2n unit spheres of the settings.  Its gradient and Hessian are
exact and cheap for the same reason: <B_n> is linear in each z_j.
search_mm_partial takes only that step, on one unit sphere.  Each search
evaluates the _newton_moves itself and keeps the first it accepts.

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
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import criteria, symstate
from .bellop import (Settings, _correlation_tensor, _factors, _fold, _kron, _pauli_factors,
                     _top_eigenpair, bell_expectation, bell_operator)
from .qstate import PureState, State, child_rng, require_int, state_to_json

MAX_ITERATIONS = 500      # per-restart iteration cap
ASCENT_SLACK = 1e-12      # allowed arithmetic regression per accepted step
VERIFY_ATOL = 1e-10       # argmax re-evaluation tolerance
RESTART_STATUSES = ("converged", "stalled", "capped")
NEWTON_GATE = 0.25        # sweep gain ratio above which a settings ascent tries a Newton step
LEVENBERG_TRIES = 3       # Newton shifts tried, growing tenfold, before the step is dropped


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
            out["state"] = state_to_json(self.best_state)["amp"]
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


def _random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 2, 3))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


def _suffixes(z: np.ndarray) -> list:
    """suffix[k]: the factors z of the last k qubits, Kronecker-multiplied,
    for k = 0..n-1."""
    suffix = [np.ones(1)]
    for zk in z[:0:-1]:
        suffix.append(_kron((zk, suffix[-1])))
    return suffix


def _coordinate_sweep(corr: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """One pass of closed-form updates over all 2n direction vectors, given
    the state's correlation tensor ``corr``.

    At qubit j, E_j is T contracted with the updated z_1..z_{j-1} (the
    prefix) and with the Kronecker product of the old z_{j+1}..z_n (a
    suffix), so <B> = Re(z_j . E_j) = Re(c_j0 E_j) . a_j + Re(c_j1 E_j) . a_j'.
    Each coefficient g is free of both a_j and a_j', so the maximizing unit
    vectors g/|g| are set together, and the prefix then takes the new z_j.
    Never decreases the objective.
    """
    n = vectors.shape[0]
    vectors = vectors.copy()
    z, c = _factors(vectors)
    suffix = _suffixes(z)
    prefix = corr
    for j in range(n):
        rest = prefix.reshape(3, -1)    # axes j..n-1 of T, qubits before j contracted
        g = (c[j, :, None] * (rest @ suffix[n - 1 - j])).real
        for which in (0, 1):
            norm = math.sqrt(g[which] @ g[which])
            if norm > 1e-14:
                vectors[j, which] = g[which] / norm
        prefix = (c[j] @ vectors[j]) @ rest
    return vectors, float(np.sum(g * vectors[-1]))


def _fold_derivatives(corr: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient (n, 2, 3) and Hessian (n, 2, 3, n, 2, 3) of
    f = Re _fold(vectors) . corr with respect to the direction vectors.

    With f = Re(z_1 (x) ... (x) z_n) . T and z_j = c_j0 a_j + c_j1 a_j', the
    gradient in a_j (a_j') is Re(c_j0 E_j) (Re(c_j1 E_j)), where E_j is T
    contracted with every z except z_j; a Hessian block between qubits j != k
    is Re(c_jx c_ky E_jk) with E_jk leaving out z_j and z_k, and the blocks of
    one qubit are zero.  The contractions of T with z_1..z_{j-1} (prefix)
    and the Kronecker products of the z's after qubit k (suffix) give every
    E_j and E_jk without a 6^n tensor.
    """
    n = vectors.shape[0]
    z, c = _factors(vectors)
    suffix = _suffixes(z)
    single = np.empty((n, 3), dtype=complex)
    pair = np.zeros((n, n, 3, 3), dtype=complex)
    prefix = corr
    for j in range(n):
        rest = prefix.reshape(3, -1)    # axes j..n-1 of T, qubits before j contracted
        single[j] = rest @ suffix[n - 1 - j]
        middle = np.ones(1)             # z of the qubits strictly between j and k
        for k in range(j + 1, n):
            pair[j, k] = middle @ (rest.reshape(3, middle.size, 3, -1) @ suffix[n - 1 - k])
            middle = _kron((middle, z[k]))
        prefix = z[j] @ rest
    grad = np.einsum("jx,ja->jxa", c, single).real
    hess = np.einsum("jx,ky,jkab->jxakyb", c, c, pair).real
    return grad, hess + hess.transpose(3, 4, 5, 0, 1, 2)


def _newton_moves(points: np.ndarray, grad: np.ndarray, hess: np.ndarray):
    """Riemannian Newton moves for f on the k unit spheres of the rows of
    ``points`` (k, d), from f's Euclidean gradient and Hessian there: one
    retracted (k, d) point per Levenberg shift, smallest shift first.  The
    caller evaluates each move and keeps the first it accepts.

    The Riemannian gradient is the Euclidean one projected onto each tangent
    plane; the Riemannian Hessian is the projected Hessian minus
    <x, grad f> on each sphere's tangent plane (normal directions get -1, so
    the k d system keeps them out of the step).  The Levenberg shift is the
    gradient norm, times 1, 10, 100, plus the top eigenvalue when the
    Hessian is not negative definite, which far from a maximum makes it a
    scaled gradient step.  The step is retracted by normalizing every row.
    """
    k, d = points.shape
    x, g = points, grad.reshape(k, d)
    radial = np.sum(x * g, axis=1)
    tangent = (g - radial[:, None] * x).ravel()
    normal = x[:, :, None] * x[:, None, :]
    proj = np.eye(d) - normal
    h = np.einsum("iab,ibkc,kcd->iakd", proj, hess.reshape(k, d, k, d), proj)
    rows = np.arange(k)
    h[rows, :, rows, :] -= radial[:, None, None] * proj + normal
    lam, vec = np.linalg.eigh(h.reshape(k * d, k * d))
    coef = vec.T @ tangent
    size = float(np.linalg.norm(tangent))
    for t in range(LEVENBERG_TRIES):
        shift = max(lam[-1], 0.0) + size * 10.0**t
        moved = x + (vec @ (coef / (shift - lam))).reshape(k, d)
        yield moved / np.linalg.norm(moved, axis=1, keepdims=True)


def _multistart(search, finish, restarts: int, seed: int, tol: float,
                direction: str = "max") -> OptResult:
    """The restart frame every optimizer runs through.

    ``search(rng)`` is a generator for one restart.  It yields
    ``(value, point)`` at its random start and then once per step: the
    objective at the new iterate ``point``.  A return ends the restart as
    "stalled", a gain below ``tol`` as "converged", and MAX_ITERATIONS
    steps as "capped".  ``finish(point)`` turns the best restart's iterate
    into ``(settings, state, value)`` with the value recomputed
    independently.
    """
    restarts = require_int(restarts, "restarts", 1)
    seed = require_int(seed, "seed", 0)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    sign = 1.0 if direction == "max" else -1.0
    best_score, best, best_point = -np.inf, None, None
    traces, statuses = [], []
    for r in range(restarts):
        steps = search(child_rng(seed, r))
        value, point = next(steps)
        trace, status = [value], "capped"
        for _ in range(MAX_ITERATIONS):
            step = next(steps, None)
            if step is None:
                status = "stalled"
                break
            value, point = step
            gain = sign * (value - trace[-1])
            if gain < -ASCENT_SLACK:
                raise RuntimeError(f"optimizer step regressed ({direction}imizing)")
            trace.append(value)
            if gain < tol:
                status = "converged"
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
    """Maximize <B_n> over measurement settings for a fixed state.

    Each restart runs coordinate sweeps.  After three sweeps whose gains
    each fell by less than a factor 1/NEWTON_GATE, a slow linear rate, it
    tries one Newton step: it keeps the first of the _newton_moves that
    raises <B_n> by more than ``tol``, so only a sweep ends a restart as
    "converged"; the next try waits for three more sweeps.
    """
    if state.n > 10:
        raise ValueError("settings optimization supports n <= 10")
    corr = _correlation_tensor(state)

    def ascent(rng):
        vectors = _random_unit_vectors(rng, state.n)
        value = float(_fold(vectors).real @ corr)
        yield value, vectors
        gains = []
        while True:
            vectors, swept = _coordinate_sweep(corr, vectors)
            gains = [*gains[-2:], swept - value]
            value = swept
            yield value, vectors
            if len(gains) == 3 and min(gains[1] / gains[0], gains[2] / gains[1]) > NEWTON_GATE:
                gains = []
                for moved in _newton_moves(vectors.reshape(-1, 3),
                                           *_fold_derivatives(corr, vectors)):
                    moved = moved.reshape(vectors.shape)
                    moved_value = float(_fold(moved).real @ corr)
                    if moved_value - value > tol:
                        vectors, value = moved, moved_value
                        yield value, vectors
                        break

    def finish(vectors):
        st = Settings(vectors)
        return st, None, bell_expectation(state, st)

    return _multistart(ascent, finish, restarts, seed, tol)


def max_eigen_settings(n: int, restarts: int = 20, tol: float = 1e-9,
                       seed: int = 0) -> OptResult:
    """Maximize the largest eigenvalue of B_n over settings by alternating
    the closed-form top eigenpair (bellop._top_eigenpair, no 2^n eigenproblem)
    with coordinate ascent on that eigenvector; the reported optimum is
    re-verified by dense eigvalsh."""
    n = require_int(n, "n", 2, 10)

    def ascent(rng):
        vectors = _random_unit_vectors(rng, n)
        while True:
            top, eigvec = _top_eigenpair(vectors)
            yield float(top), vectors
            vectors, _ = _coordinate_sweep(_correlation_tensor(PureState(n, eigvec)), vectors)

    def finish(vectors):
        st = Settings(vectors)
        return st, None, float(np.linalg.eigvalsh(bell_operator(st))[-1])

    return _multistart(ascent, finish, restarts, seed, tol)


def product_bound_max(n: int, m: int, restarts: int = 20, tol: float = 1e-8,
                      seed: int = 0) -> OptResult:
    """Maximize <B_n> over states of the form (arbitrary block on the first
    n-m qubits) (x) (product of m single-qubit states), jointly with the
    settings.  The optimum is 2^((n-m+1)/2): m independent qubits cap the
    achievable value at the n-m qubit quantum maximum.

    The state's parts are the block and the m qubits.  A step is a settings
    sweep, then one exact update per part, so the objective never decreases.
    G = z_1.sigma (x) ... (x) z_n.sigma is the product of the parts' operators
    op_b (_kron of their qubits' z_j.sigma), so with the other parts fixed
    part b is the top eigenvector of c_b op_b + h.c., c_b the product of
    the other parts' <p|op|p>."""
    n = require_int(n, "n", 2, 8)
    m = require_int(m, "m", 1, n - 1)
    sizes = [n - m] + [1] * m
    edges = np.cumsum([0, *sizes])

    def ascent(rng):
        vectors = _random_unit_vectors(rng, n)
        parts = []
        for size in sizes:
            part = rng.normal(size=2**size) + 1j * rng.normal(size=2**size)
            parts.append(part / np.linalg.norm(part))
        while True:
            state = PureState(n, _kron(parts))
            corr = _correlation_tensor(state)
            yield float(_fold(vectors).real @ corr), (vectors, state)
            vectors, _ = _coordinate_sweep(corr, vectors)
            factors = _pauli_factors(vectors)
            ops = [_kron(factors[lo:hi]) for lo, hi in zip(edges, edges[1:])]
            fixed = [np.vdot(p, op @ p) for p, op in zip(parts, ops)]
            for b, op in enumerate(ops):
                h = np.prod(fixed[:b] + fixed[b + 1:]) * op
                parts[b] = np.linalg.eigh(h + h.conj().T)[1][:, -1]
                fixed[b] = np.vdot(parts[b], op @ parts[b])

    def finish(point):
        vectors, state = point
        st = Settings(vectors)
        return st, state, bell_expectation(state, st)

    return _multistart(ascent, finish, restarts, seed, tol)


@lru_cache(maxsize=None)
def _schmidt_derivatives(n: int) -> np.ndarray:
    """Read-only B_k = dM/dtheta_k, shape (2n+2, m+1, n-m+1), so that the
    Schmidt matrix M = J c (criteria.schmidt_map, m = n//2) of the coefficients
    c_j = (theta_2j + i theta_2j+1) / sqrt(C(n,j)) is sum_k theta_k B_k and,
    by schmidt_map's Vandermonde identity, |M|_F = |theta|."""
    jac = criteria.schmidt_map(n, n // 2) / np.sqrt([math.comb(n, j) for j in range(n + 1)])
    basis = np.stack([jac, 1j * jac]).transpose(3, 0, 1, 2).reshape(2 * n + 2, *jac.shape[:2])
    basis.setflags(write=False)
    return basis


def _mm_residual_derivatives(n: int, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """f - 1/(m+1) for the purity f = |M M^H|_F^2 at M = sum_k theta_k B_k
    (_schmidt_derivatives), and f's exact gradient and Hessian in theta.  At
    a unit theta M M^H is the m-qubit partial state, of rank at most m+1, so
    this is the spectral residual of criteria.mm_partial_residual.  M is
    linear in theta, so df_k = 4 Re<B_k, M M^H M> and
    d2f_kl = 4 Re<B_k, B_l M^H M + M B_l^H M + M M^H B_l>."""
    basis = _schmidt_derivatives(n)
    flat = basis.reshape(theta.size, -1)
    mat = (theta @ flat).reshape(basis.shape[1:])
    rho = mat @ mat.conj().T
    grad = 4.0 * (flat.conj() @ (rho @ mat).ravel()).real
    dcube = (basis @ (mat.conj().T @ mat) + mat @ (np.swapaxes(basis.conj(), 1, 2) @ mat)
             + rho @ basis)    # d(M M^H M)/dtheta_l
    hess = 4.0 * (flat.conj() @ dcube.reshape(theta.size, -1).T).real
    return float(np.vdot(rho, rho).real) - 1.0 / (n // 2 + 1), grad, hess


def search_mm_partial(n: int, restarts: int = 50, tol: float = 1e-12,
                      seed: int = 0) -> OptResult:
    """Minimize the maximally-mixed-partial-state residual over normalized
    symmetric states by multi-start Newton descent on the unit sphere of
    theta in R^(2n+2), keeping the first of the _newton_moves that lowers the
    residual together with its gradient and Hessian, so no point is evaluated
    twice.  A restart ends "converged" at a step that gains less than ``tol``
    and "stalled" when no Levenberg shift lowers the residual.  The reported
    optimum is re-verified through the spectral criteria.mm_partial_residual.

    A residual at numerical zero certifies a state satisfying the criterion;
    a stubborn floor over many restarts is recorded as empirical evidence of
    nonexistence (as happens for n = 5), never as a proof.
    """
    n = require_int(n, "n", 2, 8)

    def descent(rng):
        theta = rng.normal(size=2 * n + 2)
        theta /= np.linalg.norm(theta)
        value, grad, hess = _mm_residual_derivatives(n, theta)
        yield value, theta
        while True:
            for moved in _newton_moves(theta[None], -grad, -hess):
                step = _mm_residual_derivatives(n, moved[0])
                if step[0] < value:
                    theta, (value, grad, hess) = moved[0], step
                    yield value, theta
                    break
            else:
                return

    def finish(theta):
        coeff = theta.view(complex) / np.sqrt([math.comb(n, j) for j in range(n + 1)])
        state = symstate.SymState(n, list(coeff))
        return None, state, criteria.mm_partial_residual(state).residual

    return _multistart(descent, finish, restarts, seed, tol, direction="min")
