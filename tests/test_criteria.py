from math import comb

import numpy as np
import pytest

from bellkit import symstate
from bellkit.criteria import (depolarize, distribute_check, fragility,
                              mm_example_states, mm_partial_residual,
                              mutual_information, schmidt_map)
from bellkit.qstate import (PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, PureState,
                            partial_trace, pauli_expect, spectrum, z_bases)

from conftest import ghz_pure, kron_state, random_density, random_pure


def conjugate_1q(arr: np.ndarray, u: np.ndarray, qubit0: int, n: int) -> np.ndarray:
    """U_q rho U_q^dagger on a [2]*2n reshaped density tensor."""
    out = np.tensordot(u, arr, axes=([1], [qubit0]))
    out = np.moveaxis(out, 0, qubit0)
    out = np.tensordot(u.conj(), out, axes=([1], [n + qubit0]))
    return np.moveaxis(out, 0, n + qubit0)


def depolarize_integrate(rho: DensityMatrix, t: float, steps: int = 400) -> DensityMatrix:
    """Reference: fixed-step RK4 integration of
    rho' = sum_j (sigma_j rho sigma_j - 3 rho), a cross-check for the exact
    channel."""
    n = rho.n

    def rhs(arr: np.ndarray) -> np.ndarray:
        out = -3.0 * n * arr
        for q in range(n):
            for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
                out = out + conjugate_1q(arr, sigma, q, n)
        return out

    arr = rho.mat.reshape([2] * (2 * n)).astype(complex)
    h = t / steps
    for _ in range(steps):
        k1 = rhs(arr)
        k2 = rhs(arr + 0.5 * h * k1)
        k3 = rhs(arr + 0.5 * h * k2)
        k4 = rhs(arr + h * k3)
        arr = arr + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return DensityMatrix(n, arr.reshape(rho.dim, rho.dim))


def symmetric_reduced_matrix(state: symstate.SymState, m: int) -> np.ndarray:
    """Reference: (m+1)x(m+1) block of the m-qubit partial state in the
    orthonormal symmetric basis, M M^H / |M|_F^2 with M = schmidt_map c,
    independent of the dense embed/partial-trace route."""
    mat = schmidt_map(state.n, m) @ state.as_complex()
    return mat @ mat.conj().T / np.vdot(mat, mat).real


class TestFragility:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_ghz_is_maximal(self, n):
        rep = fragility(ghz_pure(n))
        assert rep.fragility == pytest.approx(3 * n, abs=1e-12)
        assert rep.is_maximal

    def test_product_all_zero(self):
        n = 4
        rep = fragility(PureState.basis(n, 0))
        assert np.allclose(rep.bloch, np.tile([0, 0, 1.0], (n, 1)), atol=1e-12)
        assert rep.fragility == pytest.approx(2 * n, abs=1e-12)
        assert not rep.is_maximal

    def test_w_state(self):
        w3 = symstate.embed(symstate.SymState(3, [0, 1, 0, 0]))
        rep = fragility(w3)
        assert np.allclose(rep.bloch[:, 2], [1 / 3] * 3, atol=1e-12)
        assert rep.fragility == pytest.approx(9 - 1 / 3, abs=1e-12)
        assert not rep.is_maximal

    def test_maximal_iff_reductions_are_identity(self, rng):
        for state in (ghz_pure(3), random_pure(3, rng)):
            rep = fragility(state)
            reductions_mixed = all(
                np.max(np.abs(partial_trace(state, {q}).mat - np.eye(2) / 2)) <= 1e-10
                for q in range(1, 4))
            assert rep.is_maximal == reductions_mixed
            assert rep.is_maximal == (rep.fragility >= 9 - 1e-9)


class TestDepolarize:
    def test_identity_at_time_zero(self, rng):
        rho = random_density(2, rng)
        out = depolarize(rho, 0.0)
        assert np.allclose(out.mat, rho.mat, atol=1e-14)

    def test_single_qubit_bloch_decay(self):
        rho = PureState.basis(1, 0).to_density()
        for t in (0.05, 0.2, 0.7):
            out = depolarize(rho, t)
            bloch_z = np.trace(out.mat @ np.diag([1.0, -1.0])).real
            assert bloch_z == pytest.approx(np.exp(-4 * t), abs=1e-12)

    def test_composition_law(self, rng):
        rho = random_density(3, rng)
        lhs = depolarize(depolarize(rho, 0.08), 0.05)
        rhs = depolarize(rho, 0.13)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-10

    def test_output_is_valid_state(self, rng):
        rho = random_density(2, rng)
        for t in (0.01, 0.3, 2.0):
            out = depolarize(rho, t)  # DensityMatrix validates CPTP output
            assert isinstance(out, DensityMatrix)

    def test_matches_step_integrator(self, rng):
        rho = random_density(2, rng)
        for t in (0.1, 0.5):
            exact = depolarize(rho, t)
            stepped = depolarize_integrate(rho, t, steps=400)
            assert np.max(np.abs(exact.mat - stepped.mat)) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_pauli_twirl(self, n, rng):
        # per qubit, tr_q(rho) (x) I/2 = (rho + X rho X + Y rho Y + Z rho Z)/4
        rho = random_density(n, rng)
        p = np.exp(-4 * 0.07)
        arr = rho.mat.reshape([2] * (2 * n))
        for q in range(n):
            twirl = arr + sum(conjugate_1q(arr, s, q, n) for s in (PAULI_X, PAULI_Y, PAULI_Z))
            arr = p * arr + (1 - p) * 0.25 * twirl
        out = depolarize(rho, 0.07)
        assert np.max(np.abs(out.mat - arr.reshape(rho.dim, rho.dim))) <= 1e-15

    def test_long_time_limit_is_maximally_mixed(self, rng):
        rho = random_density(2, rng)
        out = depolarize(rho, 20.0)
        assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-12)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            depolarize(random_density(1, rng), -0.1)

    def test_nan_time_rejected(self, rng):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            depolarize(random_density(1, rng), float("nan"))

    def test_fidelity_slope_matches_fragility(self):
        psi = ghz_pure(3)
        rep = fragility(psi)
        h = 1e-6
        f1 = np.vdot(psi.amp, depolarize(psi.to_density(), h).mat @ psi.amp).real
        f2 = np.vdot(psi.amp, depolarize(psi.to_density(), 2 * h).mat @ psi.amp).real
        slope = (4 * f1 - f2 - 3.0) / (2 * h)
        assert slope == pytest.approx(-rep.fragility, abs=1e-6)


class TestDistribute:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 3)])
    def test_parity_rule_holds(self, n, k):
        rep = distribute_check(n, k, trials=50, seed=31)
        assert rep.passed
        assert rep.x_passes == rep.trials == 50
        assert rep.z_passes == 50
        assert rep.worst_fidelity_error <= 1e-10

    def test_k_range(self):
        with pytest.raises(ValueError):
            distribute_check(3, 3, trials=5, seed=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_range(self, trials):
        with pytest.raises(ValueError, match="trial"):
            distribute_check(3, 1, trials=trials, seed=0)

    @pytest.mark.parametrize("bad,message", [(-1, "seed must be at least 0, got -1"),
                                             (1.5, "seed must be an integer, got 1.5")])
    def test_bad_seed_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            distribute_check(3, 1, trials=5, seed=bad)


class TestMutualInformation:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_ghz_bits(self, n):
        mi = mutual_information(ghz_pure(n), z_bases(n))
        assert mi == pytest.approx(n - 1, abs=1e-10)

    def test_product_state_zero(self):
        plus = PureState(1, [1, 1] / np.sqrt(2))
        state = kron_state(kron_state(plus, plus), PureState.basis(1, 0))
        assert mutual_information(state, z_bases(3)) == pytest.approx(0.0, abs=1e-12)

    def test_triplet_one_bit(self):
        triplet = symstate.embed(symstate.SymState(2, [0, 1, 0]))
        assert mutual_information(triplet, z_bases(2)) == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_and_capped(self, rng):
        for n in (2, 3):
            for _ in range(10):
                psi = random_pure(n, rng)
                mi = mutual_information(psi, z_bases(n))
                assert -1e-12 <= mi <= n - 1 + 1e-9


class TestMMPartial:
    def test_catalog_complete(self):
        states = mm_example_states()
        labels = {label.split(":")[0] for label in states}
        assert labels == {"3", "4", "6"}
        assert len(states) == 12

    @pytest.mark.parametrize("label", sorted(mm_example_states()))
    def test_catalog_states_pass(self, label):
        res = mm_partial_residual(mm_example_states()[label])
        assert res.residual < 1e-9

    def test_ghz2_and_ghz3_pass(self):
        assert mm_partial_residual(symstate.ghz(2, 1)).residual < 1e-12
        assert mm_partial_residual(symstate.ghz(3, 1)).residual < 1e-12

    def test_ghz4_fails(self):
        # m = 2 reduction of GHZ is rank 2, not the rank-3 target
        res = mm_partial_residual(symstate.ghz(4, 1))
        assert res.residual == pytest.approx(2 * (1 / 2 - 1 / 3) ** 2 + 1 / 9, abs=1e-12)

    def test_n5_witness_partial_state(self):
        # |D1> + |D4>: M[k, l] = c[k+l] sqrt(C(2,k) C(3,l)), so the entry k, k'
        # of M M^H is sqrt(C(2,k) C(2,k')) times an integer sum; its square
        # is an integer, and the diagonal is nonnegative
        n, m, c = 5, 2, [0, 1, 0, 0, 1, 0]
        squares = [[comb(m, k) * comb(m, kp)
                    * sum(c[k + l] * c[kp + l] * comb(n - m, l) for l in range(n - m + 1)) ** 2
                    for kp in range(m + 1)] for k in range(m + 1)]
        assert squares == [[9, 0, 0], [0, 16, 0], [0, 0, 9]]
        assert sum(cj * cj * comb(n, j) for j, cj in enumerate(c)) == 10
        # so M M^H / |M|^2 = diag(3, 4, 3)/10, and the residual is
        # (9 + 16 + 9)/100 - 1/3 = 1/150
        res = mm_partial_residual(symstate.SymState(n, c))
        assert res.residual == pytest.approx(1 / 150, abs=1e-15)

    def test_n7_witness_partial_state(self):
        # |D1> + |D6>, the n = 5 witness pattern |D1> + |D_{n-1}> one size up;
        # the same integer argument as for n = 5, with m = 3
        n, m, c = 7, 3, [0, 1, 0, 0, 0, 0, 1, 0]
        squares = [[comb(m, k) * comb(m, kp)
                    * sum(c[k + l] * c[kp + l] * comb(n - m, l) for l in range(n - m + 1)) ** 2
                    for kp in range(m + 1)] for k in range(m + 1)]
        assert squares == [[16, 0, 0, 0], [0, 9, 0, 0], [0, 0, 9, 0], [0, 0, 0, 16]]
        assert sum(cj * cj * comb(n, j) for j, cj in enumerate(c)) == 14
        # so M M^H / |M|^2 = diag(4, 3, 3, 4)/14, and the residual is
        # (16 + 9 + 9 + 16)/196 - 1/4 = 1/196
        res = mm_partial_residual(symstate.SymState(n, c))
        assert res.residual == pytest.approx(1 / 196, abs=1e-15)

    def test_target_shape(self):
        res = mm_partial_residual(symstate.ghz(6, 1))
        assert res.m == 3
        assert np.allclose(res.target[:4], 0.25)
        assert np.allclose(res.target[4:], 0.0)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            mm_partial_residual(symstate.SymState(1, [1, 0]))

    def test_smaller_m_redundancy(self):
        # once floor(n/2) is maximally mixed, the smaller reductions are too
        state = mm_example_states()["6:2"]
        psi = symstate.embed(state)
        for m in (1, 2, 3):
            reduced = partial_trace(psi, set(range(1, m + 1)))
            w = spectrum(reduced).values
            assert np.allclose(w[: m + 1], 1 / (m + 1), atol=1e-9)
            assert np.allclose(w[m + 1:], 0.0, atol=1e-9)

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 3)])
    def test_symmetric_reduction_matches_dense(self, n, m, rng):
        coeff = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = symstate.SymState(n, list(coeff))
        block = symmetric_reduced_matrix(state, m)
        dense = partial_trace(symstate.embed(state), set(range(1, m + 1)))
        w_block = np.sort(np.linalg.eigvalsh(block))[::-1]
        w_dense = spectrum(dense).values
        assert np.allclose(w_dense[: m + 1], w_block, atol=1e-10)
        assert np.allclose(w_dense[m + 1:], 0.0, atol=1e-10)
