import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import qstate
from bellkit.qstate import (DensityMatrix, PureState, measure_sample,
                            outcome_distribution, partial_trace, pauli_expect,
                            power_max_eigenvalue, spectrum, tensor, x_bases,
                            z_bases)

from conftest import ghz_pure, random_density, random_pure, random_unit_vectors


SQ2 = 1 / np.sqrt(2)

non_finite = st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                              complex(np.inf, 1), complex(1, -np.inf)])


def rotated_distribution(state, dirs):
    """Reference: rotate every qubit into its measurement eigenbasis with one
    2x2 matrix per tensor axis (both sides of rho) and read the diagonal."""
    def apply_1q(arr, m, axis):
        return np.moveaxis(np.tensordot(m, arr, axes=([1], [axis])), 0, axis)

    n = state.n
    if isinstance(state, PureState):
        arr = state.amp.reshape([2] * n)
        for q in range(n):
            arr = apply_1q(arr, qstate._eigenbasis_rows(dirs[q]), q)
        probs = np.abs(arr.reshape(-1)) ** 2
    else:
        arr = state.mat.reshape([2] * (2 * n))
        for q in range(n):
            m = qstate._eigenbasis_rows(dirs[q])
            arr = apply_1q(apply_1q(arr, m, q), m.conj(), n + q)
        probs = np.diag(arr.reshape(2**n, 2**n)).real
    return probs / probs.sum()


class TestConstruction:
    def test_normalizing_constructor(self):
        psi = PureState(1, [2.0, 0.0])
        assert np.allclose(psi.amp, [1.0, 0.0])
        assert abs(np.linalg.norm(psi.amp) - 1.0) <= qstate.NORM_ATOL

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PureState(1, [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    def test_norm_over_and_underflow_rescaled(self, scale):
        # the plain square sum is inf (1e308) or 0 (1e-300)
        assert np.max(np.abs(PureState(1, [scale, scale]).amp - SQ2)) < 1e-15
        assert np.max(np.abs(PureState(1, [scale, 0.0]).amp - [1.0, 0.0])) < 1e-15

    def test_qubit_count_limits(self):
        with pytest.raises(ValueError):
            PureState(0, [1.0])
        with pytest.raises(ValueError):
            PureState(15, np.zeros(2**15))

    def test_amplitudes_immutable(self):
        psi = PureState(1, [1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amp[0] = 0.5

    @given(st.integers(1, 4), st.integers(0, 2**16), non_finite)
    @settings(max_examples=60, deadline=None)
    def test_non_finite_amplitudes_rejected(self, n, pos, bad):
        amp = np.full(2**n, 1.0 + 0j)
        amp[pos % 2**n] = bad
        with pytest.raises(ValueError, match="finite"):
            PureState(n, amp)

    @given(st.integers(1, 4), st.integers(0, 2**16), non_finite)
    @settings(max_examples=60, deadline=None)
    def test_non_finite_density_rejected(self, n, pos, bad):
        mat = np.eye(2**n, dtype=complex) / 2**n
        mat.reshape(-1)[pos % 4**n] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(n, mat)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))  # negative eigenvalue


class TestTensor:
    def test_basis_product(self):
        out = tensor(PureState.basis(1, 0), PureState.basis(1, 0))
        assert np.allclose(out.amp, [1, 0, 0, 0])

    def test_plus_times_zero(self):
        plus = PureState(1, [SQ2, SQ2])
        out = tensor(plus, PureState.basis(1, 0))
        assert np.allclose(out.amp, [SQ2, 0, SQ2, 0])

    def test_ghz2_times_zero(self):
        out = tensor(ghz_pure(2), PureState.basis(1, 0))
        expected = np.zeros(8)
        expected[0b000] = SQ2
        expected[0b110] = SQ2
        assert np.allclose(out.amp, expected)

    def test_size_overflow(self):
        big = PureState.basis(8, 0)
        with pytest.raises(ValueError):
            tensor(big, PureState.basis(7, 0))


class TestPauliExpect:
    def test_zero_state_z(self):
        assert pauli_expect(PureState.basis(1, 0), 1, [0, 0, 1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ghz_xy_plane_vanishes(self, n, rng):
        psi = ghz_pure(n)
        for q in range(1, n + 1):
            phi = rng.uniform(0, 2 * np.pi)
            d = [np.cos(phi), np.sin(phi), 0.0]
            assert pauli_expect(psi, q, d) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_ghz_z_vanishes(self, n):
        assert pauli_expect(ghz_pure(n), 1, [0, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            pauli_expect(PureState.basis(1, 0), 1, [0, 0, 2])

    def test_matches_partial_trace(self, rng):
        psi = random_pure(4, rng)
        for q in (1, 3):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            reduced = partial_trace(psi, {q})
            via_trace = np.trace(reduced.mat @ qstate.pauli_dot(d)).real
            assert pauli_expect(psi, q, d) == pytest.approx(via_trace, abs=1e-12)


class TestPartialTrace:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_ghz_single_qubit_is_maximally_mixed(self, n):
        for q in (1, n):
            reduced = partial_trace(ghz_pure(n), {q})
            assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factor(self):
        plus = PureState(1, [SQ2, SQ2])
        both = tensor(plus, plus)
        reduced = partial_trace(both, {1})
        assert np.allclose(reduced.mat, np.outer(plus.amp, plus.amp.conj()), atol=1e-12)

    def test_ghz4_two_qubit_reduction(self):
        reduced = partial_trace(ghz_pure(4), {1, 2})
        assert np.allclose(reduced.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_pure_and_density_paths_agree(self, rng):
        psi = random_pure(4, rng)
        for keep in ({2}, {1, 3}, {2, 3, 4}):
            a = partial_trace(psi, keep)
            b = partial_trace(psi.to_density(), keep)
            assert np.allclose(a.mat, b.mat, atol=1e-12)

    def test_keep_set_errors(self):
        psi = ghz_pure(2)
        with pytest.raises(ValueError):
            partial_trace(psi, set())
        with pytest.raises(ValueError):
            partial_trace(psi, {1, 2})

    @pytest.mark.parametrize("n,keep", [(3, {1}), (4, {1, 2}), (5, {2, 4})])
    def test_complement_spectra_match(self, n, keep, rng):
        psi = random_pure(n, rng)
        comp = set(range(1, n + 1)) - keep
        s1 = spectrum(partial_trace(psi, keep)).values
        s2 = spectrum(partial_trace(psi, comp)).values
        size = max(len(s1), len(s2))
        p1 = np.concatenate([s1, np.zeros(size - len(s1))])
        p2 = np.concatenate([s2, np.zeros(size - len(s2))])
        assert np.allclose(p1, p2, atol=1e-10)


class TestSpectrum:
    def test_identity(self):
        assert np.allclose(spectrum(np.eye(4)).values, np.ones(4))

    def test_sigma_z(self):
        assert np.allclose(spectrum(qstate.PAULI_Z).values, [1, -1])

    def test_chsh_operator_top_eigenvalue(self):
        z = np.array([0, 0, 1.0])
        x = np.array([1.0, 0, 0])
        b = (np.kron(qstate.pauli_dot(z), qstate.pauli_dot((z + x) / np.sqrt(2)))
             + np.kron(qstate.pauli_dot(z), qstate.pauli_dot((z - x) / np.sqrt(2)))
             + np.kron(qstate.pauli_dot(x), qstate.pauli_dot((z + x) / np.sqrt(2)))
             - np.kron(qstate.pauli_dot(x), qstate.pauli_dot((z - x) / np.sqrt(2))))
        assert spectrum(b).values[0] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_density_eigenvalues_sum_to_one(self, rng):
        rho = random_density(3, rng)
        assert spectrum(rho).values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_power_iteration_cross_check(self, rng):
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = h + h.conj().T
        assert power_max_eigenvalue(h) == pytest.approx(spectrum(h).values[0], abs=1e-9)


class TestMeasureSample:
    def test_deterministic_outcome(self):
        psi = tensor(PureState.basis(1, 0), PureState.basis(1, 0))
        rec = measure_sample(psi, z_bases(2), {1}, seed=0)
        assert rec.outcomes == (1,)
        assert rec.probability == pytest.approx(1.0)

    def test_ghz3_z_collapse(self):
        psi = ghz_pure(3)
        seen = set()
        for seed in range(40):
            rec = measure_sample(psi, z_bases(3), {1}, seed=seed)
            assert rec.probability == pytest.approx(0.5, abs=1e-12)
            target = PureState.basis(2, 0) if rec.outcomes[0] == 1 else PureState.basis(2, 3)
            assert qstate.fidelity(rec.post, target) == pytest.approx(1.0, abs=1e-12)
            seen.add(rec.outcomes[0])
        assert seen == {1, -1}

    def test_ghz4_x_parity_rule(self):
        psi = ghz_pure(4)
        for seed in range(40):
            rec = measure_sample(psi, x_bases(4), {1, 2}, seed=seed)
            minus = sum(1 for o in rec.outcomes if o == -1)
            target = ghz_pure(2, 1) if minus % 2 == 0 else ghz_pure(2, -1)
            assert qstate.fidelity(rec.post, target) == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_same_result(self):
        psi = ghz_pure(3)
        a = measure_sample(psi, x_bases(3), {1, 2}, seed=99)
        b = measure_sample(psi, x_bases(3), {1, 2}, seed=99)
        assert a.outcomes == b.outcomes
        assert np.array_equal(a.post.amp, b.post.amp)

    def test_subset_errors(self):
        psi = ghz_pure(2)
        with pytest.raises(ValueError):
            measure_sample(psi, z_bases(2), set(), seed=0)
        with pytest.raises(ValueError):
            measure_sample(psi, z_bases(2), {1, 2}, seed=0)


class TestOutcomeDistribution:
    def test_product_z(self):
        psi = tensor(PureState.basis(1, 0), PureState.basis(1, 0))
        p = outcome_distribution(psi, z_bases(2))
        assert p[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ghz_z_two_branches(self, n):
        p = outcome_distribution(ghz_pure(n), z_bases(n))
        expected = np.zeros(2**n)
        expected[0] = expected[-1] = 0.5
        assert np.allclose(p, expected, atol=1e-12)

    def test_ghz2_x_even_parity(self):
        p = outcome_distribution(ghz_pure(2), x_bases(2))
        assert np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_density_matches_pure(self, rng):
        psi = random_pure(3, rng)
        dirs = rng.normal(size=(3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        p1 = outcome_distribution(psi, dirs)
        p2 = outcome_distribution(psi.to_density(), dirs)
        assert np.allclose(p1, p2, atol=1e-12)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_axis_rotation(self, n, mixed, rng):
        state = random_density(n, rng) if mixed else random_pure(n, rng)
        dirs = random_unit_vectors(n, rng)[:, 0]
        assert np.max(np.abs(outcome_distribution(state, dirs)
                             - rotated_distribution(state, dirs))) <= 1e-14

    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_both_directions_table_slices_sum_to_one(self, n, mixed, seed):
        # four rows per qubit: outcomes +1, -1 of a_j, then of a_j'
        rng = np.random.default_rng(seed)
        state = random_density(n, rng) if mixed else random_pure(n, rng)
        rows = np.array([[qstate._eigenbasis_rows(d) for d in pair]
                         for pair in random_unit_vectors(n, rng)]).reshape(n, 4, 2)
        table = qstate._outcome_table(state, rows)
        assert table.shape == (4,) * n
        sums = table.reshape((2, 2) * n).sum(axis=tuple(range(1, 2 * n, 2)))
        assert np.max(np.abs(sums - 1.0)) <= qstate.PROBABILITY_ATOL

    def test_sampled_frequencies_match(self, rng):
        # spec-scale statistical audit: 1e5 seeded shots vs the marginal
        psi = random_pure(2, rng)
        dirs = rng.normal(size=(2, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        joint = outcome_distribution(psi, dirs)
        marginal = joint.reshape(2, 2).sum(axis=1)
        shots = 10**5
        counts = np.zeros(2)
        for seed in range(shots):
            rec = measure_sample(psi, dirs, {1}, seed=seed)
            counts[0 if rec.outcomes[0] == 1 else 1] += 1
        freq = counts / shots
        for o in range(2):
            se = np.sqrt(marginal[o] * (1 - marginal[o]) / shots)
            assert abs(freq[o] - marginal[o]) <= 4 * se + 1e-12


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path, rng):
        psi = random_pure(3, rng)
        path = tmp_path / "state.json"
        qstate.save_state(path, psi)
        loaded = qstate.load_state(path)
        assert isinstance(loaded, PureState)
        assert np.allclose(loaded.amp, psi.amp, atol=1e-15)

    def test_density_round_trip(self, tmp_path, rng):
        rho = random_density(2, rng)
        path = tmp_path / "rho.json"
        qstate.save_state(path, rho)
        loaded = qstate.load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.allclose(loaded.mat, rho.mat, atol=1e-15)

    def test_json_shape(self, tmp_path):
        path = tmp_path / "s.json"
        qstate.save_state(path, ghz_pure(2))
        obj = json.loads(path.read_text())
        assert obj["n"] == 2
        assert len(obj["amp"]) == 4
        assert len(obj["amp"][0]) == 2
