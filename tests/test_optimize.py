import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import criteria, optimize, symstate
from bellkit.bellop import _bell_operator_raw, _correlation_tensor
from bellkit.optimize import (MAX_ITERATIONS, max_eigen_settings, max_violation_settings,
                              product_bound_max, search_mm_partial)
from bellkit.qstate import PureState

from conftest import ghz_pure, random_density, random_pure, random_unit_vectors


def dense_expectation(state, vectors):
    """<B(vectors)> through the dense operator; vectors may be axis or zero
    probes, so no unit-norm validation."""
    b = _bell_operator_raw(vectors)
    if isinstance(state, PureState):
        return float(np.vdot(state.amp, b @ state.amp).real)
    return float(np.einsum("ij,ji->", state.mat, b).real)


def four_probe_sweep(state, vectors):
    """Reference sweep: for each vector v the objective is h + g.v with g
    recovered from three axis probes and one zero probe on the dense
    operator; the vectors are updated in order, a_j before a_j'."""
    vectors = vectors.copy()
    value = None
    for j in range(vectors.shape[0]):
        for which in (0, 1):
            probe = vectors.copy()
            probe[j, which] = 0.0
            h = dense_expectation(state, probe)
            g = np.empty(3)
            for axis in range(3):
                probe[j, which] = np.eye(3)[axis]
                g[axis] = dense_expectation(state, probe) - h
            norm = float(np.linalg.norm(g))
            if norm > 1e-14:
                vectors[j, which] = g / norm
                value = h + norm
            else:
                value = dense_expectation(state, vectors)
    return vectors, value


class TestCoordinateSweep:
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_four_probe_reference(self, n, mixed, rng):
        state = random_density(n, rng) if mixed else random_pure(n, rng)
        vectors = random_unit_vectors(n, rng)
        got, value = optimize._coordinate_sweep(_correlation_tensor(state), vectors)
        want, want_value = four_probe_sweep(state, vectors)
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(value - want_value) < 1e-12
        assert abs(value - dense_expectation(state, got)) < 1e-12


class TestMaxViolationSettings:
    @pytest.mark.parametrize("n,target", [(2, 2**1.5), (3, 4.0), (4, 2**2.5)])
    def test_ghz_reaches_quantum_max(self, n, target):
        res = max_violation_settings(ghz_pure(n), restarts=10, tol=1e-10, seed=1)
        assert res.best_value == pytest.approx(target, abs=1e-6)

    def test_singlet(self):
        singlet = PureState(2, np.array([0, 1, -1, 0]) / np.sqrt(2))
        res = max_violation_settings(singlet, restarts=8, tol=1e-10, seed=2)
        assert res.best_value == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_product_state_stops_at_lhv_bound(self):
        res = max_violation_settings(PureState.basis(3, 0), restarts=8,
                                     tol=1e-10, seed=3)
        assert res.best_value == pytest.approx(2.0, abs=1e-6)

    def test_traces_monotone(self):
        res = max_violation_settings(ghz_pure(3), restarts=5, tol=1e-10, seed=4)
        for trace in res.traces:
            diffs = np.diff(trace)
            assert np.all(diffs >= -optimize.ASCENT_SLACK)
        assert res.best_value == pytest.approx(max(t[-1] for t in res.traces))

    def test_seed_determinism(self):
        a = max_violation_settings(ghz_pure(3), restarts=6, tol=1e-9, seed=7)
        b = max_violation_settings(ghz_pure(3), restarts=6, tol=1e-9, seed=7)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_settings.vectors, b.best_settings.vectors)
        assert a.traces == b.traces

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            max_violation_settings(ghz_pure(2), restarts=2, tol=0.0, seed=0)


class TestMaxEigenSettings:
    @pytest.mark.parametrize("n,target", [(2, 2**1.5), (3, 4.0)])
    def test_recovers_operator_maximum(self, n, target):
        res = max_eigen_settings(n, restarts=10, tol=1e-9, seed=11)
        assert res.best_value == pytest.approx(target, abs=1e-6)

    def test_result_settings_reproduce_value(self):
        from bellkit.bellop import bell_operator
        res = max_eigen_settings(3, restarts=6, tol=1e-9, seed=12)
        lam = np.linalg.eigvalsh(bell_operator(res.best_settings))[-1]
        assert lam == pytest.approx(res.best_value, abs=1e-10)

    def test_round_off_ties_keep_lowest_restart(self):
        # every restart reaches 2^2.5; later ones differ from restart 0 only
        # in the last digits and must not replace it
        res = max_eigen_settings(4, restarts=4, tol=1e-9, seed=5)
        first = max_eigen_settings(4, restarts=1, tol=1e-9, seed=5)
        assert max(t[-1] for t in res.traces) - res.best_value <= optimize.ASCENT_SLACK
        assert np.array_equal(res.best_settings.vectors, first.best_settings.vectors)


class TestProductBoundMax:
    def test_two_qubits_one_free(self):
        res = product_bound_max(2, 1, restarts=10, tol=1e-10, seed=21)
        assert res.best_value == pytest.approx(2.0, abs=1e-5)

    def test_three_qubits_one_independent(self):
        res = product_bound_max(3, 1, restarts=15, tol=1e-10, seed=22)
        assert res.best_value == pytest.approx(2**1.5, abs=1e-5)

    def test_four_qubits_two_independent(self):
        res = product_bound_max(4, 2, restarts=15, tol=1e-10, seed=23)
        assert res.best_value == pytest.approx(2**1.5, abs=1e-5)

    def test_argmax_state_is_product_structured(self):
        res = product_bound_max(3, 1, restarts=10, tol=1e-10, seed=24)
        # tracing out the block leaves the last qubit pure
        from bellkit.qstate import partial_trace, spectrum
        reduced = partial_trace(res.best_state, {3})
        assert spectrum(reduced).values[0] == pytest.approx(1.0, abs=1e-8)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            product_bound_max(3, 3, restarts=2, tol=1e-8, seed=0)


def spectral_residual(n, theta):
    """The dense partial-spectrum residual at the search parameters theta."""
    coeff = optimize._params_to_coeff(n, theta)
    return criteria.mm_partial_residual(symstate.SymState(n, list(coeff))).residual


def fd_residual_gradient(n, theta, step=1e-6):
    """Reference gradient: central differences of the spectral residual."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] += step
        up = spectral_residual(n, probe)
        probe[i] -= 2 * step
        grad[i] = (up - spectral_residual(n, probe)) / (2 * step)
    return grad


class TestClosedFormResidual:
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_spectral_residual_and_differences(self, n, seed):
        theta = np.random.default_rng(seed).normal(size=2 * n + 1)
        value, grad = optimize._mm_residual_grad(n, theta)
        assert abs(value - spectral_residual(n, theta)) < 1e-12
        assert np.max(np.abs(grad - fd_residual_gradient(n, theta))) < 1e-7

    def test_zero_norm_guard(self):
        value, grad = optimize._mm_residual_grad(3, np.zeros(7))
        assert value == 1e6
        assert not np.any(grad)


class TestSearchMMPartial:
    def test_n3_finds_zero_residual(self):
        res = search_mm_partial(3, restarts=10, seed=31)
        assert res.direction == "min"
        assert res.best_value < 1e-9
        # recovered state re-verified through the canonical residual
        again = criteria.mm_partial_residual(res.best_state).residual
        assert again == pytest.approx(res.best_value, abs=1e-10)

    def test_n4_finds_zero_residual(self):
        res = search_mm_partial(4, restarts=15, seed=32)
        assert res.best_value < 1e-9

    def test_traces_monotone_decreasing(self):
        res = search_mm_partial(3, restarts=5, seed=33)
        for trace in res.traces:
            assert np.all(np.diff(trace) <= optimize.ASCENT_SLACK)

    def test_seed_determinism(self):
        a = search_mm_partial(3, restarts=4, seed=34)
        b = search_mm_partial(3, restarts=4, seed=34)
        assert a.best_value == b.best_value
        assert a.traces == b.traces

    def test_range_errors(self):
        with pytest.raises(ValueError):
            search_mm_partial(1, restarts=2, seed=0)


# the four optimizers at a cheap size, as (n, seed, **kwargs) -> OptResult
OPTIMIZERS = {
    "violation": lambda n, seed, **kw: max_violation_settings(
        random_pure(n, np.random.default_rng(seed)), seed=seed, **kw),
    "eigen": lambda n, seed, **kw: max_eigen_settings(n, seed=seed, **kw),
    "product": lambda n, seed, **kw: product_bound_max(n, 1, seed=seed, **kw),
    "mm": lambda n, seed, **kw: search_mm_partial(n, seed=seed, **kw),
}


class TestMultistartDriver:
    @pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("bad", [{"restarts": 0}, {"restarts": -1},
                                     {"tol": 0.0}, {"tol": -1.0},
                                     {"tol": float("nan")}, {"tol": float("inf")}])
    def test_bad_restarts_and_tol_rejected(self, kind, bad):
        kwargs = {"restarts": 1, "tol": 1e-9, **bad}
        with pytest.raises(ValueError, match="restarts|tol"):
            OPTIMIZERS[kind](2, 0, **kwargs)

    def test_capped_restart_reported(self):
        res = search_mm_partial(3, restarts=1, seed=33402888)
        assert res.statuses == ("capped",)
        assert res.converged is False
        assert len(res.traces[0]) == MAX_ITERATIONS + 1

    @given(st.sampled_from(sorted(OPTIMIZERS)), st.integers(2, 5),
           st.integers(0, 2**16), st.sampled_from([1e-12, 1e-9, 1e-4]))
    @settings(max_examples=30, deadline=None)
    def test_status_explains_how_the_restart_ended(self, kind, n, seed, tol):
        res = OPTIMIZERS[kind](n, seed, restarts=1, tol=tol)
        (trace,), (status,) = res.traces, res.statuses
        assert res.converged == (status != "capped")
        if status == "capped":
            assert len(trace) == MAX_ITERATIONS + 1
        elif status == "converged":
            sign = 1.0 if res.direction == "max" else -1.0
            below_tol = len(trace) > 1 and sign * (trace[-1] - trace[-2]) < tol
            floor = False
            if kind == "mm":    # the search's gradient and residual floors
                theta = np.delete(res.best_state.as_complex().view(float), 1)
                _, grad = optimize._mm_residual_grad(n, theta)
                floor = trace[-1] < 1e-14 or np.linalg.norm(grad) < 1e-13
            assert below_tol or floor
        else:
            assert status == "stalled" and kind == "mm"


class TestOptResultSerialization:
    def test_json_round_trip_fields(self, tmp_path):
        res = max_violation_settings(ghz_pure(2), restarts=3, tol=1e-9, seed=41)
        path = tmp_path / "opt.json"
        res.save(path)
        obj = json.loads(path.read_text())
        assert obj["best_value"] == pytest.approx(res.best_value)
        assert len(obj["traces"]) == 3
        assert obj["direction"] == "max"
        assert "settings" in obj
        assert tuple(obj["statuses"]) == res.statuses == ("converged",) * 3

    def test_sym_state_serialized(self):
        res = search_mm_partial(3, restarts=3, seed=42)
        obj = res.to_json()
        assert "sym_state" in obj
        assert obj["direction"] == "min"
