import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import criteria, optimize, symstate
from bellkit.bellop import _correlation_tensor, _fold
from bellkit.optimize import (MAX_ITERATIONS, max_eigen_settings, max_violation_settings,
                              product_bound_max, search_mm_partial)
from bellkit.qstate import PureState

from conftest import (ghz_pure, kron_chain_operator, random_density, random_pure,
                      random_unit_vectors)


def dense_expectation(state, vectors):
    """<B(vectors)> through the dense operator; vectors may be axis or zero
    probes, so no unit-norm validation."""
    b = kron_chain_operator(vectors)
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


def fold_at(corr, vectors, *moves):
    """Re _fold(v) . corr with the coordinates of v moved by (flat axis, step)."""
    x = vectors.ravel().copy()
    for axis, step in moves:
        x[axis] += step
    return float(_fold(x.reshape(vectors.shape)).real @ corr)


def central_gradient(corr, vectors, h=1e-3):
    """Gradient of Re _fold(v) . corr by central differences; exact up to
    rounding, since the objective is linear in every coordinate."""
    return np.array([(fold_at(corr, vectors, (a, h)) - fold_at(corr, vectors, (a, -h))) / (2 * h)
                     for a in range(vectors.size)])


def central_hessian(corr, vectors, h=1e-3):
    """Hessian of Re _fold(v) . corr by central differences; the diagonal is
    zero since the objective is linear in every coordinate."""
    def cross(a, b):
        return (fold_at(corr, vectors, (a, h), (b, h)) - fold_at(corr, vectors, (a, h), (b, -h))
                - fold_at(corr, vectors, (a, -h), (b, h))
                + fold_at(corr, vectors, (a, -h), (b, -h))) / (4 * h * h)
    return np.array([[cross(a, b) if a != b else 0.0 for b in range(vectors.size)]
                     for a in range(vectors.size)])


def riemannian_gradient_norm(state, vectors):
    """Norm of the gradient of <B_n> projected onto the unit spheres of the
    settings, from central differences."""
    grad = central_gradient(_correlation_tensor(state), vectors)
    x, g = vectors.reshape(-1, 3), grad.reshape(-1, 3)
    return float(np.linalg.norm(g - np.sum(x * g, axis=1)[:, None] * x))


class TestFoldDerivatives:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_match_central_differences(self, n, mixed, rng):
        state = random_density(n, rng) if mixed else random_pure(n, rng)
        corr = _correlation_tensor(state)
        vectors = rng.normal(size=(n, 2, 3))
        grad, hess = optimize._fold_derivatives(corr, vectors)
        assert np.max(np.abs(grad.ravel() - central_gradient(corr, vectors))) < 1e-9
        assert np.max(np.abs(hess.reshape(6 * n, 6 * n) - central_hessian(corr, vectors))) < 1e-9

    def test_newton_steps_converge_quadratically(self):
        state = random_pure(3, np.random.default_rng(0))
        corr = _correlation_tensor(state)
        best = max_violation_settings(state, restarts=1, tol=1e-14, seed=0).best_settings.vectors
        vectors = best + 1e-3 * np.random.default_rng(1).normal(size=best.shape)
        vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
        value = float(_fold(vectors).real @ corr)
        norms = [riemannian_gradient_norm(state, vectors)]
        for _ in range(2):
            moved = next(optimize._newton_moves(
                vectors.reshape(-1, 3), *optimize._fold_derivatives(corr, vectors)))
            moved = moved.reshape(vectors.shape)
            moved_value = float(_fold(moved).real @ corr)
            assert moved_value > value
            vectors, value = moved, moved_value
            norms.append(riemannian_gradient_norm(state, vectors))
        assert norms[0] > 1e-3 and norms[1] < 1e-4 and norms[2] < 1e-8


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

    @pytest.mark.parametrize("n", [3, 7, 8])
    def test_generic_states_converge_to_stationary_settings(self, n):
        # plain coordinate ascent caps all three restarts here, still climbing
        state = random_pure(n, np.random.default_rng(3))
        res = max_violation_settings(state, restarts=3, seed=3)
        assert res.statuses == ("converged",) * 3
        assert riemannian_gradient_norm(state, res.best_settings.vectors) <= 1e-4

    @pytest.mark.parametrize("seed", [44, 91])
    def test_only_a_sweep_ends_a_restart_converged(self, seed, monkeypatch):
        # at these seeds a Newton step kept for any rise gains less than tol
        # after sweeps that each gained more, and ended a restart "converged"
        swept = set()
        sweep = optimize._coordinate_sweep

        def recording_sweep(corr, vectors):
            out = sweep(corr, vectors)
            swept.add(out[1])
            return out

        monkeypatch.setattr(optimize, "_coordinate_sweep", recording_sweep)
        tol = 1e-9
        res = max_violation_settings(random_pure(2, np.random.default_rng(seed)),
                                     restarts=3, tol=tol, seed=seed)
        for trace, status in zip(res.traces, res.statuses):
            newton_gains = [b - a for a, b in zip(trace, trace[1:]) if b not in swept]
            assert all(gain > tol for gain in newton_gains)
            if status == "converged":
                assert trace[-1] in swept and trace[-1] - trace[-2] < tol


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

    # traces of the dense eigh eigen step; the closed-form step keeps their
    # lengths and statuses and every value within 1e-12
    PINNED_TRACES = {
        (3, 12): ((3.3997600895898876, 4.0, 4.0),
                  (3.573187648032465, 4.000000000000003, 4.000000000000001),
                  (3.421994084695424, 4.000000000000001, 4.000000000000001)),
        (7, 11): ((11.77981828830303, 16.0, 16.0),
                  (12.231392656997032, 16.000000000000004, 16.00000000000001),
                  (10.598293177553593, 15.999999999999998, 16.000000000000014)),
    }

    @pytest.mark.parametrize("n,seed", list(PINNED_TRACES))
    def test_pinned_traces(self, n, seed):
        res = max_eigen_settings(n, restarts=3, tol=1e-9, seed=seed)
        pinned = self.PINNED_TRACES[n, seed]
        assert [len(t) for t in res.traces] == [len(t) for t in pinned]
        assert res.statuses == ("converged",) * 3
        assert max(abs(x - y) for t, u in zip(res.traces, pinned) for x, y in zip(t, u)) <= 1e-12


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

    def test_traces_pinned(self):
        # trace lengths, statuses and best value of the dense
        # effective-operator implementation this one replaced
        res = product_bound_max(4, 2, restarts=5, tol=1e-10, seed=23)
        assert [len(t) for t in res.traces] == [4] * 5
        assert res.statuses == ("converged",) * 5
        assert abs(res.best_value - 2.8284271247461916) <= 1e-12

    def test_argmax_state_is_product_structured(self):
        res = product_bound_max(3, 1, restarts=10, tol=1e-10, seed=24)
        # tracing out the block leaves the last qubit pure
        from bellkit.qstate import partial_trace, spectrum
        reduced = partial_trace(res.best_state, {3})
        assert spectrum(reduced).values[0] == pytest.approx(1.0, abs=1e-8)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            product_bound_max(3, 3, restarts=2, tol=1e-8, seed=0)


def theta_coefficients(n, theta):
    """The symmetric coefficients c_j = (theta_2j + i theta_2j+1) / sqrt(C(n,j))."""
    return theta.view(complex) / np.sqrt([comb(n, j) for j in range(n + 1)])


def spectral_residual(n, theta):
    """The dense partial-spectrum residual at the search parameters theta."""
    state = symstate.SymState(n, list(theta_coefficients(n, theta)))
    return criteria.mm_partial_residual(state).residual


def dense_purity(n, theta):
    """|rho rho^H|_F^2 for rho the unnormalized floor(n/2)-qubit partial state
    of the embedded, unnormalized symmetric state."""
    psi = symstate.embed_vector(symstate.SymState(n, list(theta_coefficients(n, theta))))
    amp = psi.reshape(2 ** (n // 2), -1)
    rho = amp @ amp.conj().T
    return float(np.vdot(rho, rho).real)


def central_differences(fn, theta, step=1e-6):
    """Central differences of fn (scalar or array valued) along each theta_k."""
    rows = []
    for k in range(theta.size):
        probe = theta.copy()
        probe[k] += step
        up = fn(probe)
        probe[k] -= 2 * step
        rows.append((up - fn(probe)) / (2 * step))
    return np.array(rows)


def unit_theta(n, seed):
    """A random point of the search's unit sphere in R^(2n+2)."""
    theta = np.random.default_rng(seed).normal(size=2 * n + 2)
    return theta / np.linalg.norm(theta)


class TestClosedFormResidual:
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_spectral_residual(self, n, seed):
        theta = unit_theta(n, seed)
        value, _, _ = optimize._mm_residual_derivatives(n, theta)
        assert abs(value - spectral_residual(n, theta)) < 1e-12

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_central_differences(self, n, seed):
        theta = unit_theta(n, seed)
        _, grad, _ = optimize._mm_residual_derivatives(n, theta)
        reference = central_differences(lambda x: dense_purity(n, x), theta)
        assert np.max(np.abs(grad - reference)) < 1e-7

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hessian_matches_central_differences_of_gradient(self, n, seed):
        theta = unit_theta(n, seed)
        _, _, hess = optimize._mm_residual_derivatives(n, theta)
        reference = central_differences(lambda x: optimize._mm_residual_derivatives(n, x)[1], theta)
        assert np.max(np.abs(hess - reference)) < 1e-7


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

    def test_n5_ends_at_the_witness_floor_uncapped(self):
        res = search_mm_partial(5, restarts=200, seed=101)
        assert abs(res.best_value - 1 / 150) < 1e-12
        assert "capped" not in res.statuses

    def test_seed_33402888_ends_uncapped_below_1e_12(self):
        res = search_mm_partial(3, restarts=1, seed=33402888)
        assert res.statuses != ("capped",)
        assert res.best_value < 1e-12

    def test_evaluates_each_point_once(self, monkeypatch):
        seen = []
        derivatives = optimize._mm_residual_derivatives

        def recording(n, theta):
            seen.append(theta.tobytes())
            return derivatives(n, theta)

        monkeypatch.setattr(optimize, "_mm_residual_derivatives", recording)
        search_mm_partial(5, restarts=200, seed=101)
        assert len(seen) > 200
        assert len(set(seen)) == len(seen)

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

    def test_non_integer_seed_rejected(self):
        # numpy's SeedSequence used to raise a TypeError that named no argument
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            max_violation_settings(ghz_pure(3), restarts=1, seed=1.5)

    def test_bool_restarts_rejected(self):
        # True used to run as one restart
        with pytest.raises(ValueError, match="restarts must be an integer, got True"):
            search_mm_partial(3, restarts=True)

    @pytest.mark.parametrize("run", [
        lambda: max_violation_settings(ghz_pure(2), restarts=1, seed=-2),
        lambda: max_eigen_settings(2, restarts=1, seed=-2),
        lambda: product_bound_max(2, 1, restarts=1, seed=-2),
        lambda: search_mm_partial(2, restarts=1, seed=-2)],
        ids=["violation", "eigen", "product", "mm"])
    def test_negative_seed_rejected(self, run):
        with pytest.raises(ValueError, match="seed must be at least 0, got -2"):
            run()

    @staticmethod
    def run_toy(search, monkeypatch):
        """One restart of a toy search whose iterate is its own value."""
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        return optimize._multistart(search, lambda point: (None, None, point), 1, 0, 1e-3)

    def test_return_after_start_is_stalled(self, monkeypatch):
        def stalls(rng):
            yield 1.0, 1.0

        res = self.run_toy(stalls, monkeypatch)
        assert res.statuses == ("stalled",) and res.traces == ((1.0,),)
        assert res.converged is True

    def test_gain_below_tol_is_converged(self, monkeypatch):
        def converges(rng):
            yield from ((value, value) for value in (1.0, 2.0, 2.0005, 3.0))

        res = self.run_toy(converges, monkeypatch)
        assert res.statuses == ("converged",) and res.traces == ((1.0, 2.0, 2.0005),)
        assert res.best_value == 2.0005

    def test_endless_search_is_capped(self, monkeypatch):
        def climbs(rng):
            value = 0.0
            while True:
                yield value, value
                value += 1.0

        res = self.run_toy(climbs, monkeypatch)
        assert res.statuses == ("capped",) and res.converged is False
        assert len(res.traces[0]) == optimize.MAX_ITERATIONS + 1

    def test_capped_restart_reported(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        res = search_mm_partial(3, restarts=1, seed=33402888)
        assert res.statuses == ("capped",)
        assert res.converged is False
        assert len(res.traces[0]) == optimize.MAX_ITERATIONS + 1

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
            assert len(trace) > 1 and sign * (trace[-1] - trace[-2]) < tol
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
