import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import bellop, criteria, optimize, qstate, symstate
from bellkit.bellop import Settings
from bellkit.certify import MIN_SHOTS, estimate_E
from bellkit.qstate import (DensityMatrix, PureState, measure_sample,
                            outcome_distribution, partial_trace, pauli_expect,
                            spectrum, x_bases, z_bases)

from conftest import ghz_pure, kron_state, random_density, random_pure, random_unit_vectors


SQ2 = 1 / np.sqrt(2)

non_finite = st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                              complex(np.inf, 1), complex(1, -np.inf)])


def apply_1q(arr, m, axis):
    """Reference: apply a 2x2 matrix to one tensor axis of arr."""
    return np.moveaxis(np.tensordot(m, arr, axes=([1], [axis])), 0, axis)


def rotated_distribution(state, dirs):
    """Reference: rotate every qubit into its measurement eigenbasis with one
    2x2 matrix per tensor axis (both sides of rho) and read the diagonal."""
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


def power_max_eigenvalue(h: np.ndarray, iters: int = 5000, tol: float = 1e-13,
                         seed: int = 7) -> float:
    """Reference: largest eigenvalue via shifted power iteration.  The
    Gershgorin shift makes h + shift*I positive, so the dominant eigenvalue
    of the shifted matrix is lambda_max + shift."""
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


def walk_sample(state, bases, subset, seed):
    """Reference sampler: rotate each measured axis of the full amplitude
    tensor in place, sum |.|^2 over the other axes for the marginal, draw
    with Generator.choice and slice the sampled branch out of the tensor."""
    n = state.n
    dirs = qstate.as_bases(bases, n)
    meas = sorted(q - 1 for q in subset)
    arr = state.amp.reshape([2] * n)
    for q in meas:
        arr = apply_1q(arr, qstate._eigenbasis_rows(dirs[q]), q)
    rest = tuple(i for i in range(n) if i not in meas)
    probs = (np.abs(arr) ** 2).sum(axis=rest).reshape(-1)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    idx = int(np.random.default_rng(seed).choice(probs.size, p=probs))
    k = len(meas)
    bits = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
    slicer: list = [slice(None)] * n
    for axis, bit in zip(meas, bits):
        slicer[axis] = bit
    branch = arr[tuple(slicer)].reshape(-1)
    outcomes = tuple(1 if b == 0 else -1 for b in bits)
    return outcomes, PureState(n - k, branch), float(probs[idx])


# unit directions with signed zeros, on and off the poles
SIGNED_ZEROS = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [1.0, -0.0, 0.0],
                         [-1.0, 0.0, -0.0], [0.0, 1.0, -0.0], [-0.0, -1.0, 0.0]])


def normalized_reference(amp):
    """Reference: PureState's normalization written with np.linalg.norm."""
    amp = np.array(amp, dtype=complex).reshape(-1)
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(amp)
    if not 1e-150 <= norm < np.inf:
        amp = amp / np.max(np.abs(amp))
        norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > qstate.PROBABILITY_ATOL / 4:
        amp = amp / norm
    return amp


def measure_sample_reference(state, bases, subset, seed):
    """Reference: measure_sample as written with np.linalg.norm for the unit
    and zero-branch checks, freshly computed eigenbasis rows, np.clip in the
    Born check and a post-state normalized through np.linalg.norm.  Returns
    (outcomes, post-state amplitudes, probability)."""
    n = state.n
    dirs = np.asarray(bases, dtype=float)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= qstate.UNIT_ATOL
    meas = sorted(q - 1 for q in subset)
    k = len(meas)
    rest = [i for i in range(n) if i not in meas]
    amp = state.amp.reshape([2] * n).transpose(meas + rest).reshape(-1)
    rows = [qstate._eigenbasis_rows_of.__wrapped__(dirs[q].tobytes()) for q in meas]
    arr = qstate._contract_leading(amp, rows).reshape(2 ** (n - k), 2**k)
    probs = np.clip((np.abs(arr) ** 2).sum(axis=0), 0.0, None)
    total = probs.sum()
    assert abs(total - 1.0) <= qstate.PROBABILITY_ATOL
    probs = probs / total
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(np.random.default_rng(seed).random(), side="right"))
    assert np.linalg.norm(arr[:, idx]) >= 1e-150
    outcomes = tuple(-1 if (idx >> (k - 1 - i)) & 1 else 1 for i in range(k))
    return outcomes, normalized_reference(arr[:, idx]), float(probs[idx])


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

    @pytest.mark.parametrize("bad", [2.7, 1.5, 2.0, np.float64(2.0), True, np.True_, "2"])
    def test_non_integer_qubit_count_rejected(self, bad):
        with pytest.raises(ValueError, match="integer"):
            PureState(bad, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="integer"):
            DensityMatrix(bad, np.eye(4) / 4)

    @pytest.mark.parametrize("n", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_qubit_count_accepted(self, n):
        assert type(PureState(n, [1.0, 0.0, 0.0, 0.0]).n) is int
        assert DensityMatrix(n, np.eye(4) / 4).n == 2

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

    @given(st.integers(1, 7), st.sampled_from([1e-300, 1e-160, 1e-3, 1.0, 1e150, 1e300]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_normalization_bit_identical_to_linalg_norm(self, n, scale, seed):
        # 1e-300 and 1e-160 take the underflow rescale, 1e300 the overflow one
        rng = np.random.default_rng(seed)
        amp = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) * scale
        assert PureState(n, amp).amp.tobytes() == normalized_reference(amp).tobytes()

    def test_overflowing_norm_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.max(np.abs(PureState(1, [1e308, 1e308]).amp - SQ2)) < 1e-15

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_unit_norm_amplitudes_keep_their_bits(self, n, rng):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amp = v / np.linalg.norm(v)
        assert np.array_equal(PureState(n, amp).amp, amp)


class TestBornSumWindow:
    """States inside the constructors' norm and trace windows, measured
    along directions inside the unit-norm window, must pass the Born sum
    check of every distribution read from them."""

    @given(st.integers(2, 5), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    @example(2, 0.9, 0)
    @settings(max_examples=40, deadline=None)
    def test_pure_state_in_norm_window(self, n, frac, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = PureState(n, v / np.linalg.norm(v) * (1.0 + frac * qstate.NORM_ATOL))
        dirs = random_unit_vectors(n, rng)[:, 0]
        assert outcome_distribution(psi, dirs).shape == (2**n,)
        assert np.isfinite(estimate_E(psi, Settings(random_unit_vectors(n, rng)),
                                      MIN_SHOTS, seed).value)
        assert 0.0 < measure_sample(psi, dirs, [1], seed).probability <= 1.0

    @given(st.integers(2, 5), st.floats(-0.99, 0.99), st.integers(0, 2**32 - 1))
    @example(3, 0.99, 0)
    @settings(max_examples=40, deadline=None)
    def test_directions_in_unit_window(self, n, frac, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure(n, rng)
        dirs = random_unit_vectors(n, rng) * (1.0 + frac * qstate.UNIT_ATOL)
        assert outcome_distribution(psi, dirs[:, 0]).shape == (2**n,)
        assert np.isfinite(estimate_E(psi, Settings(dirs), MIN_SHOTS, seed).value)
        assert 0.0 < measure_sample(psi, dirs[:, 0], [1], seed).probability <= 1.0

    @given(st.integers(1, 4), st.floats(-0.999, 0.999), st.integers(0, 2**32 - 1))
    @example(4, 0.999, 0)
    @settings(max_examples=40, deadline=None)
    def test_density_matrix_in_trace_window(self, n, frac, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(n, random_density(n, rng).mat * (1.0 + frac * qstate.TRACE_ATOL))
        dirs = random_unit_vectors(n, rng)[:, 0]
        assert outcome_distribution(rho, dirs).shape == (2**n,)
        assert np.isfinite(estimate_E(rho, Settings(random_unit_vectors(n, rng)),
                                      MIN_SHOTS, seed).value)


class TestNaNChecks:
    """NaN compares False with every tolerance, so each check must be
    written to fail on it."""

    NAN_DIRECTION = [np.nan, 0.0, 1.0]

    def test_outcome_distribution_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="unit"):
            outcome_distribution(ghz_pure(3), [self.NAN_DIRECTION] * 3)

    def test_pauli_expect_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="unit"):
            pauli_expect(ghz_pure(3), 1, self.NAN_DIRECTION)

    def test_measure_sample_rejects_nan_on_unmeasured_qubit(self):
        bases = z_bases(3)
        bases[2] = self.NAN_DIRECTION
        with pytest.raises(ValueError, match="unit"):
            measure_sample(ghz_pure(3), bases, {1}, seed=0)

    def test_born_check_rejects_nan_sum(self):
        with pytest.raises(RuntimeError, match="nan"):
            qstate._born_distribution(np.array([[0.5, 0.5], [np.nan, 0.5]]))


class TestBornDistributionRows:
    def test_each_row_clipped_and_normalized(self):
        probs = np.array([[0.25, 0.75, -1e-17], [0.5, 0.5 + 4e-13, 0.0]])
        out = qstate._born_distribution(probs)
        for row, raw in zip(out, probs):
            clipped = np.clip(raw, 0.0, None)
            assert row.tobytes() == (clipped / clipped.sum()).tobytes()

    def test_one_bad_row_raises(self):
        probs = np.full((3, 4), 0.25)
        probs[1, 2] += 1e-9
        with pytest.raises(RuntimeError, match="sum to 1.000000001"):
            qstate._born_distribution(probs)

    def test_input_left_unchanged(self):
        probs = np.array([0.2, 0.8 + 1e-13])
        before = probs.copy()
        qstate._born_distribution(probs)
        assert np.array_equal(probs, before)


class TestTensor:
    """Products by np.kron put the first factor's qubits most significant,
    the layout the library's qubit indices read."""

    def test_basis_product(self):
        out = kron_state(PureState.basis(1, 0), PureState.basis(1, 0))
        assert np.allclose(out.amp, [1, 0, 0, 0])

    def test_plus_times_zero(self):
        plus = PureState(1, [SQ2, SQ2])
        out = kron_state(plus, PureState.basis(1, 0))
        assert np.allclose(out.amp, [SQ2, 0, SQ2, 0])
        assert pauli_expect(out, 1, [1, 0, 0]) == pytest.approx(1.0)
        assert pauli_expect(out, 2, [0, 0, 1]) == pytest.approx(1.0)

    def test_ghz2_times_zero(self):
        out = kron_state(ghz_pure(2), PureState.basis(1, 0))
        expected = np.zeros(8)
        expected[0b000] = SQ2
        expected[0b110] = SQ2
        assert np.allclose(out.amp, expected)
        assert np.allclose(partial_trace(out, {3}).mat, [[1, 0], [0, 0]])

    def test_size_overflow(self):
        big = PureState.basis(8, 0)
        with pytest.raises(ValueError, match="qubit count"):
            kron_state(big, PureState.basis(7, 0))


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_axis_reference(self, n, rng):
        psi = random_pure(n, rng)
        arr = psi.amp.reshape([2] * n)
        for q, d in enumerate(random_unit_vectors(n, rng)[:, 0], start=1):
            ref = np.vdot(psi.amp, apply_1q(arr, qstate.pauli_dot(d), q - 1).reshape(-1)).real
            assert abs(pauli_expect(psi, q, d) - ref) <= 1e-15

    def test_matches_partial_trace(self, rng):
        psi = random_pure(4, rng)
        for q in (1, 3):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            reduced = partial_trace(psi, {q})
            via_trace = np.trace(reduced.mat @ qstate.pauli_dot(d)).real
            assert pauli_expect(psi, q, d) == pytest.approx(via_trace, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_density_matches_pure_path(self, n, rng):
        psi = random_pure(n, rng)
        rho = psi.to_density()
        for q, d in enumerate(random_unit_vectors(n, rng)[:, 0], start=1):
            assert abs(pauli_expect(rho, q, d) - pauli_expect(psi, q, d)) <= 1e-15


class TestPartialTrace:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_ghz_single_qubit_is_maximally_mixed(self, n):
        for q in (1, n):
            reduced = partial_trace(ghz_pure(n), {q})
            assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factor(self):
        plus = PureState(1, [SQ2, SQ2])
        both = kron_state(plus, plus)
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


def partial_trace_subscripts(rho: DensityMatrix, keep) -> np.ndarray:
    """Reference: the mixed partial trace as one einsum over the 2n qubit
    axes, kept row and column axes labelled in ascending order and each
    traced qubit's row and column sharing one label."""
    n = rho.n
    keep0 = sorted(q - 1 for q in keep)
    k = len(keep0)
    traced = [q for q in range(n) if q not in keep0]
    row, col = {}, {}
    for p, q in enumerate(keep0):
        row[q], col[q] = p, k + p
    for t, q in enumerate(traced):
        row[q] = col[q] = 2 * k + t
    subs = [row[q] for q in range(n)] + [col[q] for q in range(n)]
    out = np.einsum(rho.mat.reshape([2] * (2 * n)), subs, list(range(2 * k)))
    return DensityMatrix(k, out.reshape(2**k, 2**k)).mat


class TestPartialTraceMatchesSubscripts:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_every_keep_set_bit_identical(self, n, rank, seed):
        rho = random_density(n, np.random.default_rng(seed), rank=rank)
        for k in range(1, n):
            for keep in itertools.combinations(range(1, n + 1), k):
                assert np.array_equal(partial_trace(rho, keep).mat,
                                      partial_trace_subscripts(rho, keep))


class TestQubitIndex:
    @pytest.mark.parametrize("bad", [1.9, 2.5, 2.0, np.float64(1.0), True, np.True_, "1"])
    def test_non_integer_index_rejected(self, bad):
        psi = ghz_pure(3)
        with pytest.raises(ValueError, match="integer"):
            measure_sample(psi, z_bases(3), [bad], seed=0)
        with pytest.raises(ValueError, match="integer"):
            partial_trace(psi, [bad])
        with pytest.raises(ValueError, match="integer"):
            pauli_expect(psi, bad, [0, 0, 1])

    @pytest.mark.parametrize("q", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_index_accepted(self, q, rng):
        psi = random_pure(3, rng)
        assert np.array_equal(partial_trace(psi, [q]).mat, partial_trace(psi, [2]).mat)
        assert pauli_expect(psi, q, [1, 0, 0]) == pauli_expect(psi, 2, [1, 0, 0])
        a = measure_sample(psi, x_bases(3), [q], seed=5)
        b = measure_sample(psi, x_bases(3), [2], seed=5)
        assert a.outcomes == b.outcomes
        assert np.array_equal(a.post.amp, b.post.amp)


class TestIntegerArguments:
    """Every public count, index and sign goes through one rule: a float, a
    bool or a value out of range fails with a ValueError naming the argument,
    a numpy integer passes.  A cached table is checked past its cache: True
    after 1 is not the cached entry of 1."""

    CASES = {
        "max_eigen_settings": (lambda: optimize.max_eigen_settings(2.5),
                               "n must be an integer, got 2.5"),
        "search_mm_partial": (lambda: optimize.search_mm_partial(5.0),
                              "n must be an integer, got 5.0"),
        "product_bound_max": (lambda: optimize.product_bound_max(4, 1.5),
                              "m must be an integer, got 1.5"),
        "ghz_optimal_settings": (lambda: bellop.ghz_optimal_settings(2.5),
                                 "n must be an integer, got 2.5"),
        "lhv_max": (lambda: bellop.lhv_max(2.0), "n must be an integer, got 2.0"),
        "expand_correlators": (lambda: bellop.expand_correlators(True),
                               "n must be an integer, got True"),
        "ghz-n": (lambda: symstate.ghz(2.5), "n must be an integer, got 2.5"),
        "ghz-sign": (lambda: symstate.ghz(3, 1.0), r"sign must be \+1 or -1, got 1.0"),
        "split": (lambda: symstate.split(2, 3, 1.5), "m must be an integer, got 1.5"),
        "inner-float": (lambda: symstate.inner(0, 0, 2.5), "n must be an integer, got 2.5"),
        "inner-bool": (lambda: symstate.inner(1, 1, True), "n must be an integer, got True"),
        "BellBasisState": (lambda: symstate.BellBasisState(2, (0, 1), 1.0),
                           r"sign must be \+1 or -1, got 1.0"),
        "distribute_check": (lambda: criteria.distribute_check(3, 1, 2.5, 0),
                             "trials must be an integer, got 2.5"),
        "basis-negative-index": (lambda: PureState.basis(2, -1),
                                 r"index must be in \[0, 3\], got -1"),
        "basis-float-index": (lambda: PureState.basis(2, 1.0),
                              "index must be an integer, got 1.0"),
        "BellBasisState-float-n": (lambda: symstate.BellBasisState(2.0, (0, 1), 1),
                                   "qubit count must be an integer, got 2.0"),
        "BellBasisState-n0": (lambda: symstate.BellBasisState(0, (), 1),
                              r"qubit count must be in \[1, 14\], got 0"),
        "z_to_x_matrix-bool": (lambda: [symstate.z_to_x_matrix(1), symstate.z_to_x_matrix(True)],
                               "n must be an integer, got True"),
        "z_to_x_matrix-float": (lambda: symstate.z_to_x_matrix(2.5),
                                "n must be an integer, got 2.5"),
        "schmidt_map-m-above-n": (lambda: criteria.schmidt_map(4, 5),
                                  r"m must be in \[0, 4\], got 5"),
        "schmidt_map-float-m": (lambda: criteria.schmidt_map(4, 2.5),
                                "m must be an integer, got 2.5"),
        "schmidt_map-bool-n": (lambda: [criteria.schmidt_map(1, 0), criteria.schmidt_map(True, 0)],
                               "n must be an integer, got True"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_non_integer_rejected(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_integers_accepted(self):
        i = np.int64
        assert optimize.max_eigen_settings(i(2), restarts=1).best_value == pytest.approx(2 ** 1.5)
        assert optimize.search_mm_partial(i(3), restarts=1).best_value < 1e-12
        assert optimize.product_bound_max(i(3), i(1), restarts=1).best_value <= 2 ** 1.5 + 1e-8
        assert bellop.ghz_optimal_settings(i(3)).n == 3
        assert bellop.lhv_max(i(3)) == 2
        assert bellop.expand_correlators(i(3)).n == 3
        assert symstate.ghz(i(3)) == symstate.ghz(3)
        assert symstate.ghz_y_form(i(3), -1) == symstate.ghz_y_form(3, -1)
        assert symstate.split(i(2), i(3), i(1)) == symstate.split(2, 3, 1)
        assert symstate.inner(i(1), i(1), i(3)) == 3
        assert symstate.BellBasisState(2, (0, 1), i(-1)).sign == -1
        assert criteria.distribute_check(i(3), i(1), i(2), 0).passed
        assert np.array_equal(PureState.basis(i(2), i(3)).amp, [0, 0, 0, 1])
        assert symstate.BellBasisState(i(2), (0, 1), 1) == symstate.BellBasisState(2, (0, 1), 1)
        assert symstate.z_to_x_matrix(i(3)) == symstate.z_to_x_matrix(3)
        assert np.array_equal(criteria.schmidt_map(i(4), i(2)), criteria.schmidt_map(4, 2))

    def test_numpy_sign_keeps_states_exact(self):
        assert symstate.ghz(3, np.int64(-1)) == symstate.ghz(3, -1)
        assert symstate.ghz_y_form(3, np.int64(-1)) == symstate.ghz_y_form(3, -1)


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
        psi = kron_state(PureState.basis(1, 0), PureState.basis(1, 0))
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

    def test_density_matrix_rejected(self):
        with pytest.raises(TypeError, match="PureState"):
            measure_sample(ghz_pure(2).to_density(), z_bases(2), {1}, seed=0)

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), True, np.True_, "1"])
    def test_non_integer_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            measure_sample(ghz_pure(3), z_bases(3), {1}, seed=bad)

    def test_negative_seed_rejected(self):
        # numpy's "expected non-negative integer" named no argument
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            measure_sample(ghz_pure(3), z_bases(3), {1}, seed=-1)

    @given(st.integers(2, 7), st.booleans(), st.sampled_from(["x", "z", "random", "signed zeros"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference(self, n, ghz, basis, seed):
        rng = np.random.default_rng(seed)
        psi = ghz_pure(n) if ghz else random_pure(n, rng)
        if basis == "random":
            bases = random_unit_vectors(n, rng)[:, 0]
        elif basis == "signed zeros":
            bases = SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS), size=n)]
        else:
            bases = x_bases(n) if basis == "x" else z_bases(n)
        subset = [int(q) + 1 for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False)]
        draw = int(rng.integers(2**63))
        rec = measure_sample(psi, bases, subset, draw)
        outcomes, post, probability = measure_sample_reference(psi, bases, subset, draw)
        assert rec.outcomes == outcomes
        assert rec.post.amp.tobytes() == post.tobytes()
        assert np.float64(rec.probability).tobytes() == np.float64(probability).tobytes()

    def test_eigenbasis_rows_cached_and_read_only(self, rng):
        for d in [*random_unit_vectors(4, rng)[:, 0], *SIGNED_ZEROS, np.array([1e-9, 0.0, -1.0])]:
            rows = qstate._eigenbasis_rows(d)
            assert qstate._eigenbasis_rows(d.copy()) is rows
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
            assert rows.tobytes() == qstate._eigenbasis_rows_of.__wrapped__(d.tobytes()).tobytes()
        # equal as floats, different as bits: cached apart
        assert qstate._eigenbasis_rows([0.0, 0.0, 1.0]) is not qstate._eigenbasis_rows([-0.0, 0.0, 1.0])

    def test_unmeasured_bases_still_validated(self):
        bases = z_bases(3)
        bases[2] = [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="unit"):
            measure_sample(ghz_pure(3), bases, {1}, seed=0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_walk_reference(self, n, rng):
        ghz = ghz_pure(n)
        # the "mixed" cases come last, so the others draw the inputs they always did
        cases = [*itertools.product(("ghz", "random"), ("x", "z", "random")),
                 ("ghz", "mixed"), ("random", "mixed")]
        for kind, basis in cases:
            for _ in range(4):
                psi = ghz if kind == "ghz" else random_pure(n, rng)
                if basis == "mixed":
                    # x on every qubit but one, so directions repeat and differ
                    bases = x_bases(n)
                    bases[int(rng.integers(n))] = random_unit_vectors(1, rng)[0, 0]
                else:
                    bases = {"x": x_bases(n), "z": z_bases(n),
                             "random": random_unit_vectors(n, rng)[:, 0]}[basis]
                k = int(rng.integers(1, n))
                subset = [int(q) + 1 for q in rng.choice(n, size=k, replace=False)]
                seed = int(rng.integers(2**63))
                rec = measure_sample(psi, bases, subset, seed)
                outcomes, post, probability = walk_sample(psi, bases, subset, seed)
                assert rec.outcomes == outcomes
                assert np.max(np.abs(rec.post.amp - post.amp)) <= 1e-15
                assert abs(rec.probability - probability) <= 1e-15

    @given(st.integers(2, 7), st.booleans(), st.integers(0, 2**32 - 1))
    @example(3, True, 1866)   # a direction 0.028 rad from the z-axis
    @settings(max_examples=60, deadline=None)
    def test_probability_is_outcome_marginal(self, n, ghz, seed):
        rng = np.random.default_rng(seed)
        psi = ghz_pure(n) if ghz else random_pure(n, rng)
        dirs = random_unit_vectors(n, rng)[:, 0]
        meas = sorted(int(q) for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        rec = measure_sample(psi, dirs, [q + 1 for q in meas], seed)
        joint = outcome_distribution(psi, dirs).reshape([2] * n)
        marginal = joint.sum(axis=tuple(i for i in range(n) if i not in meas))
        bits = tuple(0 if o == 1 else 1 for o in rec.outcomes)
        assert abs(rec.probability - marginal[bits]) <= 1e-14


class TestOutcomeDistribution:
    def test_product_z(self):
        psi = kron_state(PureState.basis(1, 0), PureState.basis(1, 0))
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

    @pytest.mark.parametrize("theta", np.logspace(-9, -1, 9))
    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_directions_near_the_poles(self, theta, pole, rng):
        d = np.array([np.sin(theta) * np.cos(0.7), np.sin(theta) * np.sin(0.7),
                      pole * np.cos(theta)])
        rows = qstate._eigenbasis_rows(d)
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(2))) <= 1e-15
        psi = random_pure(2, rng)
        p_plus = outcome_distribution(psi, [d, [0, 0, 1]]).reshape(2, 2).sum(axis=1)[0]
        assert abs(p_plus - (1 + pauli_expect(psi, 1, d)) / 2) <= 1e-15
        rec = measure_sample(psi, [d, [0, 0, 1]], [1], seed=3)
        assert abs(rec.probability - (p_plus if rec.outcomes == (1,) else 1 - p_plus)) <= 1e-15

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

    @pytest.mark.parametrize("mixed", [False, True])
    def test_non_integer_n_rejected(self, mixed, rng):
        obj = qstate.state_to_json(random_density(2, rng) if mixed else random_pure(2, rng))
        obj["n"] = 2.7
        with pytest.raises(ValueError, match="integer"):
            qstate.state_from_json(obj)

    def test_json_shape(self, tmp_path):
        path = tmp_path / "s.json"
        qstate.save_state(path, ghz_pure(2))
        obj = json.loads(path.read_text())
        assert obj["n"] == 2
        assert len(obj["amp"]) == 4
        assert len(obj["amp"][0]) == 2
