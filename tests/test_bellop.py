import itertools
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import bellop, optimize
from bellkit.bellop import (Settings, bell_expectation, bell_operator, bound_check,
                            expand_correlators, ghz_optimal_settings, lhv_max)
from bellkit.qstate import MAX_QUBITS, PAULI_X, PAULI_Y, PAULI_Z, PureState, pauli_dot
from bellkit.symstate import bell_basis

from conftest import (ghz_pure, kron_chain_operator, random_density, random_pure,
                      random_unit_vectors)


def literal_f(values) -> tuple[Fraction, Fraction]:
    """Reference (F_n, F_n') at one assignment, values[j] = (a_j, a_j'), by the
    paper's recursion taken literally in Fraction arithmetic, from
    (F_1, F_1') = (2 a_1, 2 a_1'):
        F_n  = F_{n-1} (a_n + a_n')/2 + F_{n-1}' (a_n - a_n')/2
        F_n' = F_{n-1}' (a_n + a_n')/2 - F_{n-1} (a_n - a_n')/2."""
    (a, ap), *rest = values
    f, fp = Fraction(2 * a), Fraction(2 * ap)
    for a, ap in rest:
        plus, minus = Fraction(a + ap, 2), Fraction(a - ap, 2)
        f, fp = f * plus + fp * minus, fp * plus - f * minus
    return f, fp


def evaluate_poly(poly, values) -> Fraction:
    """Reference: the multilinear expansion summed term by term on one
    assignment, values[j] = (a_j, a_j')."""
    assert len(values) == poly.n
    total = Fraction(0)
    for choice, coeff in poly.items():
        prod = 1
        for j, c in enumerate(choice):
            prod *= values[j][c]
        total += coeff * prod
    return total


def operator_from_correlators(st_: Settings) -> np.ndarray:
    """Reference: B_n assembled term by term from the multilinear expansion,
    sum_c coeff(c) (x)_j (chosen direction).sigma, independent of the
    recursion in bell_operator."""
    poly = expand_correlators(st_.n)
    dim = 2**st_.n
    total = np.zeros((dim, dim), dtype=complex)
    for choice, coeff in poly.items():
        term = np.eye(1, dtype=complex)
        for j, c in enumerate(choice):
            term = np.kron(term, pauli_dot(st_.vectors[j, c]))
        total += float(coeff) * term
    return total


def brute_force_lhv_max(n: int) -> Fraction:
    """Independent oracle: literal_f's F_n maximized over every assignment."""
    return max(literal_f(values)[0]
               for values in itertools.product(ONE_QUBIT_PAIRS, repeat=n))


def fraction_expansion(n: int) -> dict:
    """Reference: the expansion of F_n by the recursion on Fraction
    dictionaries, F_n(c + (0,)) = (alpha + alpha')/2 and
    F_n(c + (1,)) = (alpha - alpha')/2, with alpha' the coefficient of the
    swapped choice string."""
    coeffs: dict = {(0,): Fraction(2)}
    for _ in range(n - 1):
        swapped = {tuple(1 - c for c in choice): v for choice, v in coeffs.items()}
        new: dict = {}
        for choice in set(coeffs) | set(swapped):
            alpha = coeffs.get(choice, Fraction(0))
            alpha_p = swapped.get(choice, Fraction(0))
            if alpha + alpha_p:
                new[choice + (0,)] = (alpha + alpha_p) / 2
            if alpha - alpha_p:
                new[choice + (1,)] = (alpha - alpha_p) / 2
        coeffs = new
    return coeffs


def dp_lhv_table(n: int, swapped: bool = False) -> np.ndarray:
    """Reference: F_n on all 4^n assignments by an int64 dynamic program over
    the joint (F_k, F_k') recursion, qubit 1 most significant and each
    qubit's (a, a') ordered (1, 1), (1, -1), (-1, 1), (-1, -1); with
    ``swapped`` every a_j and a_j' trade places, which gives F_n'."""
    a = np.array([1, 1, -1, -1], dtype=np.int64)
    ap = np.array([1, -1, 1, -1], dtype=np.int64)
    if swapped:
        a, ap = ap, a
    f, fp = 2 * a, 2 * ap
    plus, minus = a + ap, a - ap
    for _ in range(n - 1):
        new_f = (plus[None, :] * f[:, None] + minus[None, :] * fp[:, None]) // 2
        new_fp = (plus[None, :] * fp[:, None] - minus[None, :] * f[:, None]) // 2
        f, fp = new_f.reshape(-1), new_fp.reshape(-1)
    return f


# each qubit's (a, a') in the order of _assignment_table's base-4 digits
ONE_QUBIT_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@lru_cache(maxsize=None)
def assignment_table(n: int, primed: bool = False) -> np.ndarray:
    """F_n = Re G (or F_n' = Im G) on all 4^n assignments, as the library
    enumerates them."""
    g = bellop._assignment_table(n)
    return g.imag if primed else g.real


def table_f(values) -> tuple[int, int]:
    """(F_n, F_n') read from assignment_table at one assignment."""
    idx = 0
    for pair in values:
        idx = 4 * idx + ONE_QUBIT_PAIRS.index(tuple(pair))
    return (int(assignment_table(len(values))[idx]),
            int(assignment_table(len(values), primed=True)[idx]))


def random_assignment(n: int, rng: np.random.Generator) -> tuple:
    return tuple(map(tuple, rng.integers(0, 2, size=(n, 2)) * 2 - 1))


class TestFold:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_operator_equals_kron_chain(self, n, rng):
        # the fold and the chain sum the same polynomial in different orders
        for _ in range(3 if n <= 8 else 1):
            vectors = random_unit_vectors(n, rng)
            want = kron_chain_operator(vectors)
            got = bell_operator(Settings(vectors))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_expansion_equals_fraction_recursion(self, n):
        coeffs = expand_correlators(n).coeffs
        assert dict(coeffs) == fraction_expansion(n)
        assert list(coeffs) == sorted(coeffs)
        assert all(type(c) is int for choice in coeffs for c in choice)
        assert all(type(v) is Fraction for v in coeffs.values())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lhv_table_equals_dynamic_program(self, n):
        # Re G and Im G on the +-1 pairs are F_n and F_n', exact in float64
        reference = dp_lhv_table(n)
        assert np.array_equal(assignment_table(n), reference)
        assert np.array_equal(assignment_table(n, primed=True), dp_lhv_table(n, swapped=True))
        assert lhv_max(n) == reference.max() == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_split_identity_on_every_assignment(self, n):
        # F_n = (F_{n-m} + F_{n-m}') F_m / 4 + (F_{n-m} - F_{n-m}') F_m' / 4,
        # head on the first n-m qubits, so F_n's table is head-major
        full = assignment_table(n)
        for m in range(1, n):
            head, head_p = assignment_table(n - m), assignment_table(n - m, primed=True)
            tail, tail_p = assignment_table(m), assignment_table(m, primed=True)
            rhs = (np.outer(head + head_p, tail) + np.outer(head - head_p, tail_p)) / 4
            assert np.array_equal(full.reshape(4 ** (n - m), 4 ** m), rhs)

    def test_tables_match_exact_evaluator(self):
        # entry i of the table is the assignment whose base-4 digits index
        # each qubit's (a, a') in ONE_QUBIT_PAIRS order
        for n in range(1, 7):
            table, table_p = assignment_table(n), assignment_table(n, primed=True)
            for idx, values in enumerate(itertools.product(ONE_QUBIT_PAIRS, repeat=n)):
                assert (table[idx], table_p[idx]) == literal_f(values)

    @given(st.integers(7, bellop.MAX_ENUM_QUBITS).flatmap(
        lambda n: st.lists(st.sampled_from(ONE_QUBIT_PAIRS), min_size=n, max_size=n)))
    @settings(max_examples=50, deadline=None)
    def test_drawn_assignments_match_literal_recursion(self, values):
        assert table_f(values) == literal_f(values)


assignments = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(*[st.sampled_from(ONE_QUBIT_PAIRS) for _ in range(n)]))


class TestClassicalPolynomial:
    def test_single_qubit(self):
        assert table_f(((1, 1),))[0] == 2
        assert table_f(((-1, 1),))[0] == -2

    def test_chsh_combination(self):
        # (a + a') b + (a - a') b' at (1, 1, 1, -1)
        assert table_f(((1, 1), (1, -1)))[0] == 2

    def test_three_qubit_symmetric_form(self):
        # E(a,b,c') + E(a,b',c) + E(a',b,c) - E(a',b',c') at all +1
        assert table_f(((1, 1), (1, 1), (1, 1)))[0] == 1 + 1 + 1 - 1

    def test_prime_base_case(self):
        assert table_f(((1, -1),))[1] == -2

    def test_prime_via_swap_example(self):
        # a'b' + a'b + ab' - ab with a=a'=b=1, b'=-1
        assert table_f(((1, 1), (1, -1)))[1] == -2

    @given(assignments)
    def test_prime_is_swap_involution(self, values):
        # trading every a_j with a_j' exchanges F_n and F_n'
        swapped = tuple((ap, a) for a, ap in values)
        assert table_f(swapped) == table_f(values)[::-1]

    @given(assignments)
    @settings(max_examples=200)
    def test_magnitude_bounded_by_two(self, values):
        assert abs(table_f(values)[0]) <= 2


class TestLhvMax:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_equals_two(self, n):
        assert lhv_max(n) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_brute_force_oracle(self, n):
        assert lhv_max(n) == brute_force_lhv_max(n)

    def test_too_large(self):
        with pytest.raises(ValueError):
            lhv_max(11)


class TestExpandCorrelators:
    def test_single_qubit(self):
        poly = expand_correlators(1)
        assert dict(poly.items()) == {(0,): Fraction(2)}

    def test_two_qubits(self):
        poly = expand_correlators(2)
        assert dict(poly.items()) == {
            (0, 0): Fraction(1), (0, 1): Fraction(1),
            (1, 0): Fraction(1), (1, 1): Fraction(-1),
        }

    def test_three_qubits_matches_symmetric_form(self):
        poly = expand_correlators(3)
        assert dict(poly.items()) == {
            (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1),
            (1, 0, 0): Fraction(1), (1, 1, 1): Fraction(-1),
        }

    def test_cached_expansion_is_read_only(self):
        poly = expand_correlators(3)
        assert expand_correlators(3) is poly
        with pytest.raises(TypeError):
            poly.coeffs[(0, 0, 0)] = Fraction(1)
        assert poly.coefficient((0, 0, 0)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_evaluation_matches_recursion(self, n):
        poly = expand_correlators(n)
        rng = np.random.default_rng(5 + n)
        for _ in range(100):
            values = random_assignment(n, rng)
            assert evaluate_poly(poly, values) == literal_f(values)[0]


class TestBellOperator:
    def test_base_case(self):
        st_ = Settings.from_pairs([((0, 0, 1), (1, 0, 0))])
        b = bell_operator(st_)
        assert np.allclose(b, 2 * pauli_dot([0, 0, 1]))
        assert np.allclose(np.linalg.eigvalsh(b), [-2, 2])

    def test_chsh_optimal_eigenvalue(self):
        z, x = np.array([0, 0, 1.0]), np.array([1.0, 0, 0])
        st_ = Settings.from_pairs([
            (z, x), ((z + x) / np.sqrt(2), (z - x) / np.sqrt(2))])
        lam = np.linalg.eigvalsh(bell_operator(st_))[-1]
        assert lam == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_ghz3_settings_eigenvalue(self):
        lam = np.linalg.eigvalsh(bell_operator(ghz_optimal_settings(3)))[-1]
        assert lam == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hermitian_and_matches_expansion(self, n, rng):
        st_ = Settings(random_unit_vectors(n, rng))
        b = bell_operator(st_)
        assert np.max(np.abs(b - b.conj().T)) <= 1e-12
        assert np.max(np.abs(b - operator_from_correlators(st_))) <= 1e-10

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Settings.from_pairs([((0, 0, 2), (1, 0, 0))])

    @given(st.integers(1, 5), st.integers(0, 2**16),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_non_finite_rejected(self, n, pos, bad, everywhere):
        vecs = np.tile([0.0, 0.0, 1.0], (n, 2, 1))
        if everywhere:
            vecs[:] = bad
        else:
            vecs.reshape(-1)[pos % (6 * n)] = bad
        with pytest.raises(ValueError, match="finite"):
            Settings(vecs)


class TestBellExpectation:
    # n = 13, 14 lie beyond the dense operator's MAX_OPERATOR_QUBITS
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 13, 14])
    def test_ghz_saturates(self, n):
        val = bell_expectation(ghz_pure(n), ghz_optimal_settings(n))
        assert val == pytest.approx(2 ** ((n + 1) / 2), abs=1e-9)

    def test_product_states_lhv_capped(self, rng):
        for n in (2, 3, 4):
            amp = np.array([1.0])
            for _ in range(n):
                q = rng.normal(size=2) + 1j * rng.normal(size=2)
                amp = np.kron(amp, q / np.linalg.norm(q))
            state = PureState(n, amp)
            for _ in range(20):
                st_ = Settings(random_unit_vectors(n, rng))
                assert bell_expectation(state, st_) <= 2 + 1e-9

    def test_alpha_beta_ghz_factor(self):
        # alpha|0..0> + beta|1..1> at the GHZ-optimal settings evaluates to
        # 2*alpha*beta*2^((n+1)/2): only the off-diagonal block contributes
        # in the xy-plane, scaled by 2*alpha*beta relative to GHZ.  (The
        # violation ratio over the LHV bound is therefore
        # 2*alpha*beta*2^((n-1)/2), twice the sometimes-quoted factor.)
        alpha, beta = 0.6, 0.8
        amp = np.zeros(8)
        amp[0], amp[-1] = alpha, beta
        state = PureState(3, amp)
        val = bell_expectation(state, ghz_optimal_settings(3))
        assert val == pytest.approx(2 * alpha * beta * 4.0, abs=1e-9)

    def test_cirelson_cap_on_random_inputs(self, rng):
        for n in (2, 3, 4):
            cap = 2 ** ((n + 1) / 2) + 1e-8
            for _ in range(25):
                psi = random_pure(n, rng)
                st_ = Settings(random_unit_vectors(n, rng))
                assert bell_expectation(psi, st_) <= cap

    @given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tensor_contraction_matches_dense(self, n, mixed, seed):
        rng = np.random.default_rng(seed)
        state = random_density(n, rng) if mixed else random_pure(n, rng)
        vectors = random_unit_vectors(n, rng)
        value = bell_expectation(state, Settings(vectors))
        via_tensor = bellop._fold(vectors).real @ bellop._correlation_tensor(state)
        assert via_tensor == pytest.approx(value, abs=1e-10)
        b = kron_chain_operator(vectors)
        if mixed:
            dense = complex(np.trace(state.mat @ b))
        else:
            dense = complex(np.vdot(state.amp, b @ state.amp))
        assert abs(dense.imag) <= 1e-10
        assert dense.real == pytest.approx(value, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bell_expectation(ghz_pure(2), ghz_optimal_settings(3))


def two_chain_weights(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the Pauli weights (W_n, W_n') by the paper's two-chain
    recursion over 3-vectors, W_n = W_{n-1} (x) (a_n + a_n')/2
    + W_{n-1}' (x) (a_n - a_n')/2 and W_n' = W_{n-1}' (x) (a_n + a_n')/2
    - W_{n-1} (x) (a_n - a_n')/2, from (2 a_1, 2 a_1')."""
    w, wp = 2 * vectors[0, 0], 2 * vectors[0, 1]
    for a, ap in vectors[1:]:
        p, m = (a + ap) / 2, (a - ap) / 2
        w, wp = np.kron(w, p) + np.kron(wp, m), np.kron(wp, p) - np.kron(w, m)
    return w, wp


class TestRankOneForm:
    """G = F_n + i F_n' = z_1 (x) ... (x) z_n with z_1 = 2 (a_1 + i a_1') and
    z_j = ((1-i) a_j + (1+i) a_j')/2, and B_n = (G + G^dagger)/2 over the
    factors z_j.sigma, for arbitrary 3-vectors."""

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weights_are_real_part_of_product(self, n, seed):
        vectors = np.random.default_rng(seed).normal(size=(n, 2, 3))
        g = bellop._fold(vectors)
        for got, want in zip((g.real, g.imag), two_chain_weights(vectors)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_operator_is_hermitian_part_of_product(self, n, seed):
        vectors = np.random.default_rng(seed).normal(size=(n, 2, 3))
        z = [2 * (vectors[0, 0] + 1j * vectors[0, 1])]
        z += [((1 - 1j) * a + (1 + 1j) * ap) / 2 for a, ap in vectors[1:]]
        g = reduce(np.kron, [zj[0] * PAULI_X + zj[1] * PAULI_Y + zj[2] * PAULI_Z for zj in z])
        got = bellop._kron(bellop._pauli_factors(vectors))
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(got - g)) <= 1e-13 * scale


def block_product_state(n: int, m: int, rng: np.random.Generator) -> PureState:
    """A random (n-m)-qubit block (x) m random single-qubit states."""
    parts = [rng.normal(size=2 ** (n - m)) + 1j * rng.normal(size=2 ** (n - m))]
    parts += [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(m)]
    return PureState(n, reduce(np.kron, [p / np.linalg.norm(p) for p in parts]))


class TestPaperBounds:
    """The bounds the depth certificates rest on, as properties over n and
    the seed."""

    @given(st.integers(2, 8), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_m_independent_qubits_cap_the_violation(self, n, data, seed):
        m = data.draw(st.integers(1, n - 1), label="m")
        rng = np.random.default_rng(seed)
        state = block_product_state(n, m, rng)
        corr = bellop._correlation_tensor(state)
        cap = 2 ** ((n - m + 1) / 2) + bellop.BOUND_SLACK
        vectors = random_unit_vectors(n, rng)
        assert bellop._fold(vectors).real @ corr <= cap
        for _ in range(4):    # sweeps push the settings toward this state's maximum
            vectors, value = optimize._coordinate_sweep(corr, vectors)
            assert value <= cap

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_operator_square_below_cap(self, n, seed):
        res = bound_check(Settings(random_unit_vectors(n, np.random.default_rng(seed))))
        assert res.bound == 2.0 ** (n + 1)
        assert res.passed and res.lambda_max_sq <= res.bound + bellop.BOUND_SLACK


class TestBoundCheck:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_settings_pass(self, n, rng):
        for _ in range(50):
            res = bound_check(Settings(random_unit_vectors(n, rng)))
            assert res.passed
            assert res.lambda_max_sq <= 2 ** (n + 1) + 1e-8

    def test_collinear_pair_degenerates(self, rng):
        # a = a' on the last qubit kills the primed branch, so the square
        # caps at 2^n instead of 2^(n+1).
        n = 3
        v = random_unit_vectors(n, rng)
        v[-1, 1] = v[-1, 0]
        res = bound_check(Settings(v))
        assert res.passed
        assert res.lambda_max_sq <= 2**n + 1e-8


class TestClosedFormSpectrum:
    """bellop._spectrum: in each qubit's frame G flips every bit, so B_n
    splits into 2x2 blocks on span{|s>, |~s>} with eigenvalues +-|h_s|/2."""

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_eigenvalues(self, n, seed, data):
        vectors = random_unit_vectors(n, np.random.default_rng(seed))
        # 0 keeps the pair generic, +1 / -1 forces a_j' = +-a_j
        forced = data.draw(st.lists(st.sampled_from([0, 1, -1]), min_size=n, max_size=n),
                           label="forced")
        for j, sign in enumerate(forced):
            if sign:
                vectors[j, 1] = sign * vectors[j, 0]
        dense = np.linalg.eigvalsh(kron_chain_operator(vectors))
        assert np.max(np.abs(np.sort(bellop._spectrum(vectors)) - dense)) <= 1e-12
        res = bound_check(Settings(vectors))
        assert res.lambda_max_sq == pytest.approx(float(np.max(dense**2)), abs=1e-11)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_top_eigenpair_matches_dense(self, n, seed, data):
        vectors = random_unit_vectors(n, np.random.default_rng(seed))
        # 0 keeps the pair generic, +1 / -1 forces a_j' = +-a_j, and "tilt"
        # turns a_j' to about 1e-9 from a_j, where a_j x a_j' loses its digits
        forced = data.draw(st.lists(st.sampled_from([0, 1, -1, "tilt"]), min_size=n,
                                    max_size=n), label="forced")
        for j, force in enumerate(forced):
            if force == "tilt":
                tilted = vectors[j, 0] + 1e-9 * vectors[j, 1]
                vectors[j, 1] = tilted / np.linalg.norm(tilted)
            elif force:
                vectors[j, 1] = force * vectors[j, 0]
        b = kron_chain_operator(vectors)
        top, vec = bellop._top_eigenpair(vectors)
        assert abs(top - np.linalg.eigvalsh(b)[-1]) <= 1e-12
        assert np.linalg.norm(b @ vec - top * vec) <= 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_beyond_dense_operator_cap(self):
        # bound_check builds no dense operator, so it follows the state limit
        n = MAX_QUBITS
        assert n > bellop.MAX_OPERATOR_QUBITS
        res = bound_check(ghz_optimal_settings(n))
        assert res.passed
        assert res.lambda_max_sq == pytest.approx(2.0 ** (n + 1), rel=1e-12)
        with pytest.raises(ValueError, match=f"bound_check supports n <= {MAX_QUBITS}"):
            bound_check(ghz_optimal_settings(n + 1))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ghz_settings_diagonal_in_bell_basis(self, n):
        # bell_basis lists (|b> + |~b>, |b> - |~b>) consecutively, so the
        # 2x2 pair blocks are the index pairs (2i, 2i + 1)
        st_ = ghz_optimal_settings(n)
        basis = np.array([s.to_pure().amp for s in bell_basis(n)]).T
        b = basis.conj().T @ bell_operator(st_) @ basis
        block = np.arange(2**n) // 2
        assert np.max(np.abs(b[block[:, None] != block[None, :]])) == 0.0
        spec = np.sort(bellop._spectrum(st_.vectors))
        top = 2.0 ** ((n + 1) / 2)
        assert spec[-1] == pytest.approx(top, abs=1e-12)
        assert spec[0] == pytest.approx(-top, abs=1e-12)
        assert np.max(np.abs(spec[1:-1])) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_top_eigenpair_at_ghz_settings(self, n):
        # all pairs lie in the xy-plane, so each frame's e3 is exactly +z or,
        # for n = 3 (mod 4), -z; the top eigenvector is the GHZ state
        top, vec = bellop._top_eigenpair(ghz_optimal_settings(n).vectors)
        assert top == pytest.approx(2.0 ** ((n + 1) / 2), abs=1e-12)
        assert abs(np.vdot(ghz_pure(n).amp, vec)) == pytest.approx(1.0, abs=1e-12)


def two_sign_ghz_settings(n: int) -> Settings:
    """Reference: build the settings for both perpendicular signs, evaluate
    each on the GHZ state and keep the better one (a tie keeps +1).  <B_n> is
    taken as W_n . T, which equals bell_expectation without a dense
    2^n x 2^n operator at n = 11, 12."""
    corr = bellop._correlation_tensor(ghz_pure(n))

    def xy(phi):
        return np.array([np.cos(phi), np.sin(phi), 0.0])

    best, best_val = None, -np.inf
    for sign in (1, -1):
        vecs = []
        for j in range(1, n + 1):
            phi = (j - 1) * ((-1) ** (n + 1)) * np.pi / (2 * n)
            vecs.append((xy(phi), xy(phi + sign * np.pi / 2)))
        st_ = Settings.from_pairs(vecs)
        val = float(bellop._fold(st_.vectors).real @ corr)
        if val > best_val:
            best, best_val = st_, val
    assert best_val == pytest.approx(2 ** ((n + 1) / 2), abs=1e-9)
    return best


class TestGhzOptimalSettings:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_sign_matches_two_sign_evaluation(self, n):
        assert np.array_equal(ghz_optimal_settings(n).vectors,
                              two_sign_ghz_settings(n).vectors)

    def test_beyond_dense_operator_cap(self):
        st_ = ghz_optimal_settings(bellop.MAX_OPERATOR_QUBITS + 4)
        assert st_.n == bellop.MAX_OPERATOR_QUBITS + 4

    def test_n2_angles(self):
        st_ = ghz_optimal_settings(2)
        assert np.allclose(st_.vectors[0, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(st_.vectors[1, 0],
                           [np.cos(np.pi / 4), -np.sin(np.pi / 4), 0], atol=1e-12)

    def test_n3_angles(self):
        st_ = ghz_optimal_settings(3)
        for j, angle in enumerate([0, np.pi / 6, np.pi / 3]):
            assert np.allclose(st_.vectors[j, 0],
                               [np.cos(angle), np.sin(angle), 0], atol=1e-12)

    def test_perpendicular_pairs(self):
        st_ = ghz_optimal_settings(5)
        for a, ap in st_.vectors:
            assert abs(np.dot(a, ap)) <= 1e-12

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ghz_optimal_settings(1)


class TestSettingsIO:
    def test_json_round_trip(self, tmp_path, rng):
        st_ = Settings(random_unit_vectors(4, rng))
        path = tmp_path / "settings.json"
        st_.save(path)
        loaded = Settings.load(path)
        assert np.allclose(loaded.vectors, st_.vectors, atol=1e-15)
