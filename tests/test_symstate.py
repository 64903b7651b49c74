from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import symstate
from bellkit.qstate import MAX_QUBITS
from bellkit.symstate import (RationalComplex, SymState,
                              bell_basis, embed, embed_vector, ghz,
                              ghz_y_form, inner, parse_rational_complex,
                              split, sym_from_json, sym_to_json, z_to_x)

from conftest import ghz_pure


def basis_state(n: int, j: int, label: str = "z") -> SymState:
    return SymState(n, [1 if i == j else 0 for i in range(n + 1)], basis_label=label)


class TestRationalComplex:
    def test_arithmetic(self):
        a = RationalComplex(Fraction(1, 2), Fraction(1))
        b = RationalComplex(Fraction(2), Fraction(-1, 3))
        assert (a + b).re == Fraction(5, 2)
        assert (a * b).im == Fraction(11, 6)
        assert (a * a.conjugate()).re == a.abs2()
        assert complex(a) == 0.5 + 1j

    PARSED = {"1": (1, 0), "-3": (-3, 0), "1/2": (Fraction(1, 2), 0), "i": (0, 1),
              "-i": (0, -1), "2i": (0, 2), "-2/3i": (0, Fraction(-2, 3)), "1+2i": (1, 2),
              "1/2-3/4i": (Fraction(1, 2), Fraction(-3, 4)), "0": (0, 0)}

    @pytest.mark.parametrize("text", list(PARSED))
    def test_parse_format_round_trip(self, text):
        # a numeral right before i belongs to the imaginary part: "2i" is 2i, not 2 + i
        value = parse_rational_complex(text)
        assert value == RationalComplex(*map(Fraction, self.PARSED[text]))
        assert str(value) == text
        assert parse_rational_complex(str(value)) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational_complex("one plus i")

    @pytest.mark.parametrize("text", ["1/0", "-2/00i", "1/2+3/0i"])
    def test_parse_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_rational_complex(text)

    def test_parse_keeps_denominators_with_zeros(self):
        assert parse_rational_complex("1/10") == parse_rational_complex("01/010")


class TestInner:
    def test_w_state_norm(self):
        assert inner(1, 1, 3) == 3

    def test_vacuum(self):
        for n in (1, 4, 9):
            assert inner(0, 0, n) == 1

    def test_orthogonality(self):
        assert inner(1, 2, 5) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            inner(4, 1, 3)


class TestGhz:
    def test_coefficients(self):
        assert [str(c) for c in ghz(3, 1).coeff] == ["1", "0", "0", "1"]
        assert [str(c) for c in ghz(5, 1).coeff] == ["1", "0", "0", "0", "0", "1"]

    def test_minus_embed(self):
        psi = embed(ghz(2, -1))
        assert np.allclose(psi.amp, ghz_pure(2, -1).amp)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            ghz(3, 2)


class TestEmbed:
    def test_ghz2(self):
        psi = embed(ghz(2, 1))
        assert np.allclose(psi.amp, ghz_pure(2).amp)

    def test_w3(self):
        psi = embed(basis_state(3, 1))
        expected = np.zeros(8)
        expected[0b100] = expected[0b010] = expected[0b001] = 1 / np.sqrt(3)
        assert np.allclose(psi.amp, expected)

    def test_psi_6_plus3_norm(self):
        state = SymState(6, [np.sqrt(2), 0, 0, 0.5j, 0, 0, np.sqrt(2)])
        raw = embed_vector(state)
        assert raw.shape == (64,)
        assert np.sum(np.abs(raw) ** 2) == pytest.approx(9.0, abs=1e-12)

    def test_exact_norm_matches_float(self):
        # sum_j |c_j|^2 C(n, j), exact: 1 + 1/4 C(6, 3) + 1 = 7
        state = SymState(6, [1, 0, 0, "1/2i", 0, 0, 1])
        raw = embed_vector(state)
        assert np.sum(np.abs(raw) ** 2) == pytest.approx(7.0, abs=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            embed(SymState(2, [0, 0, 0]))

    def test_tiny_state_embeds(self):
        # the zero-state rule is PureState's, which rescales a tiny vector
        psi = embed(SymState(2, [1e-200, 0, 0]))
        assert np.array_equal(psi.amp, [1, 0, 0, 0])

    @given(st.integers(1, 8), st.integers(0, 2**16),
           st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)]),
           st.sampled_from([0.5, 1, "1/2"]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_coefficient_rejected(self, n, pos, bad, other):
        coeff = [other] * (n + 1)
        coeff[pos % (n + 1)] = bad
        with pytest.raises(ValueError, match="finite"):
            SymState(n, coeff)


class TestQubitCount:
    @pytest.mark.parametrize("bad,coeff", [(2.5, [1, 0, 0]), (2.0, [1, 0, 0]),
                                           (True, [1, 0]), (np.float64(1.0), [1, 0])])
    def test_non_integer_rejected(self, bad, coeff):
        with pytest.raises(ValueError, match="integer"):
            SymState(bad, coeff)

    @pytest.mark.parametrize("n", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_accepted(self, n):
        assert type(SymState(n, [1, 0, 1]).n) is int

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="qubit count"):
            SymState(0, [1])


class TestSplit:
    def test_vacuum_single_term(self):
        assert split(0, 5, 2) == [(0, 1)]

    def test_w3_split(self):
        terms = split(1, 3, 1)
        assert terms == [(0, 1), (1, 1)]
        lhs = embed_vector(basis_state(3, 1))
        rhs = np.zeros(8, dtype=complex)
        for k, coeff in terms:
            rhs += coeff * np.kron(embed_vector(basis_state(1, k)),
                                   embed_vector(basis_state(2, 1 - k)))
        assert np.array_equal(lhs, rhs)

    def test_2_4_2_terms(self):
        assert split(2, 4, 2) == [(0, 1), (1, 1), (2, 1)]

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_exact_recombination(self, n):
        for m in range(1, n):
            for j in range(n + 1):
                lhs = embed_vector(basis_state(n, j))
                rhs = np.zeros(2**n, dtype=complex)
                for k, coeff in split(j, n, m):
                    rhs += coeff * np.kron(embed_vector(basis_state(m, k)),
                                           embed_vector(basis_state(n - m, j - k)))
                assert np.array_equal(lhs, rhs)

    def test_m_range_error(self):
        with pytest.raises(ValueError):
            split(1, 3, 3)


class TestZToX:
    def test_single_qubit_convention(self):
        xs, scale = z_to_x(basis_state(1, 0))
        assert scale == Fraction(1, 2)
        assert [str(c) for c in xs.coeff] == ["1", "1"]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_ghz_plus_even_labels(self, n):
        xs, scale = z_to_x(ghz(n, 1))
        for ell, c in enumerate(xs.coeff):
            if ell % 2 == 1:
                assert c.is_zero
            else:
                assert c == RationalComplex(Fraction(2))
        lhs = embed_vector(ghz(n, 1))
        rhs = float(scale) * embed_vector(xs)
        assert np.allclose(lhs, rhs, atol=0, rtol=0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ghz_minus_odd_labels(self, n):
        xs, _ = z_to_x(ghz(n, -1))
        for ell, c in enumerate(xs.coeff):
            if ell % 2 == 0:
                assert c.is_zero

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_exact_embedding_and_common_scale(self, n):
        scales = set()
        for j in range(n + 1):
            state = basis_state(n, j)
            xs, scale = z_to_x(state)
            scales.add(scale)
            assert np.array_equal(embed_vector(state),
                                  float(scale) * embed_vector(xs))
        assert scales == {Fraction(1, 2**n)}

    def test_requires_z_basis(self):
        xs, _ = z_to_x(ghz(2, 1))
        with pytest.raises(ValueError):
            z_to_x(xs)


def z_to_x_double_sum(state: SymState) -> SymState:
    """Reference: the x-label coefficients sum_j c_j beta[j][l] as z_to_x
    summed them on its own, with an exact and a numeric branch."""
    beta = symstate.z_to_x_matrix(state.n)
    coeffs = []
    for ell in range(state.n + 1):
        if state.exact:
            total = symstate.RC_ZERO
            for j, c in enumerate(state.coeff):
                if beta[j][ell]:
                    total = total + c.scale(Fraction(beta[j][ell]))
        else:
            total = sum(c * beta[j][ell] for j, c in enumerate(state.coeff))
        coeffs.append(total)
    return SymState(state.n, coeffs, basis_label="x")


def _coefficient_bits(state: SymState) -> list:
    if state.exact:
        return [(c.re, c.im) for c in state.coeff]
    return [(c.real.hex(), c.imag.hex()) for c in state.coeff]


gaussian_rationals = st.builds(RationalComplex,
                               st.fractions(min_value=-50, max_value=50, max_denominator=12)
                               .filter(lambda f: abs(f) < 50),
                               st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=12)))
numeric_coefficients = st.one_of(st.just(0j), st.integers(-5, 5).map(complex),
                                 st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                                    allow_infinity=False))


class TestZToXMatchesDoubleSum:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.one_of(gaussian_rationals, st.integers(-4, 4)),
                           min_size=n + 1, max_size=n + 1)))
    def test_exact_coefficients(self, values):
        state = SymState(len(values) - 1, values)
        xs, scale = z_to_x(state)
        ref = z_to_x_double_sum(state)
        assert xs.exact and scale == Fraction(1, 2**state.n)
        assert _coefficient_bits(xs) == _coefficient_bits(ref)
        assert sym_to_json(xs) == sym_to_json(ref)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(numeric_coefficients, min_size=n + 1, max_size=n + 1)))
    def test_numeric_coefficients(self, values):
        state = SymState(len(values) - 1, values)
        xs, _ = z_to_x(state)
        ref = z_to_x_double_sum(state)
        assert not xs.exact
        assert _coefficient_bits(xs) == _coefficient_bits(ref)
        assert sym_to_json(xs) == sym_to_json(ref)


class TestGhzYForm:
    def test_n2_plus(self):
        state = ghz_y_form(2, 1)
        assert [str(c) for c in state.coeff] == ["0", "2i", "0"]

    def test_n1_plus(self):
        state = ghz_y_form(1, 1)
        assert [str(c) for c in state.coeff] == ["1+i", "1+i"]

    def test_n4_minus_middle_vanishes(self):
        state = ghz_y_form(4, -1)
        assert state.coeff[2].is_zero

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_embedding_proportional(self, n, sign):
        vy = embed_vector(ghz_y_form(n, sign))
        vg = embed_vector(ghz(n, sign))
        idx = int(np.argmax(np.abs(vg)))
        ratio = vy[idx] / vg[idx]
        assert np.allclose(vy, ratio * vg, atol=1e-12)
        assert abs(ratio) == pytest.approx(2.0**n, abs=1e-9)


class TestBellBasis:
    def test_n2_is_bell_states(self):
        vecs = {tuple(np.round(s.to_pure().amp.real, 9)) for s in bell_basis(2)}
        s = round(1 / np.sqrt(2), 9)
        expected = {
            (s, 0, 0, s), (s, 0, 0, -s), (0, s, s, 0), (0, s, -s, 0),
        }
        assert vecs == expected

    def test_n3_contains_flipped_pair(self):
        members = {("".join(map(str, s.bits)), s.sign) for s in bell_basis(3)}
        assert ("011", 1) in members and ("011", -1) in members
        assert len(members) == 8

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_gram_identity(self, n):
        vecs = np.array([s.to_pure().amp for s in bell_basis(n)])
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(2**n))) <= 1e-12

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            bell_basis(1)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            bell_basis(n)

    def test_too_many_qubits_rejected_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a basis state was built before n was checked")
        monkeypatch.setattr(symstate, "BellBasisState", refuse)
        with pytest.raises(ValueError, match="qubit count"):
            bell_basis(MAX_QUBITS + 1)


class TestJson:
    def test_exact_round_trip(self):
        state = SymState(3, [1, "1/2-3/4i", 0, -2])
        again = sym_from_json(sym_to_json(state))
        assert again.coeff == state.coeff
        assert again.exact

    def test_numeric_round_trip(self):
        state = SymState(2, [1.0, 0.5j, np.sqrt(2)])
        again = sym_from_json(sym_to_json(state))
        assert not again.exact
        assert np.allclose(again.as_complex(), state.as_complex())

    def test_non_integer_n_rejected(self):
        obj = sym_to_json(ghz(2))
        obj["n"] = 2.7
        with pytest.raises(ValueError, match="integer"):
            sym_from_json(obj)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sym.json"
        symstate.save_sym(path, ghz(4, -1))
        loaded = symstate.load_sym(path)
        assert loaded.coeff == ghz(4, -1).coeff

    def test_file_round_trip_pure_imaginary(self, tmp_path):
        path = tmp_path / "sym.json"
        state = SymState(3, [1, 0, RationalComplex(Fraction(0), Fraction(-2, 3)),
                             RationalComplex(Fraction(0), Fraction(2))])
        symstate.save_sym(path, state)
        loaded = symstate.load_sym(path)
        assert loaded.exact
        assert loaded.coeff == state.coeff
