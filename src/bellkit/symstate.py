"""Exact algebra of permutation-symmetric n-qubit states.

States are written over the unnormalized symmetric kets |j,n> (the sum of
all computational basis states with exactly j ones), so <j,n|k,n> =
delta_jk * C(n,j).  Coefficients are exact Gaussian rationals whenever the
inputs allow it; complex floats are accepted for numeric work (e.g. states
with sqrt(2) or sqrt(3) coefficients, or optimization iterates).  Embedding
into a dense floating-point state happens only at the boundary.

Single-qubit basis label conventions (unnormalized kets):

    z:  |0>,  |1>                      (computational)
    x:  |0>_x = |0> + |1>,   |1>_x = |0> - |1>
    y:  |0>_y = |0> + i|1>,  |1>_y = i|0> + |1>

With these labels the x-basis expansion of the + GHZ state contains even
labels only (and odd labels only for the - state), for every n.  Note that
label 0 is the +1 eigenvector of the corresponding Pauli operator, so label
1 corresponds to measurement outcome -1.

The basis-change coefficients |j,n>_z -> |l,n>_x follow a double-binomial
(Krawtchouk) sum; its summation index runs over every value with nonzero
binomial factors (fixed upper limits would drop contributing terms).  The
transform is exact up to one global power of two, which is returned
explicitly rather than folded into the coefficients.
"""

from __future__ import annotations

import json
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

import numpy as np

from .qstate import MAX_QUBITS, PureState, hamming_weights, require_finite

NORM_MATCH_ATOL = 1e-12  # float embedding norm vs exact rational norm


@dataclass(frozen=True)
class RationalComplex:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def scale(self, factor: Fraction) -> "RationalComplex":
        f = Fraction(factor)
        return RationalComplex(self.re * f, self.im * f)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im_mag = abs(self.im)
        im_txt = "i" if im_mag == 1 else f"{im_mag}i"
        sign = "+" if self.im > 0 else "-"
        if self.re == 0:
            return f"{sign}{im_txt}".lstrip("+")
        return f"{self.re}{sign}{im_txt}"


RC_ZERO = RationalComplex(Fraction(0))
RC_ONE = RationalComplex(Fraction(1))
RC_I = RationalComplex(Fraction(0), Fraction(1))
_I_POWERS = (RC_ONE, RC_I, -RC_ONE, -RC_I)


def i_power(k: int) -> RationalComplex:
    """Exact i**k."""
    return _I_POWERS[k % 4]


_RATIONAL = r"\d+(?:/\d+)?"


def parse_rational_complex(text: str) -> RationalComplex:
    """Parse strings like '1', '-1/2', 'i', '-2/3i', '1/2-3/4i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient string")
    m = _re.fullmatch(
        rf"(?P<re>[+-]?{_RATIONAL})?(?P<im>[+-]?(?:{_RATIONAL})?i)?", s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse coefficient {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_txt = m.group("im")
    if im_txt is None:
        im_part = Fraction(0)
    else:
        body = im_txt[:-1]
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return RationalComplex(re_part, im_part)


Coefficient = Union[RationalComplex, complex]


def _coerce_coeffs(values: Iterable) -> tuple[Coefficient, ...]:
    """Exact entries (int/Fraction/RationalComplex/str) stay exact; any float
    or complex entry switches the whole tuple to complex."""
    values = list(values)
    exact: list[RationalComplex] = []
    for v in values:
        if isinstance(v, RationalComplex):
            exact.append(v)
        elif isinstance(v, (int, Fraction)):
            exact.append(RationalComplex(Fraction(v)))
        elif isinstance(v, str):
            exact.append(parse_rational_complex(v))
        else:
            floats = tuple(complex(parse_rational_complex(x)) if isinstance(x, str)
                           else complex(x) for x in values)
            require_finite(floats, "coefficients")
            return floats
    return tuple(exact)


@dataclass(frozen=True)
class SymState:
    """Symmetric state sum_j coeff[j] |j,n> in the z, x or y labeled basis."""

    n: int
    coeff: tuple
    basis_label: str = "z"

    def __post_init__(self):
        n = int(self.n)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        if self.basis_label not in ("z", "x", "y"):
            raise ValueError(f"unknown basis label {self.basis_label!r}")
        coeff = _coerce_coeffs(self.coeff)
        if len(coeff) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients, got {len(coeff)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeff", coeff)

    @property
    def exact(self) -> bool:
        return all(isinstance(c, RationalComplex) for c in self.coeff)

    def as_complex(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coeff])

    def norm_sq_exact(self) -> Fraction:
        """Squared norm sum_j |c_j|^2 <j,n|j,n> in exact arithmetic.

        In the x and y labelings each single-qubit ket has squared norm 2,
        so the symmetric kets pick up an extra factor 2^n.
        """
        if not self.exact:
            raise TypeError("exact norm requires exact coefficients")
        total = sum((c.abs2() * comb(self.n, j) for j, c in enumerate(self.coeff)),
                    Fraction(0))
        if self.basis_label in ("x", "y"):
            total *= 2**self.n
        return total


def inner(j: int, k: int, n: int) -> int:
    """<j,n|k,n> = delta_jk * C(n,j), exactly."""
    for idx in (j, k):
        if not 0 <= idx <= n:
            raise ValueError(f"index {idx} out of range for n={n}")
    return comb(n, j) if j == k else 0


def ghz(n: int, sign: int = 1) -> SymState:
    """|0,n> + sign |n,n> (unnormalized)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeff = [0] * (n + 1)
    coeff[0], coeff[n] = 1, sign
    return SymState(n, coeff)


def _amp_by_weight(state: SymState) -> list:
    """Amplitude of any weight-w computational string, for w = 0..n.

    For x and y labels, the single-qubit expansions above give the amplitude
    of |l,n>_x at a weight-w string as sum_s (-1)^s C(w,s) C(n-w, l-s), and
    of |l,n>_y as sum_s i^(l+w-2s) C(w,s) C(n-w, l-s).
    """
    n = state.n
    if state.basis_label == "z":
        return list(state.coeff)
    exact = state.exact
    out = []
    for w in range(n + 1):
        total: Coefficient = RC_ZERO if exact else 0j
        for ell, c in enumerate(state.coeff):
            if (c.is_zero if exact else c == 0):
                continue
            term: Coefficient = RC_ZERO if exact else 0j
            for s in range(max(0, ell - (n - w)), min(w, ell) + 1):
                mult = comb(w, s) * comb(n - w, ell - s)
                if mult == 0:
                    continue
                if state.basis_label == "x":
                    factor = RationalComplex(Fraction((-1) ** s * mult))
                else:
                    factor = i_power(ell + w - 2 * s).scale(Fraction(mult))
                term = term + (factor if exact else complex(factor))
            total = total + c * term
        out.append(total)
    return out


def embed_vector(state: SymState) -> np.ndarray:
    """Raw (unnormalized) 2^n complex amplitude vector of the state."""
    values = _amp_by_weight(state)
    table = np.array([complex(v) for v in values])
    return table[hamming_weights(state.n)]


def embed(state: SymState) -> PureState:
    """Normalized dense PureState; raises on the zero state."""
    vec = embed_vector(state)
    norm = np.linalg.norm(vec)
    if norm < 1e-150:
        raise ValueError("cannot embed the zero symmetric state")
    return PureState(state.n, vec)


def split(j: int, n: int, m: int) -> list[tuple[int, int]]:
    """Decomposition |j,n> = sum_k |k,m> (x) |j-k, n-m| over the first m and
    remaining n-m qubits.  Returns (k, coefficient) pairs; every surviving
    coefficient is exactly 1."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0 <= j <= n:
        raise ValueError(f"index {j} out of range for n={n}")
    lo = max(0, j - (n - m))
    hi = min(j, m)
    return [(k, 1) for k in range(lo, hi + 1)]


@lru_cache(maxsize=None)
def z_to_x_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients beta[j][l] with
    |j,n>_z = 2^-n * sum_l beta[j][l] |l,n>_x."""
    rows = []
    for j in range(n + 1):
        row = []
        for ell in range(n + 1):
            total = 0
            for s in range(max(0, j - (n - ell)), min(ell, j) + 1):
                total += (-1) ** s * comb(ell, s) * comb(n - ell, j - s)
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def z_to_x(state: SymState) -> tuple[SymState, Fraction]:
    """Rewrite a z-basis symmetric state over the x-labeled kets.

    Returns (x_state, scale) with
        embed_vector(state) == float(scale) * embed_vector(x_state)
    exactly; the scale is always the single global power of two 2^-n.
    """
    if state.basis_label != "z":
        raise ValueError("z_to_x expects a z-basis state")
    beta = z_to_x_matrix(state.n)
    exact = state.exact
    coeffs: list = []
    for ell in range(state.n + 1):
        if exact:
            total = RC_ZERO
            for j, c in enumerate(state.coeff):
                if beta[j][ell]:
                    total = total + c.scale(Fraction(beta[j][ell]))
        else:
            total = sum(c * beta[j][ell] for j, c in enumerate(state.coeff))
        coeffs.append(total)
    return SymState(state.n, coeffs, basis_label="x"), Fraction(1, 2**state.n)


def ghz_y_form(n: int, sign: int = 1) -> SymState:
    """GHZ state over the y-labeled kets: coefficients i^k + sign * i^(n-k).

    Its embedding is proportional to embed_vector(ghz(n, sign)); the global
    scale is sign * (2i)^n, of magnitude 2^n.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs = []
    for k in range(n + 1):
        term = i_power(k) + i_power(n - k).scale(Fraction(sign))
        coeffs.append(term)
    return SymState(n, coeffs, basis_label="y")


@dataclass(frozen=True)
class BellBasisState:
    """(|b> + sign |~b>)/sqrt(2), with ~b the bitwise complement of b."""

    n: int
    bits: tuple[int, ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != self.n or any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be a 0/1 tuple of length n")
        object.__setattr__(self, "bits", bits)

    def to_pure(self) -> PureState:
        idx = int("".join(map(str, self.bits)), 2)
        comp = (2**self.n - 1) ^ idx
        amp = np.zeros(2**self.n, dtype=complex)
        amp[idx] = 1 / np.sqrt(2)
        amp[comp] = self.sign / np.sqrt(2)
        return PureState(self.n, amp)


def bell_basis(n: int) -> list[BellBasisState]:
    """The 2^n orthonormal GHZ-type states (|b> +/- |~b>)/sqrt(2) with the
    first bit of b fixed to 0.  Each is the + GHZ state up to bit flips on a
    subset of qubits (and a sign)."""
    if n < 2:
        raise ValueError("bell_basis needs n >= 2")
    states = []
    for idx in range(2 ** (n - 1)):
        bits = tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
        for sign in (1, -1):
            states.append(BellBasisState(n, bits, sign))
    return states


# --- JSON files --------------------------------------------------------------
#
# {"n": n, "basis": "z", "coeff": ["1", "0", "-1/2+i", ...]}   exact states
# {"n": n, "basis": "z", "coeff": [[re, im], ...]}             numeric states


def sym_to_json(state: SymState) -> dict:
    if state.exact:
        coeff = [str(c) for c in state.coeff]
    else:
        coeff = [[c.real, c.imag] for c in state.coeff]
    return {"n": state.n, "basis": state.basis_label, "coeff": coeff}


def sym_from_json(obj: dict) -> SymState:
    raw = obj["coeff"]
    coeff: list = []
    for entry in raw:
        if isinstance(entry, str):
            coeff.append(parse_rational_complex(entry))
        elif isinstance(entry, (list, tuple)):
            coeff.append(complex(entry[0], entry[1]))
        else:
            coeff.append(entry)
    return SymState(int(obj["n"]), coeff, basis_label=obj.get("basis", "z"))


def save_sym(path, state: SymState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sym_to_json(state), fh)


def load_sym(path) -> SymState:
    with open(path, encoding="utf-8") as fh:
        return sym_from_json(json.load(fh))
