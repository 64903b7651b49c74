"""JSON round trips of every saved object, as properties: a dump and load
reproduces every value bit for bit, and a NaN or infinity in any numeric
field of a loaded object is rejected with ValueError."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import qstate
from bellkit.bellop import Settings
from bellkit.optimize import RESTART_STATUSES, OptResult
from bellkit.symstate import RationalComplex, SymState, sym_from_json, sym_to_json

from conftest import random_density, random_pure, random_unit_vectors

SEEDS = st.integers(0, 2**32 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
BAD = st.sampled_from([np.nan, np.inf, -np.inf])


def via_text(obj):
    """obj written as JSON text and read back, as a file would be."""
    return json.loads(json.dumps(obj))


def same_bits(a, b) -> bool:
    """Equal structure, with every float equal bit for bit (so -0.0 differs
    from 0.0)."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, float) and isinstance(b, float)
                and np.float64(a).tobytes() == np.float64(b).tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_bits(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same_bits(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def same_array_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def numeric_paths(obj, path=()):
    """Paths to every int or float leaf of a JSON object (bools excluded)."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in numeric_paths(v, path + (k,))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in numeric_paths(v, path + (i,))]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [path]
    return []


def corrupted(obj, data, paths=None):
    """obj with one numeric field, drawn from ``paths`` (default: all),
    replaced by NaN or an infinity, then written and read back."""
    obj = via_text(obj)
    paths = numeric_paths(obj) if paths is None else paths
    path = data.draw(st.sampled_from(paths), label="field")
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(BAD, label="value")
    return via_text(obj)


def numeric_sym(n: int, rng: np.random.Generator, label: str = "z") -> SymState:
    return SymState(n, list(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)), label)


fractions = st.fractions(max_denominator=1000).filter(lambda f: abs(f) < 10**6)
exact_syms = st.integers(1, 6).flatmap(lambda n: st.builds(
    SymState, st.just(n),
    st.lists(st.builds(RationalComplex, fractions, fractions), min_size=n + 1, max_size=n + 1),
    st.sampled_from(["z", "x", "y"])))
numeric_syms = st.builds(
    lambda n, seed, label: numeric_sym(n, np.random.default_rng(seed), label),
    st.integers(1, 6), SEEDS, st.sampled_from(["z", "x", "y"]))


def states(mixed: bool, n: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_density(n, rng) if mixed else random_pure(n, rng)


@st.composite
def opt_results(draw) -> OptResult:
    """OptResults as each optimizer makes them: settings only, settings with
    a pure state, or a symmetric state without settings."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(["settings", "pure", "sym"]))
    traces = draw(st.lists(st.lists(FINITE, min_size=1, max_size=5), min_size=1, max_size=4))
    st_ = None if kind == "sym" else Settings(random_unit_vectors(n, rng))
    state = {"settings": None, "pure": random_pure(n, rng), "sym": numeric_sym(n, rng)}[kind]
    statuses = tuple(draw(st.sampled_from(RESTART_STATUSES)) for _ in traces)
    return OptResult(draw(FINITE), st_, state, len(traces), tuple(map(tuple, traces)),
                     draw(st.booleans()), draw(st.sampled_from(["max", "min"])), statuses)


class TestRoundTripIsBitExact:
    @given(st.integers(1, 6), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_settings(self, n, seed):
        st_ = Settings(random_unit_vectors(n, np.random.default_rng(seed)))
        assert same_array_bits(Settings.from_json(via_text(st_.to_json())).vectors, st_.vectors)

    @given(st.booleans(), st.integers(1, 4), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_states(self, mixed, n, seed):
        state = states(mixed, n, seed)
        loaded = qstate.state_from_json(via_text(qstate.state_to_json(state)))
        assert type(loaded) is type(state) and loaded.n == n
        field = "mat" if mixed else "amp"
        assert same_array_bits(getattr(loaded, field), getattr(state, field))

    @given(exact_syms)
    @settings(max_examples=40, deadline=None)
    def test_exact_sym_state(self, sym):
        loaded = sym_from_json(via_text(sym_to_json(sym)))
        assert loaded.exact and loaded == sym
        assert all(type(c.re) is Fraction for c in loaded.coeff)

    @given(numeric_syms)
    @settings(max_examples=40, deadline=None)
    def test_numeric_sym_state(self, sym):
        loaded = sym_from_json(via_text(sym_to_json(sym)))
        assert not loaded.exact and (loaded.n, loaded.basis_label) == (sym.n, sym.basis_label)
        assert same_array_bits(loaded.as_complex(), sym.as_complex())

    @given(opt_results())
    @settings(max_examples=40, deadline=None)
    def test_opt_result(self, res):
        obj = res.to_json()
        loaded = via_text(obj)
        assert same_bits(loaded, obj)
        assert same_bits(loaded["traces"], res.traces)
        assert same_bits(loaded["best_value"], res.best_value)
        if res.best_settings is not None:
            assert same_array_bits(Settings.from_json(loaded["settings"]).vectors,
                                   res.best_settings.vectors)
        if isinstance(res.best_state, SymState):
            assert same_array_bits(sym_from_json(loaded["sym_state"]).as_complex(),
                                   res.best_state.as_complex())
        elif res.best_state is not None:
            amp = np.array([complex(re, im) for re, im in loaded["state"]])
            assert same_array_bits(qstate.PureState(res.best_state.n, amp).amp,
                                   res.best_state.amp)


class TestNonFiniteFieldRejected:
    @given(st.integers(1, 6), SEEDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_settings(self, n, seed, data):
        st_ = Settings(random_unit_vectors(n, np.random.default_rng(seed)))
        with pytest.raises(ValueError):
            Settings.from_json(corrupted(st_.to_json(), data))

    @given(st.booleans(), st.integers(1, 3), SEEDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_states(self, mixed, n, seed, data):
        obj = qstate.state_to_json(states(mixed, n, seed))
        with pytest.raises(ValueError):
            qstate.state_from_json(corrupted(obj, data))

    @given(st.one_of(exact_syms, numeric_syms), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sym_state(self, sym, data):
        with pytest.raises(ValueError):
            sym_from_json(corrupted(sym_to_json(sym), data))

    @given(opt_results(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_opt_result_parts(self, res, data):
        # an OptResult file is read back through the loaders of its parts
        obj = res.to_json()
        part = "settings" if "settings" in obj else "sym_state"
        loader = {"settings": Settings.from_json, "sym_state": sym_from_json}[part]
        paths = [p for p in numeric_paths(obj) if p[0] == part]
        with pytest.raises(ValueError):
            loader(corrupted(obj, data, paths)[part])
