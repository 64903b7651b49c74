import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import certify, criteria, optimize
from bellkit.bellop import Settings, bell_expectation, expand_correlators, ghz_optimal_settings
from bellkit.certify import (certify_depth, estimate_E,
                             example_rho3, rho3_listed_settings, rho3_state,
                             thresholds)
from bellkit.qstate import DensityMatrix, PureState, child_rng, outcome_distribution

from conftest import ghz_pure, kron_state, random_density, random_pure, random_unit_vectors


def per_term_estimate(state, st_, shots, seed):
    """Reference estimator: one outcome_distribution call per correlator term,
    in sorted term order, each term's even-parity count drawn as one scalar
    binomial from a single default_rng(seed) and read through the closed
    forms that test_closed_forms_match_sample_moments checks against the
    shots.  The terms' contributions are summed with np.sum, as estimate_E
    sums them."""
    even = np.array([bin(i).count("1") % 2 == 0 for i in range(2**st_.n)])
    rng = np.random.default_rng(seed)
    parts, var_parts = [], []
    for choice, coeff in sorted(expand_correlators(st_.n).items()):
        bases = np.array([st_.vectors[j, c] for j, c in enumerate(choice)])
        p_even = min(float(outcome_distribution(state, bases)[even].sum()), 1.0)
        k = int(rng.binomial(shots, p_even))
        stderr = float(np.sqrt(4 * k * (shots - k) / (shots - 1))) / shots
        if k in (0, shots):
            p = (shots + 1) / (shots + 2)
            stderr = float(np.sqrt(4 * p * (1 - p) / shots))
        parts.append(float(coeff) * ((2 * k - shots) / shots))
        var_parts.append((float(coeff) * stderr) ** 2)
    return certify.EstimateResult(float(np.sum(parts)), float(np.sqrt(np.sum(var_parts))))


class TestThresholds:
    def test_n3_ladder(self):
        assert np.allclose(thresholds(3), [4.0, 2**1.5, 2.0, 2**0.5], atol=1e-12)

    def test_n2_ladder(self):
        assert np.allclose(thresholds(2), [2**1.5, 2.0, 2**0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_penultimate_is_lhv_bound(self, n):
        assert thresholds(n)[n - 1] == pytest.approx(2.0)

    def test_strictly_decreasing(self):
        for n in (2, 4, 7):
            assert np.all(np.diff(thresholds(n)) < 0)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            thresholds(1)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
    def test_non_integer_n_rejected(self, bad):
        # 2.5 used to return a 4-entry ladder
        with pytest.raises(ValueError, match="n must be an integer"):
            thresholds(bad)


class TestCertifyDepth:
    def test_two_entangled(self):
        res = certify_depth(2.5, 3)
        assert res.max_consistent_independent == 1
        assert res.certified_entangled == 2

    def test_three_entangled(self):
        res = certify_depth(3.0, 3)
        assert res.certified_entangled == 3

    def test_below_all_thresholds(self):
        res = certify_depth(1.0, 5)
        assert res.certified_entangled == 0

    def test_exceeds_quantum_bound_flagged(self):
        res = certify_depth(4.5, 3)
        assert res.flags == ("exceeds_quantum_bound",)
        assert res.certified_entangled is None

    def test_epsilon_guard(self):
        bound1 = float(thresholds(3)[1])
        assert certify_depth(bound1 + 1e-12, 3, 1e-9).certified_entangled == 2
        assert certify_depth(bound1 + 1e-6, 3, 1e-9).certified_entangled == 3

    @given(st.floats(min_value=0, max_value=4.0), st.floats(min_value=0, max_value=4.0))
    @settings(max_examples=200)
    def test_monotone_in_value(self, e1, e2):
        lo, hi = sorted((e1, e2))
        a = certify_depth(lo, 3)
        b = certify_depth(hi, 3)
        assert b.certified_entangled >= a.certified_entangled

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_depth(-0.5, 3)
        with pytest.raises(ValueError):
            certify_depth(1.0, 3, epsilon=-1e-3)

    @pytest.mark.parametrize("value,epsilon", [(np.nan, 1e-9), (np.inf, 1e-9),
                                               (3.0, np.nan), (3.0, np.inf)])
    def test_non_finite_rejected(self, value, epsilon):
        with pytest.raises(ValueError, match="finite"):
            certify_depth(value, 3, epsilon=epsilon)

    def test_non_integer_n_rejected(self):
        # used to raise a TypeError from range(n + 1)
        with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
            certify_depth(3.0, 3.5)

    def test_json_schema(self):
        obj = certify_depth(2.5, 3).to_json()
        assert set(obj) == {"n", "E", "epsilon", "thresholds",
                            "max_consistent_independent", "certified_entangled",
                            "flags"}


class TestEstimateE:
    def test_ghz3_within_four_sigma(self):
        # At the optimal settings every term's outcome parity is
        # deterministic, so each term carries only the finite-shot floor.
        psi = ghz_pure(3)
        st_ = ghz_optimal_settings(3)
        exact = bell_expectation(psi, st_)
        est = estimate_E(psi, st_, shots_per_term=10**5, seed=5)
        assert abs(est.value - exact) <= 4 * est.stderr + 1e-12
        assert est.stderr < 0.02

    def test_tilted_settings_have_real_shot_noise(self):
        # rotate one direction off-optimum so term variances are nonzero
        st_ = ghz_optimal_settings(3)
        v = st_.vectors.copy()
        phi = 0.3
        v[0, 0] = [np.cos(phi), np.sin(phi), 0.0]
        tilted = Settings(v)
        psi = ghz_pure(3)
        exact = bell_expectation(psi, tilted)
        misses = 0
        for seed in range(20):
            est = estimate_E(psi, tilted, shots_per_term=10**4, seed=seed)
            assert est.stderr > 1e-4
            if abs(est.value - exact) > 4 * est.stderr:
                misses += 1
        assert misses <= 1

    def test_stderr_calibrated_on_random_states(self):
        # 8 states x 40 seeds; the 1-sigma band is 68.3% +- 5 binomial sigmas
        rng = np.random.default_rng(0)
        within_one = 0
        for n in range(3, 7):
            pure, mixed = random_pure(n, rng), random_density(n, rng)
            st_ = Settings(random_unit_vectors(n, rng))
            for state in (pure, mixed):
                exact = bell_expectation(state, st_)
                errors = []
                for seed in range(40):
                    est = estimate_E(state, st_, shots_per_term=1000, seed=seed)
                    errors.append(abs(est.value - exact) / est.stderr)
                assert sum(e <= 4 for e in errors) >= 38
                within_one += sum(e <= 1 for e in errors)
        assert 0.55 <= within_one / 320 <= 0.81

    def test_product_state_stays_classical(self):
        psi = PureState.basis(3, 0)
        st_ = ghz_optimal_settings(3)
        est = estimate_E(psi, st_, shots_per_term=10**5, seed=6)
        assert est.value <= 2.0 + 4 * est.stderr

    def test_depolarized_state_matches_dense_expectation(self):
        rho = criteria.depolarize(ghz_pure(3).to_density(), 0.05)
        st_ = ghz_optimal_settings(3)
        exact = bell_expectation(rho, st_)
        est = estimate_E(rho, st_, shots_per_term=10**5, seed=7)
        assert abs(est.value - exact) <= 4 * est.stderr

    def test_agreeing_shots_keep_nonzero_stderr(self):
        # every GHZ n=3 term is deterministic at the optimal settings
        est = estimate_E(ghz_pure(3), ghz_optimal_settings(3), shots_per_term=2000, seed=3)
        assert est.value == pytest.approx(4.0, abs=1e-12)
        assert est.stderr > 0

    def test_all_odd_terms_keep_nonzero_stderr(self):
        # |01> measured along z on both qubits: every term's shots are odd (p_even = 0)
        z = [[0.0, 0.0, 1.0]] * 2
        est = estimate_E(PureState.basis(2, 1), Settings([z, z]), shots_per_term=2000, seed=3)
        weights = np.array([float(c) for _, c in expand_correlators(2).items()])
        p = 2001 / 2002
        assert est.value == -weights.sum()
        assert est.stderr == pytest.approx(np.sqrt(4 * p * (1 - p) / 2000 * (weights**2).sum()))
        assert est.stderr > 0

    def test_large_shot_counts(self):
        # one draw of 10^7 outcomes per term would take about 80 MB
        est = estimate_E(ghz_pure(3), ghz_optimal_settings(3), shots_per_term=10**7, seed=4)
        assert np.isfinite(est.value)
        assert est.stderr > 0
        assert abs(est.value - 4.0) <= 4 * est.stderr

    @given(st.integers(min_value=2, max_value=5000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_forms_match_sample_moments(self, shots, data):
        k = data.draw(st.integers(min_value=0, max_value=shots))
        order = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        products = order.permutation(np.r_[np.ones(k), -np.ones(shots - k)])
        stderr = np.sqrt(4 * k * (shots - k) / (shots - 1)) / shots
        assert abs((2 * k - shots) / shots - products.mean()) <= 1e-15
        assert abs(stderr - products.std(ddof=1) / np.sqrt(shots)) <= 1e-15

    def test_even_counts_follow_the_binomial_law(self):
        # A term of GHZ_3 at tilted settings (p_even ~ 0.77).  Its even-parity
        # count over N shots, drawn outcome by outcome with rng.choice (the
        # reference) or as one binomial, must fit the exact Binomial(N, p_even) pmf.
        st_ = ghz_optimal_settings(3)
        v = st_.vectors.copy()
        v[0, 0] = [np.cos(1.0), np.sin(1.0), 0.0]
        choice = min(expand_correlators(3).items())[0]   # term 0 of the sorted expansion
        bases = np.array([v[j, c] for j, c in enumerate(choice)])
        probs = outcome_distribution(ghz_pure(3), bases)
        even = np.array([bin(i).count("1") % 2 == 0 for i in range(8)])
        p_even = float(probs[even].sum())
        shots, seeds = 20, range(2000)
        pmf = [math.comb(shots, k) * p_even**k * (1 - p_even)**(shots - k)
               for k in range(shots + 1)]
        # pool the lower tail until every bin expects at least 5 counts
        bins, lo = [], 0
        for k in range(shots + 1):
            if len(seeds) * sum(pmf[lo:k + 1]) >= 5:
                bins.append(range(lo, k + 1))
                lo = k + 1
        assert lo == shots + 1 and len(bins) == 11   # 10 degrees of freedom
        by_choice = [even[child_rng(s, 0).choice(8, shots, p=probs)].sum() for s in seeds]
        by_binomial = [child_rng(s, 0).binomial(shots, p_even) for s in seeds]
        expected = [len(seeds) * sum(pmf[i] for i in b) for b in bins]
        for counts in (by_choice, by_binomial):
            observed = np.bincount(counts, minlength=shots + 1)
            chi2 = sum((observed[b].sum() - e)**2 / e for b, e in zip(bins, expected))
            assert chi2 < 29.59   # the 0.999 quantile of chi-square with 10 dof

    def test_deterministic(self):
        psi = ghz_pure(2)
        st_ = ghz_optimal_settings(2)
        a = estimate_E(psi, st_, shots_per_term=1000, seed=8)
        b = estimate_E(psi, st_, shots_per_term=1000, seed=8)
        assert a == b

    def test_minimum_shots(self):
        with pytest.raises(ValueError):
            estimate_E(ghz_pure(2), ghz_optimal_settings(2), 50, seed=0)

    @pytest.mark.parametrize("bad", [150.5, 200.0, math.inf, True, np.float64(300.0), "300"])
    def test_non_integer_shots_rejected(self, bad):
        # 150.5 used to draw 150 shots and divide by 150.5: E = 3.98 on GHZ_3, not 4
        with pytest.raises(ValueError, match="shots_per_term must be an integer"):
            estimate_E(ghz_pure(3), ghz_optimal_settings(3), bad, seed=0)

    def test_shots_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="shots_per_term must be in"):
            estimate_E(ghz_pure(3), ghz_optimal_settings(3), 2**70, seed=0)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(2.0), "1"])
    def test_non_integer_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_E(ghz_pure(3), ghz_optimal_settings(3), 200, seed=bad)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
            estimate_E(ghz_pure(3), ghz_optimal_settings(3), 200, seed=-3)

    def test_numpy_integer_shots_and_seed_accepted(self, rng):
        psi, st_ = random_pure(3, rng), Settings(random_unit_vectors(3, rng))
        assert estimate_E(psi, st_, np.int64(300), np.uint32(4)) == estimate_E(psi, st_, 300, 4)

    @pytest.mark.parametrize("state", ["pure", "mixed", "pieces"])
    def test_one_row_off_by_1e9_raises(self, state, monkeypatch):
        # every row of the batched table is checked, not only the first
        n = 11 if state == "pieces" else 3
        psi = ghz_pure(n) if state != "mixed" else ghz_pure(n).to_density()
        original = certify._choice_table

        def skewed(*args):
            table = original(*args)
            table.reshape(-1, 2**n)[-1] *= 1 + 1e-9
            return table

        monkeypatch.setattr(certify, "_choice_table", skewed)
        with pytest.raises(RuntimeError, match="outcome probabilities sum to"):
            estimate_E(psi, ghz_optimal_settings(n), 200, seed=0)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="state has 3 qubits but settings have 4"):
            estimate_E(ghz_pure(3), ghz_optimal_settings(4), 200, seed=0)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_per_term_reference(self, n, mixed, rng):
        if mixed:
            state = random_density(n, rng) if n <= 6 else criteria.depolarize(
                ghz_pure(n).to_density(), 0.1)
        else:
            state = random_pure(n, rng)
        for st_ in (ghz_optimal_settings(n), Settings(random_unit_vectors(n, rng))):
            for seed in (0, 5, 9):
                assert estimate_E(state, st_, 300, seed) == per_term_estimate(state, st_, 300, seed)

    def test_pieced_pure_table_matches_per_term_reference(self, rng):
        # above n = TABLE_BITS / 2 the outcome table comes in 2^(2n - 20) pieces
        n = 11
        state = random_pure(n, rng)
        for st_ in (ghz_optimal_settings(n), Settings(random_unit_vectors(n, rng))):
            assert estimate_E(state, st_, 300, 7) == per_term_estimate(state, st_, 300, 7)

    def test_pure_table_is_built_in_pieces(self):
        # one 4^12-entry table of float64 would take 128 MiB
        n = 12
        psi, st_ = ghz_pure(n), ghz_optimal_settings(n)
        expand_correlators(n)
        tracemalloc.start()
        try:
            est = estimate_E(psi, st_, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**certify.TABLE_BITS * 16
        assert est.value == pytest.approx(2**6.5, abs=8 * est.stderr)


class TestWorkedExample:
    def test_state_is_valid_density_matrix(self):
        rho = rho3_state()
        assert isinstance(rho, DensityMatrix)  # constructor enforced invariants
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_listed_angle_value_via_independent_contraction(self):
        # Oracle: expand F_3 term by term; both mixture components factorize,
        # with singlet correlation <a.s (x) b.s> = -a.b and <d.s>_up = d_z.
        rho = rho3_state()
        st_ = rho3_listed_settings()
        poly = expand_correlators(3)
        oracle = 0.0
        for choice, coeff in poly.items():
            d = [st_.vectors[j, c] for j, c in enumerate(choice)]
            term_a = -np.dot(d[0], d[1]) * d[2][2]   # singlet(1,2) x up(3)
            term_b = d[0][2] * -np.dot(d[1], d[2])   # up(1) x singlet(2,3)
            oracle += float(coeff) * 0.5 * (term_a + term_b)
        assert bell_expectation(rho, st_) == pytest.approx(oracle, abs=1e-10)

    def test_report_certifies_two_entangled(self):
        _, rep = example_rho3(restarts=15, seed=3)
        assert rep.optimized.best_value <= 4.0 + 1e-8
        assert rep.optimized.best_value > 2.0      # genuine violation
        assert rep.certificate.certified_entangled == 2
        assert rep.quoted_value == pytest.approx(2 * (1 + np.sqrt(2)))
        assert rep.quoted_exceeds_cap              # 2(1+sqrt2) > 4: not reproducible
        assert rep.optimized.best_value == pytest.approx(1 + np.sqrt(2), abs=1e-6)

    def test_listed_angles_fall_short_of_optimum(self):
        _, rep = example_rho3(restarts=10, seed=4)
        assert rep.value_at_listed_angles < rep.optimized.best_value


class TestConsistencyAcrossModules:
    def test_ghz_block_times_product_hits_ladder_rung(self):
        # GHZ on 3 qubits (x) |0>: the maximum equals bound(1) for n=4
        state = kron_state(ghz_pure(3), PureState.basis(1, 0))
        res = optimize.max_violation_settings(state, restarts=15, tol=1e-10, seed=9)
        bound_1 = float(thresholds(4)[1])
        assert res.best_value == pytest.approx(bound_1, abs=1e-6)
        cert = certify_depth(res.best_value, 4, epsilon=1e-6)
        assert cert.certified_entangled == 3

    def test_product_state_certifies_at_most_one(self):
        state = PureState.basis(4, 0)
        res = optimize.max_violation_settings(state, restarts=10, tol=1e-10, seed=10)
        assert res.best_value <= 2.0 + 1e-9
        cert = certify_depth(res.best_value, 4, epsilon=1e-6)
        assert cert.certified_entangled <= 1

    def test_certificate_does_not_bound_the_largest_group(self):
        # GHZ_3 (x) GHZ_3 rules out 2 independent qubits, so 4 of its 6 qubits
        # are each entangled with another, yet its largest entangled block has 3
        state = kron_state(ghz_pure(3), ghz_pure(3))
        res = optimize.max_violation_settings(state, restarts=20, seed=1)
        assert res.best_value == pytest.approx(2 ** 2.5, abs=1e-6)
        assert certify_depth(res.best_value, 6).certified_entangled == 4
