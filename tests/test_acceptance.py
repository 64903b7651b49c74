"""Acceptance battery: every headline bound, identity, recipe and example at
full strength (pinned tolerances, full qubit ranges, full trial counts).

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
or via the CLI as `bellkit verify`.  Expected wall time is a few minutes,
dominated by the n=5 partial-state search and the shot-noise battery.
"""

from __future__ import annotations

import pytest

from bellkit import verification


def _report(result: verification.CheckResult) -> None:
    print(f"\n{result.line()}  {result.details}")
    assert result.passed, result.line()


def test_01_lhv_bound_exact():
    # exhaustive enumeration, exact integer arithmetic, n = 2..10
    _report(verification.check_lhv_bound(fast=False))


def test_02_operator_bound():
    # lambda_max(B_n^2) <= 2^(n+1) + 1e-8 on 100 random settings, n = 2..8;
    # GHZ-optimal settings give lambda_max(B_n) = 2^((n+1)/2) within 1e-9, n = 2..10
    _report(verification.check_operator_bound(fast=False))


def test_03_ghz_angle_recipe():
    # <B_n>_GHZ at the recipe angles = 2^((n+1)/2) within 1e-9, n = 2..10
    _report(verification.check_ghz_angles(fast=False))


def test_04_optimizer_recovery():
    # max_eigen_settings reaches 2^((n+1)/2) within 1e-6, n = 2..6, <= 50 restarts
    _report(verification.check_optimizer_recovery(fast=False))


def test_05_independent_subset_bound():
    # product_bound_max = 2^((n-m+1)/2) within 1e-5 for (3,1),(4,1),(4,2),(5,2)
    _report(verification.check_independent_subset_bound(fast=False))


def test_06_f_decomposition_exact():
    # exact zero deviation on all 4^n assignments, all 1 <= m < n <= 10
    _report(verification.check_f_decomposition(fast=False))


def test_07_fragility():
    # GHZ fragility = 3n within 1e-10, reductions = I/2 within 1e-10 (n = 2..10);
    # channel composition within 1e-10; decay slope = -fragility within 1e-6
    _report(verification.check_fragility(fast=False))


def test_08_distribution():
    # 200 seeded trials per (n,k), n <= 8: parity-predicted GHZ fidelity = 1
    # within 1e-10 in every trial
    _report(verification.check_distribution(fast=False))


def test_09_mutual_information():
    # GHZ in the computational basis gives exactly n-1 bits within 1e-10
    # (n = 2..10); the symmetric triplet gives 1 bit
    _report(verification.check_mutual_information(fast=False))


def test_10_mm_partial_states():
    # all cataloged states give residual < 1e-9; the n=5 search over
    # >= 200 restarts floors above 1e-3 (empirical record, not a proof)
    _report(verification.check_mm_partial_states(fast=False))


def test_11_symmetric_identities():
    # inner products, split, z->x and GHZ x/y forms by exact embedding, n <= 8
    _report(verification.check_symmetric_identities(fast=False))


def test_12_entangled_basis():
    # Gram matrix of the 2^n GHZ-type basis = identity within 1e-12, n = 2..8
    _report(verification.check_entangled_basis(fast=False))


def test_13_worked_example():
    # 3-qubit mixture: computed optimum <= 4 + 1e-8, certifies exactly 2
    # entangled qubits; quoted 2(1+sqrt 2) flagged as exceeding the cap
    _report(verification.check_worked_example(fast=False))


def test_14_shot_noise():
    # GHZ_3 estimate within 4 standard errors of exact in >= 95/100 seeded
    # repetitions at 1e5 shots per term
    _report(verification.check_shot_noise(fast=False))
