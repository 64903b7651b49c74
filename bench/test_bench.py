"""Tests of the benchmark itself: each oracle at known points, a smoke run of
every workload, and one full round of every workload on a fresh seed.

    python3 -m pytest bench/test_bench.py
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from bellkit import bellop, certify, criteria, qstate  # noqa: E402

FRESH_SEED = 90417          # not used while the workloads were tuned


def random_vectors(n, rng):
    v = rng.normal(size=(n, 2, 3))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


@pytest.mark.parametrize("n", range(1, 7))
def test_coefficients_match_recursive_expansion(n):
    coeff = oracles.klyshko_coefficients(n)
    poly = bellop.expand_correlators(n)
    for index in range(2**n):
        choice = tuple(oracles.choice_bits(n, index))
        assert coeff[index] == pytest.approx(float(poly.coefficient(choice)), abs=1e-14)


@pytest.mark.parametrize("n", range(2, 6))
def test_operator_matches_recursion(n):
    vectors = random_vectors(n, np.random.default_rng(n))
    st = bellop.Settings(vectors)
    assert np.max(np.abs(oracles.bell_operator(vectors) - bellop.bell_operator(st))) < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_reaches_quantum_max_at_recipe_angles(n):
    # a_j at (j-1)(-1)^(n+1) pi/(2n) in the xy-plane, a_j' perpendicular;
    # one of the two perpendicular orientations saturates 2^((n+1)/2).
    def xy(phi):
        return [np.cos(phi), np.sin(phi), 0.0]
    values = []
    for sign in (1, -1):
        phis = [(j - 1) * (-1) ** (n + 1) * np.pi / (2 * n) for j in range(1, n + 1)]
        vectors = np.array([[xy(p), xy(p + sign * np.pi / 2)] for p in phis])
        values.append(oracles.expectation(oracles.ghz(n), vectors))
    assert max(values) == pytest.approx(oracles.quantum_max(n), abs=1e-9)


@pytest.mark.parametrize("n", range(3, 7))
def test_werner_scales_ghz_value(n):
    rng = np.random.default_rng(10 + n)
    vectors = random_vectors(n, rng)
    v = 0.37
    pure = oracles.expectation(oracles.ghz(n), vectors)
    mixed = oracles.expectation(oracles.werner_ghz(n, v), vectors)
    assert mixed == pytest.approx(v * pure, abs=1e-12)
    ghz_st = bellop.ghz_optimal_settings(n).vectors
    assert oracles.expectation(oracles.werner_ghz(n, v), ghz_st) == pytest.approx(
        v * oracles.quantum_max(n), abs=1e-9)


def test_catalogued_states_have_maximally_mixed_partials():
    for label, state in criteria.mm_example_states().items():
        assert oracles.mm_residual(state.n, state.as_complex()) < 1e-12, label
    assert oracles.mm_residual(4, [1, 0, 0, 0, 0]) > 0.1


def test_ladder_depth():
    assert oracles.ladder_depth(oracles.quantum_max(3), 3) == 3
    assert oracles.ladder_depth(2.5, 3) == 2
    assert oracles.ladder_depth(1 + np.sqrt(2), 3) == 2
    assert oracles.ladder_depth(5.0, 3) is None


def test_werner_weights_stay_off_the_ladder():
    rng = np.random.default_rng(FRESH_SEED)
    margin = workloads.SIGMAS * 2 / np.sqrt(workloads.SHOTS)
    for n in range(3, 8):
        for _ in range(200):
            e = workloads.werner_weight(n, rng) * oracles.quantum_max(n)
            gaps = np.abs(oracles.ladder(n) - e)
            assert gaps.min() > margin
            assert oracles.ladder_depth(e, n) >= 2


def test_post_states_match_sampled_ghz():
    n = 5
    ghz = qstate.PureState(n, oracles.ghz(n))
    for seed in range(20):
        rec = qstate.measure_sample(ghz, qstate.x_bases(n), [1, 3], seed)
        assert oracles.phase_distance(rec.post.amp, oracles.x_post_state(3, rec.outcomes)) < 1e-10
        rec = qstate.measure_sample(ghz, qstate.z_bases(n), [2], seed)
        assert oracles.phase_distance(rec.post.amp, oracles.z_post_state(4, rec.outcomes[0])) < 1e-10


def test_rho3_matches_library_example():
    assert np.max(np.abs(workloads.rho3_matrix() - certify.rho3_state().mat)) < 1e-15


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_first_task(name):
    workload = workloads.WORKLOADS[name](1)
    assert len(workload.tasks) == workloads.TASKS_PER_ROUND
    task = workload.tasks[0]
    out = task.run()
    if not task.fault(out):
        assert task.check(out) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_round_on_fresh_seed(name):
    workload = workloads.WORKLOADS[name](FRESH_SEED)
    results = [task.run() for task in workload.tasks]
    problems, faults = [], []
    for task, out in zip(workload.tasks, results):
        if task.fault(out):
            faults.append(task.label)
        else:
            problems += task.check(out)
    assert problems == [] and workload.round_check(results) == []
    # The only failures allowed are pure-GHZ estimates reporting stderr 0.
    assert all(label.startswith("ghz n=") for label in faults)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "shot-certify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": ""})
    assert out.returncode != 0
    assert out.stdout.strip() == ""
