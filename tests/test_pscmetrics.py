import math

import numpy as np
import pytest

from hwassure.pscmetrics import (
    KL_EPSILON,
    EmpiricalDistribution,
    ScoreThresholds,
    build_distribution,
    compare_profiles,
    js_divergence,
    js_matrix_csv,
    kl_divergence,
    per_cycle_js_matrix,
    security_score,
    snr,
    tvla,
)


def test_build_distribution_counts_exactly():
    d = build_distribution([1, 1, 2])
    assert d.support == (1, 2)
    assert d.probabilities == (2 / 3, 1 / 3)
    assert d.sample_count == 3
    assert d.mass(1) == 2 / 3
    assert d.mass(99) == 0.0


def test_build_distribution_rejects_empty():
    with pytest.raises(ValueError):
        build_distribution([])


def test_distribution_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution((1, 2), (1.0,), 1)
    with pytest.raises(ValueError):
        EmpiricalDistribution((2, 1), (0.5, 0.5), 2)
    with pytest.raises(ValueError):
        EmpiricalDistribution((1, 2), (-0.5, 1.5), 2)
    with pytest.raises(ValueError):
        EmpiricalDistribution((1, 2), (0.6, 0.6), 2)
    with pytest.raises(ValueError):
        EmpiricalDistribution((), (), 0)


def test_uniform_draws_approach_uniform_mass():
    rng = np.random.default_rng(7)
    d = build_distribution(rng.integers(0, 8, size=4000))
    l1 = sum(abs(d.mass(v) - 1 / 8) for v in range(8))
    assert l1 < 0.05


def test_kl_matches_hand_computation():
    p = build_distribution([0, 0, 0, 1])
    q = build_distribution([0, 1, 1, 2])
    scale = 1.0 + KL_EPSILON * 3
    expected = 0.75 * math.log2(0.75 / ((0.25 + KL_EPSILON) / scale)) + 0.25 * math.log2(
        0.25 / ((0.5 + KL_EPSILON) / scale)
    )
    assert abs(kl_divergence(p, q) - expected) < 1e-12


def test_kl_disjoint_point_masses_is_large_but_finite():
    p = build_distribution([0])
    q = build_distribution([1])
    value = kl_divergence(p, q)
    assert math.isfinite(value)
    # log2(1/eps) up to the normalization wrinkle
    assert abs(value - math.log2((1.0 + 2 * KL_EPSILON) / KL_EPSILON)) < 1e-9


def test_kl_self_is_tiny_and_nonnegative():
    d = build_distribution([0, 1, 1, 2, 2, 2])
    value = kl_divergence(d, d)
    assert 0.0 <= value < 1e-6


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = build_distribution(rng.integers(0, 6, size=rng.integers(1, 40)))
        q = build_distribution(rng.integers(0, 6, size=rng.integers(1, 40)))
        assert kl_divergence(p, q) >= 0.0


def test_js_self_is_exactly_zero():
    d = build_distribution([3, 1, 4, 1, 5, 9, 2, 6])
    assert js_divergence(d, d) == 0.0


def test_js_disjoint_supports_is_exactly_one():
    p = build_distribution([0, 0, 1, 1])
    q = build_distribution([7, 8])
    assert js_divergence(p, q) == 1.0
    # non-dyadic masses land within float-sum error of 1
    p3 = build_distribution([0, 1, 2])
    q3 = build_distribution([5, 5, 6])
    assert abs(js_divergence(p3, q3) - 1.0) < 1e-12


def test_js_hand_case_half_overlap():
    p = build_distribution([0, 1])
    q = build_distribution([1, 2])
    assert abs(js_divergence(p, q) - 0.5) < 1e-12


def test_js_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = build_distribution(rng.integers(0, 10, size=rng.integers(1, 30)))
        q = build_distribution(rng.integers(0, 10, size=rng.integers(1, 30)))
        ab = js_divergence(p, q)
        ba = js_divergence(q, p)
        assert abs(ab - ba) < 1e-12
        assert 0.0 <= ab <= 1.0


def test_tvla_zero_for_identical_sets():
    samples = [3.0, 5.0, 4.0, 6.0]
    assert tvla(samples, samples) == 0.0


def test_tvla_antisymmetric_and_signed():
    rng = np.random.default_rng(5)
    fixed = rng.normal(10.0, 2.0, size=50)
    random_ = rng.normal(12.0, 2.0, size=60)
    t = tvla(fixed, random_)
    assert t > 0
    assert abs(t + tvla(random_, fixed)) < 1e-12


def test_tvla_matches_welch_closed_form():
    rng = np.random.default_rng(42)
    sigma = 4.0
    fixed = rng.normal(100.0, sigma, size=1000)
    random_ = rng.normal(100.0 + sigma, sigma, size=1000)
    expected = sigma / math.sqrt(sigma**2 / 1000 + sigma**2 / 1000)
    t = tvla(fixed, random_)
    assert abs(t - expected) / expected < 0.15


def test_tvla_one_sigma_shift_clears_threshold_across_seeds():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fixed = rng.normal(50.0, 3.0, size=1000)
        random_ = rng.normal(53.0, 3.0, size=1000)
        if abs(tvla(fixed, random_)) > 4.5:
            hits += 1
    assert hits == 20


def test_tvla_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        tvla([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        tvla([2.0, 2.0], [3.0, 3.0])
    # one constant set is fine as long as the other varies
    assert math.isfinite(tvla([2.0, 2.0], [3.0, 4.0]))


def test_snr_ratio_of_population_variances():
    signal = [0.0, 2.0, 0.0, 2.0]
    noise = [0.0, 2.0, 0.0, 2.0]
    assert snr(signal, noise) == 1.0
    doubled = [0.0, 4.0, 0.0, 4.0]
    assert snr(doubled, noise) == 4.0
    with pytest.raises(ValueError):
        snr(signal, [5.0, 5.0])


def test_threshold_validation():
    with pytest.raises(ValueError):
        ScoreThresholds((0.3, 0.3, 0.1, 0.05))
    with pytest.raises(ValueError):
        ScoreThresholds((0.3, 0.2, 0.1, 0.0))
    with pytest.raises(ValueError):
        ScoreThresholds((1.2, 0.2, 0.1, 0.05))


def test_security_score_bands_and_boundaries():
    assert security_score(0.0) == 5
    assert security_score(1.0) == 1
    assert security_score(0.3125) == 1
    # boundaries belong to the lower score
    assert security_score(0.30) == 1
    assert security_score(0.20) == 2
    assert security_score(0.12) == 3
    assert security_score(0.05) == 4
    assert security_score(0.30 - 1e-9) == 2
    assert security_score(0.05 - 1e-9) == 5
    with pytest.raises(ValueError):
        security_score(1.5)


def test_security_score_monotone_in_js():
    grid = np.linspace(0.0, 1.0, 201)
    scores = [security_score(float(v)) for v in grid]
    assert all(b <= a for a, b in zip(scores, scores[1:]))


def test_custom_thresholds_respected():
    custom = ScoreThresholds((0.8, 0.6, 0.4, 0.2))
    assert security_score(0.5, custom) == 3
    assert security_score(0.1, custom) == 5


def test_compare_profiles_identical_sets_zero():
    samples = [10, 12, 11, 13, 10, 12]
    assert compare_profiles(samples, samples) == 0.0


def test_compare_profiles_binning_rescues_near_disjoint_samples():
    rng = np.random.default_rng(3)
    a = np.rint(rng.normal(10000.0, 400.0, size=1000)).astype(np.int64)
    b = np.rint(rng.normal(10000.0, 400.0, size=1000)).astype(np.int64)
    raw = js_divergence(build_distribution(a), build_distribution(b))
    binned = compare_profiles(a, b)
    assert raw > 0.5
    assert binned < 0.2


def test_compare_profiles_separated_means_score_high():
    rng = np.random.default_rng(9)
    a = np.rint(rng.normal(1000.0, 10.0, size=1000)).astype(np.int64)
    b = np.rint(rng.normal(1200.0, 10.0, size=1000)).astype(np.int64)
    assert compare_profiles(a, b) > 0.9


def test_compare_profiles_shift_invariant():
    rng = np.random.default_rng(17)
    a = rng.integers(50, 90, size=400)
    b = rng.integers(55, 95, size=400)
    base = compare_profiles(a, b)
    shifted = compare_profiles(a + 1000, b + 1000)
    assert base == shifted


def test_compare_profiles_explicit_width_and_validation():
    a = [0, 1, 2, 3]
    b = [0, 1, 2, 3]
    assert compare_profiles(a, b, bin_width=2) == 0.0
    assert compare_profiles([5, 5, 5], [5, 5, 5]) == 0.0
    with pytest.raises(ValueError):
        compare_profiles([], [1])
    with pytest.raises(ValueError):
        compare_profiles(a, b, bin_width=0)


def test_per_cycle_matrix_shape_and_zero_diagonal():
    rng = np.random.default_rng(31)
    blocks = {
        "aes": rng.integers(0, 40, size=33),
        "s27": rng.integers(0, 10, size=33),
    }
    matrix = per_cycle_js_matrix(blocks, blocks, cycles_per_encryption=11)
    assert set(matrix) == {"aes", "s27"}
    assert all(len(v) == 11 for v in matrix.values())
    assert all(x == 0.0 for v in matrix.values() for x in v)
    with pytest.raises(ValueError):
        per_cycle_js_matrix(blocks, {"aes": blocks["aes"]}, 11)


def test_js_matrix_csv_layout():
    matrix = {"aes": [0.0, 0.5], "s27": [0.25, 1.0]}
    text = js_matrix_csv(matrix, ["aes", "s27"])
    lines = text.strip().split("\n")
    assert lines[0] == "cycle,aes,s27"
    assert lines[1] == "0,0.000000,0.250000"
    assert lines[2] == "1,0.500000,1.000000"
    with pytest.raises(ValueError):
        js_matrix_csv(matrix, ["aes", "missing"])
    with pytest.raises(ValueError):
        js_matrix_csv({"a": [0.1], "b": [0.1, 0.2]}, ["a", "b"])

