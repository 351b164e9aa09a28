"""Uniformity diagnostics: p-value sets, chi-squared, KS, ECDF bands.

The band self-calibration and type-I error rates are statistical
properties checked by Monte Carlo at fixed seeds; the band's exact coverage
is also checked against a plain dense recursion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from simflow import (
    NormalNormal,
    PerturbedConjugate,
    PValueSet,
    SbcConfig,
    band_contains,
    ecdf_band,
    rank_histogram,
    run_sbc,
    uniformity_test,
)
from simflow import diagnostics


def test_pvalueset_validation():
    with pytest.raises(ValueError):
        PValueSet(np.array([]))
    with pytest.raises(ValueError):
        PValueSet(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        PValueSet(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        PValueSet(np.array([0.5, 0.123]), granularity=10)
    ok = PValueSet(np.array([0.0, 0.3, 1.0]), granularity=10)
    assert ok.size == 3 and ok.granularity == 10


def test_chi2_zero_on_equally_spaced_grid():
    p = (np.arange(1000) + 0.5) / 1000
    v = uniformity_test(p, bins=10)
    assert v.chi2_stat == 0.0
    assert v.chi2_pvalue == 1.0


def test_degenerate_point_mass_rejected():
    v = uniformity_test(np.full(1000, 0.5))
    assert v.chi2_pvalue < 1e-10
    assert not v.ecdf_inside


def test_uniform_joint_pass_rate_over_seeds():
    # With a 95% simultaneous band the joint verdict cannot pass 99% of
    # the time; the chi-squared check alone at 0.001 can. The observed
    # joint rate should sit near the band coverage itself.
    chi2_pass = 0
    joint_pass = 0
    reps = 500
    for seed in range(reps):
        rng = np.random.default_rng(seed)
        v = uniformity_test(rng.random(1000))
        chi2_ok = v.chi2_pvalue > 0.001
        chi2_pass += chi2_ok
        joint_pass += chi2_ok and v.ecdf_inside
    assert chi2_pass / reps >= 0.99
    assert joint_pass / reps >= 0.93


@pytest.mark.parametrize("s", [100, 1000])
def test_band_self_calibration(s):
    band = ecdf_band(s, coverage=0.95)
    rng = np.random.default_rng(88)
    inside = 0
    reps = 10_000
    for _ in range(reps):
        ok, _diff = band_contains(band, rng.random(s))
        inside += ok
    assert abs(inside / reps - 0.95) < 0.015


@pytest.mark.parametrize("s", [1000, 500])
def test_band_coverage_at_sbc_granularity(s):
    # SBC ranks live on the grid k/99; with 4e4 replicates 4 Monte Carlo SE
    # come to about 0.0044, tighter than the band's old shortfall
    m = 99
    band = ecdf_band(s, granularity=m, coverage=0.95)
    rng = np.random.default_rng(5150)
    reps = 40_000
    inside = 0
    for _ in range(reps):
        ok, _diff = band_contains(band, rng.integers(0, m + 1, size=s) / m)
        inside += ok
    tol = 4 * np.sqrt(0.95 * 0.05 / reps)
    assert abs(inside / reps - band.coverage) < tol
    assert abs(inside / reps - band.coverage_exact) < tol


def _dense_coverage(s, probs, count_lower, count_upper):
    """Coverage by the plain recursion over all counts, with scipy's pmf."""
    c = np.arange(s + 1)
    state = (c == 0).astype(float)
    prev = 0.0
    for p, lo, up in zip(probs, count_lower, count_upper):
        q = (p - prev) / (1.0 - prev)
        state = state @ stats.binom.pmf(c[None, :] - c[:, None], (s - c)[:, None], q)
        state[(c < lo) | (c > up)] = 0.0
        prev = p
    return state.sum()


@pytest.mark.parametrize("s, m", [(10, None), (120, None), (400, 99), (50, 19), (30, 9)])
def test_band_exact_coverage_matches_dense_recursion(s, m):
    band = ecdf_band(s, granularity=m)
    probs = diagnostics._null_cdf_at_grid(s, m)
    dense = _dense_coverage(s, probs, band.count_lower, band.count_upper)
    assert band.coverage_exact == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("s, m", [(1000, 99), (500, 99), (400, 99), (2000, None), (50, 19)])
def test_band_is_loosest_with_stated_coverage(s, m):
    band = ecdf_band(s, granularity=m, coverage=0.95)
    assert band.coverage_exact >= band.coverage
    # a pointwise level looser by a relative 1e-9 already covers too little
    null = diagnostics._NullCounts(s, m)
    looser = null.count_bounds((1.0 - band.pointwise_level) * (1.0 + 1e-9))
    assert null.coverage(*looser) < band.coverage


def test_chi2_type1_error_rates():
    # 1e4 uniform sets through the full verdict path
    rng = np.random.default_rng(17)
    pvals = np.empty(10_000)
    for i in range(pvals.size):
        pvals[i] = uniformity_test(rng.random(200)).chi2_pvalue
    for alpha in (0.05, 0.01):
        assert abs((pvals < alpha).mean() - alpha) < 0.02


def test_discrete_granularity_not_over_rejected():
    # rank-style values on the grid k/99 with declared granularity
    rng = np.random.default_rng(23)
    reject = {"ks": 0, "chi2": 0}
    reps = 400
    for _ in range(reps):
        p = PValueSet(rng.integers(0, 100, size=500) / 99, granularity=99)
        v = uniformity_test(p)
        reject["ks"] += v.ks_pvalue < 0.05
        reject["chi2"] += v.chi2_pvalue < 0.05
    se = np.sqrt(0.05 * 0.95 / reps)
    assert reject["ks"] / reps < 0.05 + 3 * se
    assert reject["chi2"] / reps < 0.05 + 3 * se


def test_simultaneous_band_at_least_pointwise():
    band = ecdf_band(1000, coverage=0.95)
    s = band.s
    probs = band.grid
    pw_lo = stats.binom.ppf(0.025, s, probs)
    pw_up = stats.binom.ppf(0.975, s, probs)
    assert np.all(band.count_lower <= pw_lo)
    assert np.all(band.count_upper >= pw_up)
    # simultaneity forces a stricter per-point confidence level
    assert band.pointwise_level >= 0.95


def test_band_small_sample_shape():
    band = ecdf_band(10, coverage=0.95)
    assert np.all(np.isfinite(band.count_lower))
    assert np.all(np.isfinite(band.count_upper))
    # diff band brackets zero everywhere
    assert np.all(band.count_lower / band.s - band.grid <= 0)
    assert np.all(band.count_upper / band.s - band.grid >= 0)


def test_band_size_mismatch_rejected():
    band = ecdf_band(100)
    with pytest.raises(ValueError):
        band_contains(band, np.random.default_rng(0).random(99))


def test_rank_histogram_point_mass():
    counts = rank_histogram(np.zeros(100), bins=10)
    assert counts[0] == 100
    assert counts.sum() == 100


def test_rank_histogram_equal_grid():
    p = (np.arange(500) + 0.5) / 500
    counts = rank_histogram(p, bins=10)
    assert np.all(counts == 50)


def test_rank_histogram_u_shape_from_overconfident_sbc():
    model = NormalNormal(n_obs=10)
    r = run_sbc(model, PerturbedConjugate(sd_scale=0.5), SbcConfig(s=500, m=99, seed=3))
    counts = rank_histogram(r.pvalues[r.target_names[0]], bins=10)
    assert counts[0] + counts[-1] > 2 * (500 / 10)


def test_rank_histogram_bins_validation():
    with pytest.raises(ValueError):
        rank_histogram(np.array([0.5]), bins=1)


def test_uniformity_small_set():
    v = uniformity_test(np.linspace(0.05, 0.95, 10))
    assert 0.0 <= v.chi2_pvalue <= 1.0
    assert v.band.s == 10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=60))
def test_uniformity_verdict_well_formed(values):
    v = uniformity_test(np.array(values))
    assert 0.0 <= v.chi2_pvalue <= 1.0
    assert 0.0 <= v.ks_pvalue <= 1.0
    assert rank_histogram(np.array(values), v.bins).sum() == len(values)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_band_diff_bounded(seed):
    band = ecdf_band(50)
    _ok, diff = band_contains(band, np.random.default_rng(seed).random(50))
    assert np.all(np.abs(diff) <= 1.0)


# The KS p-value is computed in numpy; scipy.stats is the reference here only.
@st.composite
def _ks_sf_point(draw):
    n = draw(st.integers(min_value=1, max_value=20_000))
    # d anywhere in (0, 1], or n*d in (0, 3] where the closed forms and the
    # Durbin and Pomeranz recursions take over from one another
    d = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=3.0, exclude_min=True).map(lambda t: min(t / n, 1.0)),
    ))
    return n, d


@settings(max_examples=300, deadline=None)
@given(_ks_sf_point())
def test_ks_sf_matches_scipy_kstwo_bit_for_bit(point):
    n, d = point
    assert diagnostics._ks_sf(n, d) == stats.kstwo.sf(d, n)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 140, 141, 400, 1000, 2000, 20_000])
def test_ks_sf_edges_match_scipy(n):
    half = 0.5 / n
    for d in (half / 2, half, np.nextafter(half, 1.0), 1.0 / n, 0.5, 1.0):
        assert diagnostics._ks_sf(n, d) == stats.kstwo.sf(d, n), d
    assert diagnostics._ks_sf(n, half) == 1.0
    assert diagnostics._ks_sf(n, 1.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.25, max_value=4.0))
def test_ks_test_matches_scipy_kstest(n, seed, power):
    # powers of uniforms are off-uniform, so small p-values are reached too
    x = np.random.default_rng(seed).random(n) ** power
    ref = stats.kstest(x, "uniform")
    assert diagnostics._ks_uniform(x) == (ref.statistic, ref.pvalue)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10, max_value=1000),
       st.integers(min_value=1, max_value=999),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_ks_on_jittered_ranks_matches_scipy_kstest(s, m, seed):
    ranks = np.random.default_rng(seed).integers(0, m + 1, size=s)
    p = PValueSet(ranks / m, granularity=m)
    ref = stats.kstest(diagnostics._ks_values(p), "uniform")
    v = uniformity_test(p)
    assert (v.ks_stat, v.ks_pvalue) == (ref.statistic, ref.pvalue)
