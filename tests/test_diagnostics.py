"""Uniformity diagnostics: p-value sets, chi-squared, KS, ECDF bands.

The band self-calibration and type-I error rates are statistical
properties checked by Monte Carlo at fixed seeds; the band's exact coverage
is also checked against a plain dense recursion.
"""

import dataclasses

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
    null = diagnostics._NullCounts(s, m, (1.0 - band.coverage) / band.grid.size / 2.0)
    looser = null.count_bounds((1.0 - band.pointwise_level) * (1.0 + 1e-9))
    assert null.coverage(*looser) < band.coverage


def _candidates(null, coverage):
    """The candidate deltas of the band search, read from the whole count tables."""
    bonferroni = (1.0 - coverage) / null.grid.size
    tails = np.concatenate([t[(t > bonferroni / 2.0) & (t < 0.5)] for t in (null.cdf, null.sf)])
    tails = np.unique(np.concatenate([tails, np.nextafter(tails, 0.0)]))
    return np.concatenate(([bonferroni], 2.0 * tails[2.0 * tails > bonferroni], [1.0]))


def _full_row_bounds(null, delta):
    """count_bounds as counted over whole rows of the count tables."""
    x = delta / 2.0
    mean = null.s * null.grid
    return (np.minimum(np.count_nonzero(null.cdf < x, axis=1), mean),
            np.maximum(np.count_nonzero(null.sf > x, axis=1), mean))


def _bisected_band(s, m, coverage):
    """The band as plain bisection over the candidates finds it, and its recursions.

    A frozen copy of the search the secant search replaced.
    """
    null = diagnostics._NullCounts(s, m, (1.0 - coverage) / min(s, 100) / 2.0)
    deltas = _candidates(null, coverage)
    calls = []

    def band_at(i):
        bounds = _full_row_bounds(null, deltas[i])
        calls.append(i)
        return bounds, null.coverage(*bounds)

    keep, drop, kept = 0, deltas.size, None
    while drop - keep > 1:
        mid = (keep + drop) // 2
        band = band_at(mid)
        if band[1] >= coverage:
            keep, kept = mid, band
        else:
            drop = mid
    (count_lo, count_up), covered = kept or band_at(keep)
    band = diagnostics.EcdfBand(
        grid=null.grid, lower=count_lo / s - null.grid, upper=count_up / s - null.grid,
        count_lower=count_lo, count_upper=count_up, coverage=float(coverage),
        coverage_exact=covered, pointwise_level=1.0 - float(deltas[keep]), s=s,
        granularity=m)
    return band, len(calls)


def _searched_band(s, m, coverage, monkeypatch):
    """The band as _calibrated_band builds it, uncached, and its recursions."""
    calls = []
    recursion = diagnostics._NullCounts.coverage

    def counted(self, *bounds):
        calls.append(1)
        return recursion(self, *bounds)

    with monkeypatch.context() as mp:
        mp.setattr(diagnostics._NullCounts, "coverage", counted)
        band = diagnostics._calibrated_band.__wrapped__(s, m, coverage)
    return band, len(calls)


def _assert_same_band(got, want):
    for field in dataclasses.fields(diagnostics.EcdfBand):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("m", [None, 1, 9, 19, 99, 999])
@pytest.mark.parametrize("s", [10, 11, 50, 400, 2000, 10_000])
def test_band_search_equals_frozen_bisection(s, m, monkeypatch):
    for coverage in (0.5, 0.8, 0.9, 0.95, 0.99):
        got, _ = _searched_band(s, m, coverage, monkeypatch)
        want, _ = _bisected_band(s, m, coverage)
        _assert_same_band(got, want)


def test_band_search_equals_frozen_bisection_at_large_s(monkeypatch):
    got, _ = _searched_band(100_000, 999, 0.95, monkeypatch)
    want, _ = _bisected_band(100_000, 999, 0.95)
    _assert_same_band(got, want)


@pytest.mark.parametrize("s, m, coverage", [(400, 99, 0.95), (2000, None, 0.95), (50, 19, 0.95),
                                         (2000, None, 0.9)])
def test_band_search_needs_no_more_recursions_than_bisection(s, m, coverage, monkeypatch):
    # the band sizes of the benchmark's sbc-loop commands, and a band where
    # plain regula falsi stalls on one side (21 recursions against 15)
    _, searched = _searched_band(s, m, coverage, monkeypatch)
    _, bisected = _bisected_band(s, m, coverage)
    assert searched <= bisected


@pytest.mark.parametrize("s, m, coverage", [
    (10, 1, 0.8), (11, None, 0.5), (50, 19, 0.95), (400, 99, 0.95), (400, 9, 0.99)])
def test_windowed_count_bounds_equal_full_rows(s, m, coverage, monkeypatch):
    # the tables as _calibrated_band builds them, windowed for its search
    built = []

    class Recorded(diagnostics._NullCounts):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(diagnostics, "_NullCounts", Recorded)
    diagnostics._calibrated_band.__wrapped__(s, m, coverage)
    (null,) = built
    for delta in _candidates(null, coverage):
        got, want = null.count_bounds(delta), _full_row_bounds(null, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), delta


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
