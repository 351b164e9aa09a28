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


# A frozen copy of the whole-table construction _NullCounts used before it
# kept only windows of its tables: the reference the windowed tables and the
# recursion over them are held to. Each entry is computed as it was; the rows
# are built ten at a time only to bound the memory at large s.
def _full_pmf(s, probs):
    """The Binomial(s, p) pmf at k = 0..s, one row per p in probs."""
    from scipy import special

    k = np.arange(s + 1)
    logf = special.gammaln(k + 1.0)
    p = probs[:, None]
    return np.exp(logf[s] - logf[k] - logf[s - k]
                  + special.xlogy(k, p) + special.xlog1py(s - k, -p))


def _full_tables(s, m):
    """P(C_j <= k) for k = 0..s and P(C_j > k) for k = 0..s-1, for every grid point j."""
    probs = diagnostics._null_cdf_at_grid(s, m)
    cdf, sf = np.empty((probs.size, s + 1)), np.empty((probs.size, s))
    for rows in np.array_split(np.arange(probs.size), -(-probs.size // 10)):
        pmf = _full_pmf(s, probs[rows])
        cdf[rows] = np.cumsum(pmf, axis=1)
        sf[rows] = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]
    return cdf, sf


def _full_factors(s, m):
    """q and the log factors alpha, beta, gamma of the recursion, over all counts."""
    from scipy import special

    probs = diagnostics._null_cdf_at_grid(s, m)
    k = np.arange(s + 1)
    logf = special.gammaln(k + 1.0)
    prev = np.concatenate(([0.0], probs[:-1]))
    q = (probs - prev) / (1.0 - prev)
    qm = np.where((q > 0.0) & (q < 1.0), q, 0.5)[:, None]
    lq, l1q = np.log(qm), np.log1p(-qm)
    lam = np.log(s * (1.0 - prev[:, None]) + 0.5) + l1q
    alpha = logf[s - k] + (s - k) * l1q + lam * k
    beta = -logf[k] + k * (lq - l1q + lam)
    gamma = -logf[s - k] - lam * k
    return q, alpha, beta, gamma


def _full_coverage(s, factors, count_lower, count_upper):
    """The coverage recursion as it read the whole factor tables."""
    q_all, alpha, beta, gamma = factors
    lows = np.ceil(count_lower).astype(np.int64)
    ups = np.floor(count_upper).astype(np.int64)
    a = b = 0
    state = np.ones(1)
    for j, q in enumerate(q_all):
        lo = max(int(lows[j]), a)
        up = min(int(ups[j]), b if q == 0.0 else s)
        if lo > up:
            return 0.0
        if q == 0.0:
            state = state[lo - a:up - a + 1]
        elif q == 1.0:
            if up != s:
                return 0.0
            state = np.full(1, state.sum())
        else:
            al = alpha[j, a:b + 1]
            be = beta[j, :up - a + 1]
            am, bm = al.max(), be.max()
            conv = np.convolve(state * np.exp(al - am), np.exp(be - bm))
            state = conv[lo - a:up - a + 1] * np.exp(gamma[j, lo:up + 1] + (am + bm))
        a, b = lo, up
    return float(state.sum())


def _candidates(tables, coverage):
    """The candidate deltas of the band search, read from the whole count tables."""
    cdf, sf = tables
    bonferroni = (1.0 - coverage) / cdf.shape[0]
    tails = np.concatenate([t[(t > bonferroni / 2.0) & (t < 0.5)] for t in (cdf, sf)])
    tails = np.unique(np.concatenate([tails, np.nextafter(tails, 0.0)]))
    return np.concatenate(([bonferroni], 2.0 * tails[2.0 * tails > bonferroni], [1.0]))


def _full_row_bounds(tables, delta):
    """count_bounds as counted over whole rows of the count tables."""
    cdf, sf = tables
    x = delta / 2.0
    s = sf.shape[1]
    mean = s * diagnostics._grid_for(s)
    return (np.minimum(np.count_nonzero(cdf < x, axis=1), mean),
            np.maximum(np.count_nonzero(sf > x, axis=1), mean))


def _bisected_band(s, m, coverage, tables=None):
    """The band as plain bisection over the candidates finds it, and its recursions.

    A frozen copy of the search the secant search replaced, over the whole
    count tables.
    """
    tables = tables or _full_tables(s, m)
    null = diagnostics._NullCounts(s, m, (1.0 - coverage) / min(s, 100) / 2.0)
    deltas = _candidates(tables, coverage)
    calls = []

    def band_at(i):
        bounds = _full_row_bounds(tables, deltas[i])
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


_SIZES = pytest.mark.parametrize("s", [10, 11, 50, 400, 2000, 10_000])
_GRANULARITIES = pytest.mark.parametrize("m", [None, 1, 9, 19, 99, 999])
_COVERAGES = (0.5, 0.8, 0.9, 0.95, 0.99)


@_GRANULARITIES
@_SIZES
def test_band_search_equals_frozen_bisection(s, m, monkeypatch):
    tables = _full_tables(s, m)
    for coverage in _COVERAGES:
        got, _ = _searched_band(s, m, coverage, monkeypatch)
        want, _ = _bisected_band(s, m, coverage, tables)
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
    tables = _full_tables(s, m)
    for delta in _candidates(tables, coverage):
        got, want = null.count_bounds(delta), _full_row_bounds(tables, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), delta


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@_GRANULARITIES
@pytest.mark.parametrize("s", [10, 11, 50, 400, 2000, 10_000, 30_000])
def test_pmf_is_zero_outside_its_window(s, m):
    probs = diagnostics._null_cdf_at_grid(s, m)
    start, width = diagnostics._pmf_windows(s, probs)
    assert np.all(start >= 0) and np.all(start + width <= s + 1)
    for rows in np.array_split(np.arange(probs.size), 10):
        pmf = _full_pmf(s, probs[rows])
        inside = np.arange(s + 1) - start[rows, None]
        assert not np.any(pmf[(inside < 0) | (inside >= width)])


@_GRANULARITIES
@_SIZES
def test_stored_tables_equal_frozen_full_tables(s, m):
    cdf, sf = _full_tables(s, m)
    q, alpha, beta, gamma = _full_factors(s, m)
    mean = s * diagnostics._grid_for(s)
    for coverage in (0.5, 0.95, 0.99):
        tail_min = (1.0 - coverage) / min(s, 100) / 2.0
        null = diagnostics._NullCounts(s, m, tail_min)
        # the tails between tail_min and 0.5, each padded to one width, and
        # the counts before them
        for base, tail, table, inside, pad in (
                (null.lo_base, null.lo_tail, cdf, (cdf >= tail_min) & (cdf < 0.5), 1.0),
                (null.up_base, null.up_tail, sf, (sf <= 0.5) & (sf > tail_min), 0.0)):
            for j, row in enumerate(table):
                (cols,) = np.nonzero(inside[j])
                assert np.array_equal(cols, base[j] + np.arange(cols.size)), j
                assert np.array_equal(_bits(tail[j, :cols.size]), _bits(row[cols])), j
                assert np.all(tail[j, cols.size:] == pad), j
        # the widest band's counts, and the log factors over them
        low = np.ceil(np.minimum(np.count_nonzero(cdf < tail_min, axis=1), mean))
        high = np.floor(np.maximum(np.count_nonzero(sf > tail_min, axis=1), mean))
        assert np.array_equal(null.low, low) and np.array_equal(null.high, high)
        assert np.array_equal(null.q, q)
        assert np.array_equal(null.convolved, np.flatnonzero((q > 0.0) & (q < 1.0)))
        before = np.concatenate(([[0, 0]], np.stack([low, high], axis=1)[:-1])).astype(int)
        stored = 0
        for i, j in enumerate(null.convolved):
            for at, full, counts in (
                    (null.alpha_at, alpha, np.arange(before[j, 0], before[j, 1] + 1)),
                    (null.beta_at, beta, np.arange(int(high[j]) - before[j, 0] + 1)),
                    (null.gamma_at, gamma, np.arange(int(low[j]), int(high[j]) + 1))):
                got = null.log_factors[at[i] + counts]
                assert np.array_equal(_bits(got), _bits(full[j, counts])), (i, j)
                stored += counts.size
        assert null.log_factors.size == stored


def _visited_bounds(s, m, coverage, monkeypatch):
    """The null counts of one band search and every pair of bounds it tried."""
    nulls, visited = [], []
    recursion = diagnostics._NullCounts.coverage

    def recorded(self, *bounds):
        nulls.append(self)
        visited.append(bounds)
        return recursion(self, *bounds)

    with monkeypatch.context() as mp:
        mp.setattr(diagnostics._NullCounts, "coverage", recorded)
        diagnostics._calibrated_band.__wrapped__(s, m, coverage)
    (null,) = {id(n): n for n in nulls}.values()
    return null, visited


@_GRANULARITIES
@pytest.mark.parametrize("s", [10, 11, 50, 400, 2000])
def test_coverage_equals_frozen_recursion_at_every_visited_band(s, m, monkeypatch):
    factors = _full_factors(s, m)
    for coverage in _COVERAGES:
        null, visited = _visited_bounds(s, m, coverage, monkeypatch)
        for bounds in visited:
            got, want = null.coverage(*bounds), _full_coverage(s, factors, *bounds)
            assert _bits(got) == _bits(want), (coverage, bounds)


# band sizes with rows of q = 0 (m below the grid size), a row of q = 1 (the
# last, always), and continuous values
_SMALL = [(10, None), (30, 9), (50, 19), (120, 1), (200, 9), (400, 99)]
_SMALL_TAIL = 0.05 / 100 / 2.0


@st.composite
def _bounds_in_range(draw):
    """(s, m, count_lower, count_upper) within the widest band's counts; about
    half the draws cross a lower bound over an upper one, emptying the state."""
    s, m = draw(st.sampled_from(_SMALL))
    null = diagnostics._NullCounts(s, m, _SMALL_TAIL)
    span = null.high - null.low
    n = span.size
    fractions = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    reach = draw(st.sampled_from([0.5, 1.0]))
    lower = null.low + np.floor(reach * np.array(draw(fractions)) * span)
    upper = null.high - np.floor(reach * np.array(draw(fractions)) * span)
    return s, m, lower, upper


@settings(max_examples=150, deadline=None)
@given(_bounds_in_range())
def test_coverage_equals_frozen_recursion_at_drawn_bounds(drawn):
    s, m, lower, upper = drawn
    null = diagnostics._NullCounts(s, m, _SMALL_TAIL)
    got, want = null.coverage(lower, upper), _full_coverage(s, _full_factors(s, m), lower, upper)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("s, m", [(10, None), (50, 19), (400, 99)])
def test_coverage_refuses_bounds_past_the_widest_band(s, m):
    null = diagnostics._NullCounts(s, m, _SMALL_TAIL)
    low, high = null.low.astype(float), null.high.astype(float)
    assert 0.0 < null.coverage(low, high) <= 1.0
    for j in (0, low.size // 2, low.size - 1):
        if low[j] > 0:
            with pytest.raises(ValueError):
                null.coverage(np.where(np.arange(low.size) == j, low - 1, low), high)
        if high[j] < s:
            with pytest.raises(ValueError):
                null.coverage(low, np.where(np.arange(low.size) == j, high + 1, high))


def test_null_counts_memory_at_large_s():
    # numpy reports its buffers to tracemalloc; whole (100, S + 1) tables
    # came to about 470 MB here
    import tracemalloc

    tracemalloc.start()
    try:
        diagnostics._NullCounts(100_000, 999, 0.05 / 100 / 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


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
