"""Null simulation, rank p-values, and simulation-based tests."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from simflow import (
    DISTANCE_REGISTRY,
    STATISTIC_REGISTRY,
    AnalyticZTest,
    Dataset,
    LogNormalTwoGroup,
    NormalNormal,
    PoissonGamma,
    PValueSet,
    SimulationTest,
    SummaryStatistic,
    critical_value,
    param_target,
    power_analysis,
    rank_pvalues,
    simulate_null,
    simulation_pvalue,
    substream,
    uniformity_test,
)
from simflow import rng, simtest
from simflow.errors import RetryError
from simflow.simtest import SIDES, lag1_autocorr, mean_stat, pooled_t


def test_constant_statistic_null():
    const = SummaryStatistic("const", "data", lambda obs, labels: np.ones(obs.shape[0]))
    model = NormalNormal(n_obs=5)
    null = simulate_null(model, [0.0], const, s=500, seed=1)
    assert np.all(null.values == 1.0)
    assert null.n_resampled == 0


def test_null_sd_matches_sampling_theory():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=100)
    null = simulate_null(model, [0.0], mean_stat, s=10_000, seed=3)
    assert null.values.std(ddof=1) == pytest.approx(0.1, rel=0.05)
    assert abs(null.values.mean()) < 0.005


def test_simulate_null_requires_data_statistic():
    with pytest.raises(ValueError):
        simulate_null(NormalNormal(n_obs=5), [0.0], param_target(0), s=10, seed=0)


def test_simulate_null_deterministic():
    model = NormalNormal(n_obs=10)
    a = simulate_null(model, [0.3], mean_stat, s=300, seed=8)
    b = simulate_null(model, [0.3], mean_stat, s=300, seed=8)
    assert np.array_equal(a.values, b.values)


def test_simulation_pvalue_trivial_cases():
    rng = substream(0, 0)
    null = np.array([1.0, 2.0, 3.0, 4.0])
    assert simulation_pvalue(2.5, null, "lower", rng) == 0.5
    assert simulation_pvalue(0.5, null, "lower", rng) == 0.0
    assert simulation_pvalue(5.0, null, "lower", rng) == 1.0
    assert simulation_pvalue(1.5, null, "two_sided", rng) == 0.5
    assert simulation_pvalue(5.0, null, "two_sided", rng) == 0.0
    with pytest.raises(ValueError):
        simulation_pvalue(1.0, null, "both", rng)


def test_tie_handling_splits_exactly():
    null = np.full(101, 3.0)
    p_lo = simulation_pvalue(3.0, null, "lower", substream(5, 0))
    p_hi = simulation_pvalue(3.0, null, "upper", substream(5, 0))
    assert p_lo + p_hi == 1.0
    assert 0.0 < p_lo < 1.0


@settings(max_examples=30, deadline=None)
@given(observed=st.lists(st.sampled_from([-np.inf, 0.0, 1.0, 1.5, 2.0, 7.0, np.inf, np.nan]),
                         min_size=2, max_size=12),
       null=st.lists(st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 2.0, 3.0, np.inf]),
                     min_size=1, max_size=30),
       side=st.sampled_from(SIDES), seed=st.integers(0, 2**32))
def test_block_ranks_equal_one_observation_at_a_time(observed, null, side, seed):
    # one searchsorted pass over a sorted copy gives each row's one-value
    # p-value, tie coin and stream use included; the null keeps its order
    null = np.array(null)
    before = null.copy()
    block_rows = [substream(seed, i) for i in range(len(observed))]
    got = rank_pvalues(np.array(observed), null, side, block_rows)
    assert np.array_equal(null, before)
    rows = [substream(seed, i) for i in range(len(observed))]
    want = [simulation_pvalue(o, null, side, rng) for o, rng in zip(observed, rows)]
    np.testing.assert_array_equal(got, want)
    assert [r.random() for r in block_rows] == [r.random() for r in rows]


@pytest.mark.parametrize("side", SIDES)
def test_undefined_statistic_has_no_pvalue(side):
    # a NaN statistic is not below every null draw: its p-value is NaN, and
    # it draws no tie coin
    null = np.array([1.0, 2.0, 2.0, 3.0])
    rng = substream(5, 0)
    assert np.isnan(simulation_pvalue(np.nan, null, side, rng))
    assert rng.random() == substream(5, 0).random()
    ranks = rank_pvalues([np.nan, 0.5], null, side, [substream(5, 1), substream(5, 2)])
    assert np.isnan(ranks[0]) and ranks[1] == simulation_pvalue(0.5, null, side, rng)


@pytest.mark.filterwarnings("ignore:1 null draws resampled")
@pytest.mark.parametrize("side", SIDES)
def test_power_does_not_reject_an_undefined_statistic(side):
    # at theta* = 1e-9 every dataset is all zeros, whose lag-1 autocorrelation
    # is 0/0 (it counted as a rejection on the lower and two-sided tests)
    model = PoissonGamma(a=3.0, b=1.0, n_obs=4)
    test = SimulationTest(model, [3.0], lag1_autocorr, side=side, s=200, seed=1)
    assert np.isnan(test.pvalue(Dataset(np.zeros(4)), substream(0, 0)))
    result = power_analysis(model, [1e-9], test, alpha=0.5, s=50, seed=0)
    assert result.n_rejections == 0 and result.power == 0.0


def test_pooled_t_null_is_not_student_t_for_lognormal():
    model = LogNormalTwoGroup(sigma=2.0, n_per_group=40)
    null = simulate_null(model, [2.0, 2.0], pooled_t, s=10_000, seed=0)
    ks = stats.kstest(null.values, stats.t(df=78).cdf)
    assert ks.pvalue < 0.001


@pytest.mark.parametrize("name", ["mean-diff", "pooled-t", "variance-ratio"])
def test_two_group_statistic_of_a_block_equals_blocks_of_one(name):
    # lognormal values in interleaved groups, so a group's columns are not adjacent
    rng = np.random.default_rng(5)
    obs = np.exp(rng.normal(size=(500, 80)))
    labels = np.arange(80) % 2
    fn = STATISTIC_REGISTRY[name].fn
    block = fn(obs, labels)
    ones = np.concatenate([fn(obs[i:i + 1], labels) for i in range(obs.shape[0])])
    assert block.tobytes() == ones.tobytes()


@pytest.mark.parametrize("statistic", [*STATISTIC_REGISTRY.values(), *DISTANCE_REGISTRY.values()],
                         ids=[*STATISTIC_REGISTRY, *DISTANCE_REGISTRY])
def test_statistic_of_a_block_equals_blocks_of_one(statistic):
    # k values for a (k, n) block, bit for bit those of k blocks of one and
    # of each row's own Dataset
    rng = np.random.default_rng(9)
    obs = np.exp(rng.normal(size=(300, 40)))
    labels = np.arange(40) % 2
    block = statistic.fn(obs, labels)
    assert block.shape == (300,)
    ones = np.concatenate([statistic.fn(obs[i:i + 1], labels) for i in range(300)])
    assert block.tobytes() == ones.tobytes()
    assert block.tolist() == [statistic.on_data(Dataset(row, labels)) for row in obs]


def _exact_sd(values: np.ndarray) -> float:
    """The sample sd (ddof 1) in rational arithmetic, rounded once at the end."""
    scale = Fraction(float(np.abs(values).max()))
    exact = [Fraction(float(v)) / scale for v in values]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    return math.sqrt(var) * float(scale)


def _exact_mean(values: np.ndarray) -> float:
    """The mean in rational arithmetic, rounded once at the end."""
    return float(sum(Fraction(float(v)) for v in values) / len(values))


@pytest.mark.parametrize("scale", [1.0, 1e307])
def test_null_mean_of_draws_whose_sum_overflows(scale, recwarn):
    # draws near 4e307 sum past the float limit: null_mean was Infinity,
    # with "overflow encountered in reduce"; an ordinary null keeps
    # np.mean's bytes
    big = SummaryStatistic("big-mean", "data",
                           lambda obs, labels: (obs.mean(axis=1) + 4.0) * scale)
    test = SimulationTest(NormalNormal(n_obs=4), [0.0], big, s=2000, seed=3)
    mean = test.report(Dataset(np.zeros(4))).null_mean
    assert not recwarn.list
    assert mean == pytest.approx(_exact_mean(test.null.values), rel=1e-12)
    if scale == 1.0:
        assert mean == test.null.values.mean()


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_null_sd_of_draws_whose_squares_overflow(scale, recwarn):
    # the squared deviations of draws near 1e300 overflow: null_sd was
    # Infinity, with "overflow encountered in square"; an ordinary null keeps
    # np.std's bytes
    big = SummaryStatistic("big-mean", "data", lambda obs, labels: obs.mean(axis=1) * scale)
    test = SimulationTest(NormalNormal(n_obs=4), [0.0], big, s=2000, seed=3)
    sd = test.report(Dataset(np.zeros(4))).null_sd
    assert not recwarn.list
    assert sd == pytest.approx(_exact_sd(test.null.values), rel=1e-12)
    if scale == 1.0:
        assert sd == test.null.values.std(ddof=1)


def test_critical_values_on_integer_grid():
    v = np.arange(1.0, 101.0)
    assert critical_value(v, 0.05, "lower") == pytest.approx(5.95)
    assert critical_value(v, 0.5, "lower") == pytest.approx(50.5)
    lo, hi = critical_value(v, 0.05, "two_sided")
    assert lo < hi
    assert lo == pytest.approx(np.quantile(v, 0.025))
    # tighter alpha pushes the upper critical value out
    assert critical_value(v, 0.01, "upper") > critical_value(v, 0.1, "upper")
    with pytest.raises(ValueError):
        critical_value(v, 0.0, "upper")
    with pytest.raises(ValueError):
        critical_value(v, 0.05, "middle")


def test_pvalue_and_critical_value_agree():
    rng = substream(17, 0)
    null = rng.normal(size=2000)
    obs = rng.normal(size=200)
    alpha = 0.05
    crit = critical_value(null, alpha, "upper")
    disagreements = 0
    for i, o in enumerate(obs):
        p = simulation_pvalue(o, null, "upper", substream(17, 1, i))
        if (p <= alpha) != (o > crit):
            disagreements += 1
    # type-7 interpolation leaves a sliver between the two rules
    assert disagreements <= 1


def test_pvalue_mc_error_shrinks_with_null_size():
    model = NormalNormal(n_obs=10)

    def pvals(s, base):
        out = []
        for r in range(300):
            null = simulate_null(model, [0.0], mean_stat, s=s, seed=base + r)
            out.append(simulation_pvalue(0.1, null.values, "lower",
                                         substream(base + r, 9)))
        return np.array(out)

    sd_small = pvals(200, 1000).std(ddof=1)
    sd_large = pvals(800, 5000).std(ddof=1)
    ratio = sd_small / sd_large
    assert 1.6 < ratio < 2.6


def test_shared_null_gives_uniform_pvalues():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=20)
    theta0 = np.array([0.2])
    test = SimulationTest(model, theta0, mean_stat, side="lower", s=2000, seed=7)
    ps = np.empty(1000)
    for i in range(1000):
        rng = substream(7, 2, i)
        y = model.simulate_data(theta0, rng)
        ps[i] = test.pvalue(y, rng)
    verdict = uniformity_test(PValueSet(ps, granularity=2000))
    assert verdict.chi2_pvalue > 0.001


def _flaky_mean(obs, labels):
    # undefined whenever the sample mean is large; rare enough that retries
    # clear it, common enough to trigger at s=400
    m = obs.mean(axis=1)
    return np.where(m < 0.52, m, np.nan)


flaky = SummaryStatistic("flaky-mean", "data", _flaky_mean)


def test_simulate_null_resamples_undefined_draws():
    model = NormalNormal(n_obs=10)
    with pytest.warns(RuntimeWarning, match="resampled"):
        null = simulate_null(model, [0.0], flaky, s=400, seed=2)
    assert null.n_resampled > 0
    assert np.all(np.isfinite(null.values))


def test_simulate_null_chunk_and_retry_streams():
    # three chunks, the last one short; chunk c draws from (root, 0, c) and
    # its retry a from (root, 0, c, a), where root comes from the seed's stream
    chunk, n = 16_384, 10
    s = 2 * chunk + 3
    with pytest.warns(RuntimeWarning, match="resampled"):
        null = simulate_null(NormalNormal(n_obs=n), [0.0], flaky, s=s, seed=2)
    root = int(substream(2).integers(0, 2**63 - 1))
    ref, n_resampled, max_attempt = [], 0, 0
    for c, lo in enumerate(range(0, s, chunk)):
        vals = _flaky_mean(substream(root, 0, c).standard_normal((min(chunk, s - lo), n)),
                           None)
        attempt = 0
        while not np.isfinite(vals).all():
            attempt += 1
            bad = ~np.isfinite(vals)
            n_resampled += int(bad.sum())
            redo = substream(root, 0, c, attempt).standard_normal((int(bad.sum()), n))
            vals[bad] = _flaky_mean(redo, None)
        max_attempt = max(max_attempt, attempt)
        ref.append(vals)
    assert max_attempt >= 2
    assert null.n_resampled == n_resampled
    np.testing.assert_array_equal(null.values, np.concatenate(ref))


# defined on about 31% of draws, so a chunk of a few rows often stays
# undefined after every retry, and its RetryError counts its own rows
rarely_defined = SummaryStatistic(
    "rarely-defined", "data",
    lambda obs, labels: np.where(obs[:, 0] < -0.5, obs.mean(axis=1), np.nan))


@pytest.mark.filterwarnings("ignore:.* null draws resampled")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), data=st.data())
def test_simulate_null_is_the_same_on_any_number_of_threads(seed, size, data):
    # one to four chunks: the values and resample count, or the RetryError
    # of the lowest failing chunk, whatever the worker count
    s = data.draw(st.integers(1, 4 * size), label="s")
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simtest, "_SIM_CHUNK", size)
        for workers in (1, 2, 3, 4):
            mp.setattr(rng, "usable_cpus", lambda w=workers: w)
            try:
                null = simulate_null(NormalNormal(n_obs=2), [0.0], rarely_defined, s, seed)
                outcomes.append((null.values.tobytes(), null.n_resampled))
            except RetryError as exc:
                outcomes.append(str(exc))
    assert outcomes == outcomes[:1] * 4


def test_null_chunks_keep_the_callers_errstate(monkeypatch):
    # a statistic that divides by zero, on two threads: the caller's
    # errstate holds in both, so nothing warns
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)
    reciprocal = SummaryStatistic(
        "exp-reciprocal", "data",
        lambda obs, labels: np.exp(-1.0 / np.zeros(obs.shape[0])) + obs.mean(axis=1))
    with warnings.catch_warnings(), np.errstate(divide="ignore"):
        warnings.simplefilter("error")
        null = simulate_null(NormalNormal(n_obs=2), [0.0], reciprocal, 3 * 16_384, seed=4)
    assert null.n_resampled == 0 and np.isfinite(null.values).all()


def test_a_null_dataset_that_is_not_finite_raises_instead_of_resampling():
    # exp(800) overflows every dataset: the null resampled them, then
    # failed on its retry cap with overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="simulated observations that are not finite") \
                as caught:
            simulate_null(LogNormalTwoGroup(n_per_group=2), [800.0, 0.0],
                          STATISTIC_REGISTRY["mean-diff"], s=50, seed=0)
    assert caught.type is RuntimeError


@pytest.mark.parametrize("name", ["pooled-t", "variance-ratio"])
def test_scale_free_statistics_keep_their_value_where_a_variance_overflows(name):
    # values near 1e304 overflowed the squared deviations: pooled-t read 0
    # for every such dataset, with "overflow encountered in square"
    statistic = STATISTIC_REGISTRY[name]
    obs = substream(3, 0).standard_normal((4, 6)) + 2.0
    labels = np.repeat([0, 1], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (400, 600, 1009):
            np.testing.assert_array_equal(statistic.fn(np.ldexp(obs, k), labels),
                                          statistic.fn(obs, labels))


def test_simulate_null_retry_cap():
    broken = SummaryStatistic("never", "data",
                              lambda obs, labels: np.full(obs.shape[0], np.nan))
    with pytest.raises(RetryError):
        simulate_null(NormalNormal(n_obs=5), [0.0], broken, s=50, seed=0)


def test_run_test_report_shape():
    model = NormalNormal(n_obs=30)
    y = model.simulate_data(np.array([0.0]), substream(12, 0))
    report = SimulationTest(model, [0.0], mean_stat, side="two_sided", s=4000, seed=1,
                            n_obs=y.n_obs).report(y)
    assert report.statistic == "mean"
    assert report.side == "two_sided"
    assert 0.0 <= report.pvalue <= 1.0
    assert report.s == 4000
    assert isinstance(report.critical_values[0.05], tuple)
    assert "2*min" in report.metadata["two_sided_rule"]
    assert set(report.null_quantiles) == {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(2, 5000), side=st.sampled_from(SIDES),
       discrete=st.booleans(),
       alphas=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4, unique=True))
def test_report_quantiles_equal_one_call_per_probability(seed, s, side, discrete, alphas):
    # poisson-gamma with two observations gives a null with many ties
    model, theta0 = (PoissonGamma(n_obs=2), [1.5]) if discrete else (NormalNormal(n_obs=5), [0.2])
    y = model.simulate_data(np.array(theta0), substream(seed, 1))
    test = SimulationTest(model, theta0, mean_stat, side=side, s=s, seed=seed)
    report = test.report(y, alphas=alphas)
    v = test.null.values

    def q(p):
        return float(np.quantile(v, p))

    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
    assert list(report.null_quantiles) == list(qs)
    assert bits(list(report.null_quantiles.values())) == bits([q(p) for p in qs])
    assert list(report.critical_values) == alphas
    for alpha, crit in report.critical_values.items():
        want = {"lower": q(alpha), "upper": q(1.0 - alpha),
                "two_sided": (q(alpha / 2.0), q(1.0 - alpha / 2.0))}[side]
        assert type(crit) is type(want)
        assert bits(crit) == bits(want)
        assert bits(critical_value(v, alpha, side)) == bits(want)


def test_simulation_test_default_rng_reproducible():
    model = NormalNormal(n_obs=30)
    y = model.simulate_data(np.array([0.0]), substream(13, 0))
    t1 = SimulationTest(model, [0.0], mean_stat, side="lower", s=1000, seed=4)
    t2 = SimulationTest(model, [0.0], mean_stat, side="lower", s=1000, seed=4)
    assert t1.pvalue(y) == t2.pvalue(y)
    with pytest.raises(ValueError):
        SimulationTest(model, [0.0], mean_stat, side="sideways", s=100)


def test_analytic_z_test_sides():
    model = NormalNormal(n_obs=25)
    y = model.simulate_data(np.array([0.8]), substream(14, 0))
    z = (y.observations.mean() - 0.0) * 5.0
    upper = AnalyticZTest(0.0, 1.0, side="upper").pvalue(y)
    lower = AnalyticZTest(0.0, 1.0, side="lower").pvalue(y)
    two = AnalyticZTest(0.0, 1.0, side="two_sided").pvalue(y)
    assert upper == pytest.approx(stats.norm.sf(z))
    assert upper + lower == pytest.approx(1.0)
    assert two == pytest.approx(2 * stats.norm.sf(abs(z)))
    with pytest.raises(ValueError):
        AnalyticZTest(0.0, 1.0, side="diagonal")
    for sigma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            AnalyticZTest(0.0, sigma)


def test_registries_complete():
    assert set(STATISTIC_REGISTRY) == {
        "mean", "mean-diff", "pooled-t", "variance-ratio", "max", "lag1-autocorr"
    }
    assert set(DISTANCE_REGISTRY) == {"mean-distance", "count-distance"}
