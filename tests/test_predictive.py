"""Predictive checks and posterior calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from simflow import (
    Approximator,
    BetaBinomial,
    Dataset,
    ExactConjugate,
    LogNormalTwoGroup,
    NormalNormal,
    ParamDraws,
    PerturbedConjugate,
    PoissonGamma,
    SbcConfig,
    frequentist_predictive_check,
    posterior_predictive_sample,
    prior_pushforward_check,
    run_ppc,
    run_posterior_sbc,
    run_sbc,
    simulation_pvalue,
    substream,
)
from simflow.compare import power_scale_weights
from simflow.models import SummaryStatistic, _count, simulate_statistic
from simflow.rng import as_generator
from simflow.simtest import lag1_autocorr, mean_stat, sample_max

T0 = "theta[0]"

variance_stat = SummaryStatistic("variance", "data",
                                 lambda obs, labels: obs.var(axis=1, ddof=1))


class PointMass(Approximator):
    """Degenerate posterior at a fixed parameter value."""

    name = "point-mass"
    kind = "degenerate"

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float).reshape(-1)

    def approximate(self, model, y, rng, m):
        m = _count("m", m)
        return ParamDraws(np.tile(self.theta, (m, 1)), source=self.name)


class Jitter(Approximator):
    """Normal draws around the dataset's mean, defined for one dataset only."""

    name = kind = "jitter"

    def approximate(self, model, y, rng, m):
        noise = as_generator(rng).standard_normal((m, 1))
        return ParamDraws(y.observations.mean() + 0.5 * noise, source=self.kind)


class BlockJitter(Approximator):
    """Jitter's draws, defined for a block of datasets only."""

    name = kind = "jitter"

    def approximate_block(self, model, obs, labels, rows, m):
        noise = rows.standard_normal((len(rows), m, 1))
        return obs.mean(axis=1)[:, None, None] + 0.5 * noise


def test_pushforward_wide_region_is_certain():
    model = NormalNormal(n_obs=10)
    result = prior_pushforward_check(model, mean_stat, (-1e9, 1e9), s=500, seed=0)
    assert result.fraction_in_region == 1.0


def test_pushforward_count_support():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=20)
    inside = prior_pushforward_check(model, mean_stat, (0.0, 20.0), s=400, seed=1)
    outside = prior_pushforward_check(model, mean_stat, (21.0, 22.0), s=400, seed=1)
    assert inside.fraction_in_region == 1.0
    assert outside.fraction_in_region == 0.0
    with pytest.raises(ValueError):
        prior_pushforward_check(model, mean_stat, (3.0, 1.0), s=10)


def test_pushforward_matches_marginal_gaussian():
    # data mean is marginally normal with variance tau0^2 + sigma^2/n
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=10)
    result = prior_pushforward_check(model, mean_stat, (-3.3, 3.3), s=10_000, seed=0)
    assert abs(result.fraction_in_region - 0.99834721228136347) < 0.01


def test_frequentist_check_centered_after_fitting():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=30)
    hits = 0
    for i in range(200):
        y = model.simulate_data(np.array([0.3]), substream(20, 0, i))
        theta_hat = [y.observations.mean()]
        result = frequentist_predictive_check(model, theta_hat, mean_stat, y,
                                              s=200, seed=i)
        if 0.025 <= result.ppp <= 0.975:
            hits += 1
    assert hits >= 180


def test_sample_max_flags_thin_tails():
    # normal replications fitted by moments cannot reproduce lognormal maxima
    gen = LogNormalTwoGroup(sigma=2.0, n_per_group=20)
    flagged = 0
    for i in range(30):
        y = gen.simulate_data(np.array([2.0, 2.0]), substream(21, 0, i))
        obs = y.observations
        fitted = NormalNormal(mu0=0.0, tau0=1.0, sigma=float(obs.std(ddof=1)),
                              n_obs=obs.size)
        y_plain = Dataset(y.observations.copy())
        result = frequentist_predictive_check(fitted, [obs.mean()], sample_max,
                                              y_plain, s=400, seed=i)
        if result.ppp > 0.95:
            flagged += 1
    assert flagged > 15


def test_single_replication_has_no_pvalue():
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.0]), substream(22, 0))
    result = frequentist_predictive_check(model, [0.0], mean_stat, y, s=1, seed=0)
    assert result.replication_stats.size == 1
    assert result.ppp is None


def test_ppp_ranks_among_defined_replications_only():
    # lag1-autocorr is undefined (NaN) on a constant dataset, which four
    # small counts often are; such a replication has no rank, so it is
    # neither below, tied with nor above the observed value
    model = PoissonGamma(a=3.0, b=1.0, n_obs=4)
    y = Dataset(np.array([0.0, 1.0, 0.0, 0.0]))
    result = frequentist_predictive_check(model, [2.0], lag1_autocorr, y, s=200, seed=0)
    rng = substream(0, 0)
    reps = simulate_statistic(model, np.full((200, 1), 2.0), rng, lag1_autocorr, n_obs=4)
    assert np.array_equal(result.replication_stats, reps, equal_nan=True)
    defined = reps[np.isfinite(reps)]
    observed = lag1_autocorr.on_data(y)
    below, ties = int((defined < observed).sum()), int((defined == observed).sum())
    assert 2 <= defined.size < 200 and ties > 0
    assert result.ppp == (below + rng.binomial(ties, 0.5)) / defined.size
    # a rate of 0 gives constant datasets only: no replication is defined
    assert frequentist_predictive_check(model, [0.0], lag1_autocorr, y, s=50).ppp is None


def test_point_mass_ppc_equals_frequentist_check():
    model = NormalNormal(n_obs=25)
    y = model.simulate_data(np.array([0.4]), substream(23, 0))
    theta_hat = [0.4]
    a = run_ppc(model, PointMass(theta_hat), y, mean_stat, s=300, seed=5)
    b = frequentist_predictive_check(model, theta_hat, mean_stat, y, s=300, seed=5)
    assert np.array_equal(a.replication_stats, b.replication_stats)
    assert a.ppp == b.ppp


def test_posterior_predictive_sample_shapes():
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.0]), substream(24, 0))
    draws = ExactConjugate().approximate(model, y, substream(24, 1), m=50)
    reps = posterior_predictive_sample(model, draws, s=3, seed=0, n_obs=5)
    assert len(reps) == 3
    assert all(r.n_obs == 5 for r in reps)
    with pytest.raises(ValueError):
        posterior_predictive_sample(model, draws, s=51, seed=0)


def test_replication_mean_variance_decomposition():
    # var of replicated means = sigma^2/n (noise) + posterior var (parameter)
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=10)
    y = model.simulate_data(np.array([0.6]), substream(25, 0))
    post = model.analytic_posterior(y)
    draws = ExactConjugate().approximate(model, y, substream(25, 1), m=5000)
    reps = posterior_predictive_sample(model, draws, s=5000, seed=2)
    means = np.array([r.observations.mean() for r in reps])
    tau_n2 = post.sd() ** 2
    want = 1.0 / 10 + tau_n2
    assert means.var(ddof=1) == pytest.approx(want, rel=0.10)
    # parameter uncertainty is a visible share, not a rounding term
    assert means.var(ddof=1) - 1.0 / 10 > 0.5 * tau_n2
    # and the replicated means center on the posterior mean
    se = means.std(ddof=1) / np.sqrt(means.size)
    assert abs(means.mean() - post.mean()) < 3 * se


def test_ppp_trivial_cases():
    rng = substream(0, 0)
    reps = np.array([1.0, 2.0, 3.0, 4.0])
    assert simulation_pvalue(0.5, reps, "lower", rng) == 0.0
    assert simulation_pvalue(2.5, reps, "lower", rng) == 0.5
    assert simulation_pvalue(9.0, reps, "lower", rng) == 1.0


def test_ppp_invariant_under_monotone_transform():
    rng = substream(30, 0)
    reps = rng.normal(size=500)
    obs = 0.7
    p1 = simulation_pvalue(obs, reps, "lower", substream(30, 1))
    p2 = simulation_pvalue(np.exp(obs), np.exp(reps), "lower", substream(30, 2))
    assert p1 == p2


def test_ppc_pvalues_rarely_extreme_when_well_specified():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=10)
    approx = ExactConjugate()
    inside = 0
    for i in range(200):
        rng = substream(31, 0, i)
        theta = model.sample_prior(rng, 1)[0]
        y = model.simulate_data(theta, rng)
        result = run_ppc(model, approx, y, variance_stat, s=500, seed=i)
        if 0.05 <= result.ppp <= 0.95:
            inside += 1
    assert inside >= 180


def test_posterior_sbc_exact_passes():
    model = NormalNormal(n_obs=10)
    y_obs = model.simulate_data(np.array([0.5]), substream(100, 0))
    result = run_posterior_sbc(model, ExactConjugate(), y_obs,
                               SbcConfig(s=500, m=99, seed=0))
    assert result.kind == "posterior-sbc"
    assert result.verdicts[T0].chi2_pvalue > 0.001
    assert result.verdicts[T0].ecdf_inside
    assert result.metadata["n_obs"] == 10


def test_posterior_sbc_detects_overconfidence():
    model = NormalNormal(n_obs=10)
    y_obs = model.simulate_data(np.array([0.5]), substream(101, 0))
    result = run_posterior_sbc(model, PerturbedConjugate(sd_scale=0.5), y_obs,
                               SbcConfig(s=300, m=99, seed=0))
    assert result.verdicts[T0].chi2_pvalue < 0.01


def test_posterior_sbc_single_inner_draw():
    model = NormalNormal(n_obs=5)
    y_obs = model.simulate_data(np.array([0.0]), substream(102, 0))
    result = run_posterior_sbc(model, ExactConjugate(), y_obs,
                               SbcConfig(s=40, m=1, seed=0))
    assert set(np.unique(result.pvalues[T0].values)) <= {0.0, 1.0}


def test_posterior_sbc_empty_data_reduces_to_prior_sbc():
    model = NormalNormal(n_obs=10)
    empty = Dataset(np.empty(0))
    cond = run_posterior_sbc(model, ExactConjugate(), empty,
                             SbcConfig(s=500, m=19, seed=6))
    plain = run_sbc(model, ExactConjugate(), SbcConfig(s=500, m=19, seed=7))
    ks = stats.ks_2samp(cond.pvalues[T0].values, plain.pvalues[T0].values)
    assert ks.pvalue > 0.01


def test_prior_pushforward_holds_no_dataset_matrix():
    # the 2e5 datasets of 20 observations are 30.5 MiB as one (S, n) matrix;
    # simulated block by block, the check holds one block at a time
    tracemalloc.start()
    try:
        result = prior_pushforward_check(NormalNormal(n_obs=20), mean_stat, (-1.0, 1.0),
                                         s=200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.values.shape == (200_000,)
    assert peak < 16 * 2**20


def test_block_only_approximator_runs_every_pipeline():
    # an approximator that defines only approximate_block draws, in each
    # pipeline, what one that defines only approximate draws
    model = NormalNormal(n_obs=6)
    y = model.simulate_data(np.array([0.3]), substream(30, 0))
    one, block = Jitter(), BlockJitter()
    a, b = (run_ppc(model, approx, y, mean_stat, s=200, seed=6) for approx in (one, block))
    assert np.array_equal(a.replication_stats, b.replication_stats) and a.ppp == b.ppp
    cfg = SbcConfig(s=30, m=9, seed=7)
    for run in (lambda approx: run_posterior_sbc(model, approx, y, cfg),
                lambda approx: run_sbc(model, approx, cfg)):
        a, b = run(one), run(block)
        assert np.array_equal(a.pvalues[T0].values, b.pvalues[T0].values)
    draws = [approx.approximate(model, y, substream(31, 0), m=400) for approx in (one, block)]
    assert draws[1].source == "jitter"
    a, b = (power_scale_weights(model, y, d, alpha_prior=0.5) for d in draws)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.weights, b.weights)


def test_point_mass_runs_sbc():
    # PointMass defines only approximate: theta is ranked above all m draws
    # exactly when it exceeds the point
    model = NormalNormal(n_obs=5)
    result = run_sbc(model, PointMass([0.2]), SbcConfig(s=40, m=9, seed=8))
    thetas = [model.sample_prior(substream(8, 0, i), 1)[0, 0] for i in range(40)]
    np.testing.assert_array_equal(result.pvalues[T0].values, np.greater(thetas, 0.2) * 1.0)
