"""Posterior approximators against conjugate oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from simflow import (
    AbcRejection,
    BetaBinomial,
    BudgetError,
    CapabilityError,
    Dataset,
    ExactConjugate,
    LogNormalTwoGroup,
    NormalNormal,
    PerturbedConjugate,
    PoissonGamma,
    RandomWalkMetropolis,
    abc_rejection,
    acceptance_curve,
    rwm_sample,
    substream,
)
from simflow.approximators import _nearest
from simflow.simtest import mean_stat, sample_sum


def _one_obs(model, value):
    return Dataset(np.array([[float(value)]]))


def test_exact_mean_matches_beta_posterior():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    draws = ExactConjugate().approximate(model, y, substream(0, 0), m=100_000)
    vals = draws.values[:, 0]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 4.0 / 12.0) < 3 * se


@pytest.mark.parametrize("name", ["normal-normal", "beta-binomial", "poisson-gamma"])
def test_exact_draws_ks_against_analytic(name):
    from simflow import make_model

    model = make_model(name)
    rng = substream(41, 0)
    theta = model.sample_prior(rng, 1)[0]
    y = model.simulate_data(theta, rng)
    draws = ExactConjugate().approximate(model, y, substream(41, 1), m=10_000)
    direct = model.analytic_posterior(y).sample(substream(41, 2), 10_000)
    ks = stats.ks_2samp(draws.values[:, 0], direct)
    assert ks.pvalue > 0.01


def test_perturbed_mean_shift_understates():
    # positive mean_shift simulates an approximator that understates the
    # target by that many posterior sds; the shift is subtracted
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.7]), substream(42, 0))
    post = model.analytic_posterior(y)
    draws = PerturbedConjugate(mean_shift=0.5).approximate(
        model, y, substream(42, 1), m=50_000
    )
    vals = draws.values[:, 0]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - (post.mean() - 0.5 * post.sd())) < 4 * se


def test_perturbed_sd_scale():
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.7]), substream(43, 0))
    post = model.analytic_posterior(y)
    draws = PerturbedConjugate(sd_scale=0.5).approximate(
        model, y, substream(43, 1), m=50_000
    )
    sd = draws.values[:, 0].std(ddof=1)
    assert sd == pytest.approx(0.5 * post.sd(), rel=0.03)
    with pytest.raises(ValueError):
        PerturbedConjugate(sd_scale=0.0)


def test_rwm_pooled_mean_and_quantiles():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=1)
    y = _one_obs(model, 1.0)
    result = rwm_sample(model, y, substream(44, 0), chains=4, iterations=6000,
                        warmup=1000, step_sd=0.8)
    vals = result.draws.values[:, 0]
    assert abs(vals.mean() - 0.5) < 0.02
    post = model.analytic_posterior(y)
    qs = np.arange(0.1, 0.95, 0.1)
    got = np.quantile(vals, qs)
    want = post.quantile(qs)
    assert np.max(np.abs(got - want)) < 0.03
    assert 0.0 < result.acceptance_rate < 1.0


def test_rwm_logit_beta_posterior_mean():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    draws = RandomWalkMetropolis(chains=4, warmup=500, step_sd=0.8).approximate(
        model, y, substream(45, 0), m=8000
    )
    assert abs(draws.values[:, 0].mean() - 1.0 / 3.0) < 0.02


def test_rwm_tiny_step_warns_and_barely_moves():
    model = NormalNormal(n_obs=5)
    y = model.simulate_data(np.array([0.0]), substream(46, 0))
    with pytest.warns(RuntimeWarning, match="acceptance rate"):
        result = rwm_sample(model, y, substream(46, 1), chains=2, iterations=600,
                            warmup=100, step_sd=1e-6)
    assert result.acceptance_rate > 0.95
    # chains start dispersed; with a tiny step each one stays near its start
    vals = result.draws.values[:, 0]
    assert np.ptp(vals[::2]) < 0.001 and np.ptp(vals[1::2]) < 0.001


@pytest.mark.filterwarnings("ignore:acceptance rate")
@pytest.mark.parametrize("approx", [
    ExactConjugate(), PerturbedConjugate(mean_shift=0.3, sd_scale=0.7),
    RandomWalkMetropolis(chains=3, warmup=4, step_sd=0.6),
    AbcRejection(mean_stat, acceptance_quantile=0.2, max_proposals=200),
], ids=["exact", "perturbed", "rwm", "abc"])
@pytest.mark.parametrize("model", [NormalNormal(n_obs=4), BetaBinomial(n_trials=6, n_obs=3),
                                   PoissonGamma(n_obs=3)], ids=["nn", "bb", "pg"])
def test_block_draws_equal_each_rows_draws(model, approx):
    # row i of a block's (k, m, d) draws is approximate's draws given dataset
    # i on stream i
    from simflow.rng import row_streams

    k, m = 5, 8
    obs = model.simulate_batch(model.sample_prior(substream(3, 0), k), substream(3, 1))
    got = approx.approximate_block(model, obs, None, row_streams(4, 0, k), m)
    assert got.shape == (k, m, 1)
    for i in range(k):
        want = approx.approximate(model, Dataset(obs[i]), substream(4, 0, i), m=m).values
        np.testing.assert_array_equal(got[i], want)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_block_draws_refuse_non_finite_values():
    # as approximate's ParamDraws refuses them for one dataset
    from simflow.rng import row_streams

    class Blown(NormalNormal):
        def from_unconstrained_batch(self, z):
            return np.asarray(z) * np.inf

    wide = NormalNormal(tau0=10.0, sigma=10.0, n_obs=1)
    for approx, model in [(PerturbedConjugate(mean_shift=1e308), wide),
                          (RandomWalkMetropolis(chains=2, warmup=1), Blown(n_obs=1))]:
        obs = model.simulate_batch(np.zeros((3, 1)), substream(5, 0))
        with pytest.raises(ValueError, match="finite"):
            approx.approximate_block(model, obs, None, row_streams(5, 0, 3), 4)


def test_rwm_refuses_truncated_or_meaningless_settings():
    # 2.7 chains ran 2, True ran 1, and an infinite step accepts no proposal
    for settings_ in ({"chains": 2.7}, {"chains": True}, {"warmup": 2.5}, {"warmup": False},
                      {"step_sd": float("inf")}, {"step_sd": float("nan")}):
        with pytest.raises(ValueError):
            RandomWalkMetropolis(**settings_)
    assert RandomWalkMetropolis(chains=2.0, warmup=3.0).chains == 2


def test_rwm_requires_densities():
    model = LogNormalTwoGroup()
    y = model.simulate_data(np.array([2.0, 2.0]), substream(47, 0))
    with pytest.raises(CapabilityError):
        rwm_sample(model, y, substream(47, 1))


def test_rwm_validation():
    model = NormalNormal(n_obs=5)
    y = model.simulate_data(np.array([0.0]), substream(48, 0))
    with pytest.raises(ValueError):
        rwm_sample(model, y, substream(48, 1), iterations=100, warmup=100)
    with pytest.raises(ValueError):
        rwm_sample(model, y, substream(48, 1), step_sd=0.0)


def test_abc_zero_tolerance_recovers_beta_posterior():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    result = abc_rejection(model, y, sample_sum, substream(50, 0), m=2000,
                           tolerance=0.0, max_proposals=100_000)
    vals = result.draws.values[:, 0]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 4.0 / 12.0) < 3 * se
    assert 0.0 < result.acceptance_rate < 1.0


def test_abc_infinite_tolerance_recovers_prior():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    result = abc_rejection(model, y, sample_sum, substream(51, 0), m=20_000,
                           tolerance=np.inf, max_proposals=50_000)
    vals = result.draws.values[:, 0]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) < 3 * se


def test_abc_small_tolerance_near_conjugate_posterior():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=10)
    y = model.simulate_data(np.array([0.8]), substream(52, 0))
    eps = 0.01 * 1.0 / np.sqrt(10)
    result = abc_rejection(model, y, mean_stat, substream(52, 1), m=300,
                           tolerance=eps, max_proposals=600_000, batch_size=50_000)
    post_mean = model.analytic_posterior(y).mean()
    assert abs(result.draws.values[:, 0].mean() - post_mean) < 0.05


def test_abc_budget_error_diagnostics():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    with pytest.raises(BudgetError) as exc:
        abc_rejection(model, y, sample_sum, substream(53, 0), m=5000,
                      tolerance=0.0, max_proposals=2000, batch_size=1000)
    diag = exc.value.diagnostics
    assert diag["proposals_used"] == 2000
    assert 0.0 <= diag["acceptance_rate"] <= 1.0


def test_abc_quantile_mode():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    result = abc_rejection(model, y, sample_sum, substream(54, 0), m=50,
                           acceptance_quantile=0.01, max_proposals=10_000)
    assert result.draws.m == 50
    assert result.threshold >= 0.0
    with pytest.raises(BudgetError):
        abc_rejection(model, y, sample_sum, substream(54, 1), m=200,
                      acceptance_quantile=0.01, max_proposals=10_000)


# Distances as count-distance gives them (small integers, many ties), any
# float, or NaN, which sorts last.
_distances = st.lists(st.one_of(st.integers(0, 5).map(float),
                                st.floats(allow_nan=False, width=32),
                                st.just(np.nan)), min_size=1, max_size=300)


@settings(max_examples=400, deadline=None)
@given(d=_distances, data=st.data())
@example(d=[2.0, np.nan, np.nan, 1.0, np.nan], data=None)  # more NaNs than len - n_keep
@example(d=[3.0, 1.0, 1.0, 0.0, 1.0], data=None)
def test_nearest_equals_stable_argsort_prefix(d, data):
    d = np.array(d)
    keeps = [1, d.size, max(1, d.size - 1), (d.size + 1) // 2]
    if data is not None:
        keeps.append(data.draw(st.integers(1, d.size)))
    for n_keep in keeps:
        assert np.array_equal(_nearest(d, n_keep), np.argsort(d, kind="stable")[:n_keep])


def test_abc_mode_selection_validation():
    model = BetaBinomial()
    y = _one_obs(model, 3.0)
    with pytest.raises(ValueError):
        abc_rejection(model, y, sample_sum, substream(0, 0), m=10)
    with pytest.raises(ValueError):
        abc_rejection(model, y, sample_sum, substream(0, 0), m=10,
                      tolerance=0.0, acceptance_quantile=0.1)
    with pytest.raises(ValueError):
        abc_rejection(model, y, mean_stat, substream(0, 0), m=0, tolerance=1.0)


def test_acceptance_rate_monotone_in_tolerance():
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.0]), substream(55, 0))
    eps = np.array([0.01, 0.05, 0.1, 0.5, 1.0, 2.0])
    rates = acceptance_curve(model, y, mean_stat, eps, 20_000, substream(55, 1))
    assert np.all(np.diff(rates) >= 0)
    assert rates[-1] <= 1.0


def test_abc_approximator_wrapper():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = _one_obs(model, 3.0)
    approx = AbcRejection(sample_sum, tolerance=0.0, max_proposals=100_000)
    draws = approx.approximate(model, y, substream(56, 0), m=500)
    assert draws.m == 500
    assert draws.info["mode"] == "tolerance"


def test_abc_quantile_proposals_hold_no_dataset_matrix():
    # 2e5 proposals of 20 observations are 30.5 MiB as one (S, n) matrix;
    # only the proposals and their distances need to be held
    model = NormalNormal(n_obs=20)
    y = model.simulate_data(np.array([0.3]), substream(56, 0))
    tracemalloc.start()
    try:
        result = abc_rejection(model, y, mean_stat, substream(57, 0), m=100,
                               acceptance_quantile=0.001, max_proposals=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.draws.m == 100 and result.proposals_used == 200_000
    assert peak < 16 * 2**20
