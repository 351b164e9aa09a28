"""Model contracts: priors, simulators, densities, conjugate posteriors.

Closed-form reference values are frozen at 17 significant digits; they
come from independent scipy computations, not from the code under test.
"""

import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from simflow import (
    MODEL_REGISTRY,
    AnalyticPosterior,
    BetaBinomial,
    CapabilityError,
    Dataset,
    DomainError,
    LogNormalTwoGroup,
    Model,
    NormalNormal,
    PoissonGamma,
    concat_datasets,
    make_model,
    param_target,
    simulate_statistic,
    substream,
)
from simflow import models
from simflow.models import _SIM_CHUNK
from simflow.simtest import STATISTIC_REGISTRY

# independent oracle computations, frozen
NN_LOG_MARGINAL_3OBS = -4.5337127801739623  # y=[0.3,-1.2,0.8], mu0=0, tau0=1, sigma=1
NN_LOG_MARGINAL_1OBS = -1.3880121234846454  # y=0.7
PG_LOG_MARGINAL = -3.5959414584546674       # y=[3,1], a=2, b=1
BB_LOG_MARGINAL_UNIFORM = -2.3978952727983707  # log(1/11)
BB_LOG_MARGINAL_22 = -2.1902559080201249    # a=b=2, n=10, k=3


def _d(values, labels=None):
    return Dataset(np.asarray(values, dtype=float), labels)


# --- priors ----------------------------------------------------------------

def test_prior_mean_uniform_beta():
    model = BetaBinomial(a=1.0, b=1.0)
    draws = model.sample_prior(substream(11, 0), 100_000)[:, 0]
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3 * se


def test_prior_variance_normal():
    model = NormalNormal(mu0=0.0, tau0=1.0)
    draws = model.sample_prior(substream(12, 0), 100_000)[:, 0]
    v = draws.var(ddof=1)
    m4 = ((draws - draws.mean()) ** 4).mean()
    se_var = np.sqrt((m4 - v**2) / draws.size)
    assert abs(v - 1.0) < 3 * se_var


@pytest.mark.parametrize("name", ["normal-normal", "beta-binomial", "poisson-gamma"])
def test_prior_draw_deterministic(name):
    model = make_model(name)
    a = model.sample_prior(substream(3, 0), 1)
    b = model.sample_prior(substream(3, 0), 1)
    assert np.array_equal(a, b)


_LOG_2PI = np.log(2.0 * np.pi)


def _normal_log_prior(t, mu0, tau0):
    return -0.5 * (_LOG_2PI + 2.0 * np.log(tau0)) - (t - mu0) ** 2 / (2.0 * tau0**2)


def _beta_log_prior(t, a, b):
    out = np.full(t.shape, -np.inf)
    ok = (t >= 0.0) & (t <= 1.0)
    tok = t[ok]
    out[ok] = special.xlogy(a - 1.0, tok) + special.xlog1py(b - 1.0, -tok) - special.betaln(a, b)
    return out


def _gamma_log_prior(t, a, b):
    # scipy.stats.gamma(a, scale=1 / b)'s arithmetic, -inf at t <= 0
    out = np.full(t.shape, -np.inf)
    ok = t > 0.0
    z = t[ok] / (1.0 / b)
    out[ok] = special.xlogy(a - 1.0, z) - z - special.gammaln(a) - np.log(1.0 / b)
    return out


# each conjugate model's prior: the model, numpy's draws and the closed-form log density
_PRIORS = {
    "normal-normal": (lambda mu0, tau0: NormalNormal(mu0=mu0, tau0=tau0),
                      lambda rng, n, mu0, tau0: rng.normal(mu0, tau0, (n, 1)),
                      _normal_log_prior),
    "beta-binomial": (lambda a, b: BetaBinomial(a=a, b=b),
                      lambda rng, n, a, b: rng.beta(a, b, (n, 1)),
                      _beta_log_prior),
    "poisson-gamma": (lambda a, b: PoissonGamma(a=a, b=b),
                      lambda rng, n, a, b: rng.gamma(a, 1 / b, (n, 1)),
                      _gamma_log_prior),
}
_HYPER = dict(name=st.sampled_from(sorted(_PRIORS)), loc=st.floats(-1e3, 1e3),
              a=st.floats(1e-2, 1e3), b=st.floats(1e-2, 1e3))


@settings(max_examples=300, deadline=None)
@given(**_HYPER, n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       points=st.lists(st.floats(-1e6, 1e6), max_size=8))
def test_prior_draws_and_density_match_numpy_and_closed_forms(name, loc, a, b, n, seed,
                                                               points):
    # bit for bit, on and off the support
    build, draw, log_density = _PRIORS[name]
    params = (loc, b) if name == "normal-normal" else (a, b)
    model = build(*params)
    draws = model.sample_prior(np.random.default_rng(seed), n)
    assert np.array_equal(draws, draw(np.random.default_rng(seed), n, *params))
    t = np.concatenate([[-1.0, 0.0, 1.0, 2.0, 1e-300], points, draws[:, 0]])
    assert np.array_equal(model.log_prior_batch(t[:, None]), log_density(t, *params))


@settings(max_examples=60, deadline=None)
@given(**_HYPER)
# a prior whose conjugate update by no data is one ulp off in its mean and sd
@example(name="normal-normal", loc=868.0870319124995, a=1.0, b=0.4933888667498591)
def test_log_marginal_of_no_data_is_zero(name, loc, a, b):
    model = _PRIORS[name][0](*((loc, b) if name == "normal-normal" else (a, b)))
    assert model.log_marginal(Dataset.empty()) == 0.0


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_prior_capabilities_follow_the_prior(name):
    model = make_model(name)
    assert model.capabilities.can_sample_prior == (model.prior is not None)
    assert model.capabilities.can_log_prior == (model.prior is not None)


class _Simulator(Model):
    """A model that defines only its simulator."""

    def simulate_batch(self, thetas, rng, n_obs=None):
        return np.zeros((len(thetas), self._n_obs(n_obs)))


class _NoPriorNormal(NormalNormal):
    def __init__(self):
        super().__init__()
        self.prior = None


class _PriorTwoGroup(LogNormalTwoGroup):
    prior = AnalyticPosterior("normal", (0.0, 1.0))


# (sample prior, log prior, log likelihood, analytic posterior)
@pytest.mark.parametrize("model, expected", [
    (NormalNormal(), (True, True, True, True)),
    (BetaBinomial(), (True, True, True, True)),
    (PoissonGamma(), (True, True, True, True)),
    (LogNormalTwoGroup(), (False, False, True, False)),
    (_Simulator(), (False, False, False, False)),
    (_NoPriorNormal(), (False, False, True, True)),
    (_PriorTwoGroup(), (True, True, True, False)),
], ids=["nn", "bb", "pg", "ln", "simulator", "nn-no-prior", "ln-prior"])
def test_capabilities_follow_what_the_model_defines(model, expected):
    assert astuple(model.capabilities) == expected


def test_model_without_prior_refuses_prior_methods():
    model = LogNormalTwoGroup(n_per_group=2)
    y = model.simulate_data(np.array([0.0, 0.0]), substream(0, 0))
    for call in (lambda: model.sample_prior(substream(0, 1), 3),
                 lambda: model.log_prior_batch(np.zeros((3, 2))),
                 lambda: model.log_marginal(y)):
        with pytest.raises(CapabilityError):
            call()


# --- simulators ------------------------------------------------------------

def test_simulate_degenerate_binomial():
    model = BetaBinomial(n_trials=20)
    y = model.simulate_data(np.array([1.0]), substream(4, 0), n_obs=50)
    assert np.all(y.observations == 20.0)


def test_simulate_mean_lln():
    model = NormalNormal(sigma=1.0)
    y = model.simulate_data(np.array([0.0]), substream(5, 0), n_obs=100_000)
    assert abs(y.observations.mean()) < 3 * 10 ** (-5 / 2) * 3


def test_simulate_two_group_shapes():
    model = LogNormalTwoGroup(sigma=2.0, n_per_group=40)
    y = model.simulate_data(np.array([2.0, 2.0]), substream(6, 0))
    assert y.n_obs == 80
    assert np.all(y.observations > 0)
    assert (y.group_labels == 0).sum() == 40
    assert (y.group_labels == 1).sum() == 40


def test_simulate_bit_reproducible():
    model = PoissonGamma()
    a = model.simulate_data(np.array([2.5]), substream(9, 1), n_obs=30)
    b = model.simulate_data(np.array([2.5]), substream(9, 1), n_obs=30)
    assert np.array_equal(a.observations, b.observations)


# --- log-likelihoods --------------------------------------------------------

def test_loglik_binomial_half():
    model = BetaBinomial(n_trials=2)
    assert model.log_likelihood_batch(np.array([[0.5]]), _d([1.0]))[0] == pytest.approx(
        np.log(0.5), abs=1e-12
    )


def test_loglik_standard_normal_at_zero():
    model = NormalNormal(sigma=1.0)
    want = -0.5 * np.log(2 * np.pi)
    assert model.log_likelihood_batch(np.array([[0.0]]), _d([0.0]))[0] == pytest.approx(
        want, abs=1e-12
    )


def test_loglik_poisson_two_zeros():
    model = PoissonGamma()
    assert model.log_likelihood_batch(np.array([[1.0]]), _d([0.0, 0.0]))[0] == pytest.approx(
        -2.0, abs=1e-12
    )


def test_loglik_finite_on_prior_support():
    for name in ("normal-normal", "beta-binomial", "poisson-gamma"):
        model = make_model(name)
        rng = substream(21, 0)
        thetas = model.sample_prior(rng, 100)
        for i in range(thetas.shape[0]):
            y = model.simulate_data(thetas[i], rng)
            assert np.isfinite(model.log_likelihood_batch(thetas[i:i + 1], y)[0])


def test_loglik_two_group_matches_scipy():
    model = LogNormalTwoGroup(sigma=2.0, n_per_group=3)
    y = model.simulate_data(np.array([2.0, 1.0]), substream(22, 0))
    want = 0.0
    for g, mu in ((0, 2.0), (1, 1.0)):
        vals = y.observations[y.group_labels == g]
        want += stats.lognorm.logpdf(vals, s=2.0, scale=np.exp(mu)).sum()
    got = model.log_likelihood_batch(np.array([[2.0, 1.0]]), y)[0]
    assert got == pytest.approx(want, rel=1e-12)


# --- conjugate posteriors ----------------------------------------------------

def test_posterior_beta_update():
    post = BetaBinomial(a=1.0, b=1.0, n_trials=10).analytic_posterior(_d([3.0]))
    assert post.family == "beta"
    assert post.params == (4.0, 8.0)
    assert post.mean() == pytest.approx(4.0 / 12.0, abs=1e-12)


def test_posterior_normal_update():
    post = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0).analytic_posterior(_d([1.0]))
    assert post.family == "normal"
    assert post.mean() == pytest.approx(0.5, abs=1e-12)
    assert post.var() == pytest.approx(0.5, abs=1e-12)


def test_posterior_gamma_update():
    post = PoissonGamma(a=2.0, b=1.0).analytic_posterior(_d([3.0, 1.0]))
    assert post.family == "gamma"
    assert post.params == (6.0, 3.0)
    assert post.mean() == pytest.approx(2.0, abs=1e-12)



_SCIPY_LAWS = {
    "normal": lambda mean, sd: stats.norm(mean, sd),
    "beta": lambda a, b: stats.beta(a, b),
    "gamma": lambda shape, rate: stats.gamma(shape, scale=1.0 / rate),
}


@settings(max_examples=90, deadline=None)
@given(family=st.sampled_from(sorted(_SCIPY_LAWS)), loc=st.floats(-1e3, 1e3),
       a=st.floats(1e-2, 1e3), b=st.floats(1e-2, 1e3), seed=st.integers(0, 2**32 - 1))
# a large shape, where the gamma density written as a * log(b) - gammaln(a) + ...
# cancels to 1.4e-12 off scipy's
@example(family="gamma", loc=0.0, a=769.1316472633226, b=69.5, seed=0)
def test_analytic_posterior_matches_scipy(family, loc, a, b, seed):
    # the closed forms repeat scipy's arithmetic: draws, mean and sd are equal
    # bit for bit, the rest to 1e-12
    params = (loc, b) if family == "normal" else (a, b)
    post = AnalyticPosterior(family, params)
    dist = _SCIPY_LAWS[family](*params)
    want = dist.rvs(size=64, random_state=np.random.default_rng(seed))
    assert np.array_equal(post.sample(np.random.default_rng(seed), 64), want)
    assert post.mean() == dist.mean()
    assert post.sd() == dist.std()
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(post.var(), dist.var(), **close)
    qs = np.array([0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0])
    np.testing.assert_allclose(post.quantile(qs), dist.ppf(qs), **close)
    xs = np.concatenate([dist.ppf([0.01, 0.3, 0.7, 0.99]), [-1.0, 2.0]])
    np.testing.assert_allclose(post.cdf(xs), dist.cdf(xs), **close)
    np.testing.assert_allclose(post.logpdf(xs), dist.logpdf(xs), **close)


def test_analytic_posterior_rejects_invalid_parameters():
    for family, params in [("normal", (0.0, 0.0)), ("beta", (2.0, -1.0)),
                           ("gamma", (0.0, 1.0)), ("normal", (0.0, 1.0, 2.0))]:
        with pytest.raises(DomainError):
            AnalyticPosterior(family, params)
    with pytest.raises(ValueError, match="unknown posterior family"):
        AnalyticPosterior("cauchy", (0.0, 1.0))

# --- analytic marginals -------------------------------------------------------

def test_marginal_uniform_over_counts():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    for k in range(11):
        assert model.log_marginal(_d([float(k)])) == pytest.approx(
            BB_LOG_MARGINAL_UNIFORM, abs=1e-12
        )


def test_marginal_frozen_oracles():
    assert BetaBinomial(a=2.0, b=2.0, n_trials=10).log_marginal(
        _d([3.0])
    ) == pytest.approx(BB_LOG_MARGINAL_22, abs=1e-12)
    assert PoissonGamma(a=2.0, b=1.0).log_marginal(_d([3.0, 1.0])) == pytest.approx(
        PG_LOG_MARGINAL, abs=1e-12
    )
    nn = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0)
    assert nn.log_marginal(_d([0.3, -1.2, 0.8])) == pytest.approx(
        NN_LOG_MARGINAL_3OBS, abs=1e-12
    )
    assert nn.log_marginal(_d([0.7])) == pytest.approx(NN_LOG_MARGINAL_1OBS, abs=1e-12)


def test_prior_predictive_mean_consistency():
    # conjugate-model prior-predictive means against simulation at S=1e5
    cases = [
        (NormalNormal(mu0=0.3), 0.3),
        (BetaBinomial(a=2.0, b=4.0, n_trials=10), 10 * 2.0 / 6.0),
        (PoissonGamma(a=2.0, b=1.0), 2.0),
    ]
    for model, want in cases:
        rng = substream(31, 0)
        thetas = model.sample_prior(rng, 100_000)
        obs = model.simulate_batch(thetas, rng, n_obs=1)[:, 0]
        se = obs.std(ddof=1) / np.sqrt(obs.size)
        assert abs(obs.mean() - want) < 3 * se, model.name


# --- statistics of simulated datasets, block by block --------------------------

_B = _SIM_CHUNK
_ONE_GROUP = ("mean", "max", "lag1-autocorr")
_TWO_GROUP = ("mean-diff", "pooled-t", "variance-ratio")


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from([NormalNormal(n_obs=3), BetaBinomial(a=2.0, b=3.0, n_obs=4),
                              PoissonGamma(n_obs=3), LogNormalTwoGroup(n_per_group=2)]),
       s=st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 3]),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2))
def test_simulate_statistic_equals_one_batch(model, s, seed, pick):
    # blocks drawn one after another from one stream are the rows of one
    # simulate_batch call on all of them, bit for bit, and leave the stream
    # where that call leaves it
    if model.capabilities.can_sample_prior:
        thetas = model.sample_prior(substream(seed, 0), s)
        statistic = STATISTIC_REGISTRY[_ONE_GROUP[pick]]
    else:
        thetas = np.broadcast_to([0.3, -0.2], (s, 2))
        statistic = STATISTIC_REGISTRY[_TWO_GROUP[pick]]
    n = model.n_obs
    whole_rng, block_rng = substream(seed, 1), substream(seed, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        whole = statistic.fn(model.simulate_batch(thetas, whole_rng), model.group_labels(n))
        blocks = simulate_statistic(model, thetas, block_rng, statistic)
    assert blocks.shape == (s,)
    assert np.array_equal(blocks, whole, equal_nan=True)
    assert whole_rng.random() == block_rng.random()


@settings(max_examples=30, deadline=None)
@given(loc=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       sigma=st.floats(1e-3, 1e3), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_normal_kernel_equals_rng_normal(loc, sigma, n, seed):
    model = NormalNormal(sigma=sigma, n_obs=n)
    thetas = np.asarray(loc).reshape(-1, 1)
    got = model.simulate_batch(thetas, substream(seed, 0))
    want = substream(seed, 0).normal(thetas, sigma, size=(thetas.shape[0], n))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       lam=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
       n_trials=st.integers(1, 200), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_count_kernels_equal_broadcast_parameters(p, lam, n_trials, n, seed):
    # a (k, 1) parameter column with a size draws what the broadcast (k, n)
    # parameter array draws
    p, lam = np.asarray(p).reshape(-1, 1), np.asarray(lam).reshape(-1, 1)
    got = BetaBinomial(n_trials=n_trials, n_obs=n).simulate_batch(p, substream(seed, 0))
    want = substream(seed, 0).binomial(n_trials, np.broadcast_to(p, (p.shape[0], n)))
    assert np.array_equal(got, want)
    got = PoissonGamma(n_obs=n).simulate_batch(lam, substream(seed, 1))
    want = substream(seed, 1).poisson(np.broadcast_to(lam, (lam.shape[0], n)))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from([NormalNormal(mu0=0.4, tau0=2.0, sigma=0.7),
                              BetaBinomial(a=2.0, b=3.0, n_trials=12),
                              PoissonGamma(a=1.5, b=0.5)]),
       k=st.integers(1, 6), n=st.sampled_from([1, 2, 7, 8, 9, 31, 200, 1000]),
       seed=st.integers(0, 2**32 - 1))
def test_block_posterior_rows_equal_dataset_posteriors(model, k, n, seed):
    # one posterior per row of a (k, n) block is, bit for bit, each
    # row's own Dataset posterior: the same sums and the same updates
    rng = substream(seed, 0)
    obs = model.simulate_batch(model.sample_prior(rng, k), rng, n_obs=n)
    block = model.analytic_posterior(obs)
    rows = [model.analytic_posterior(Dataset(obs[i])) for i in range(k)]
    for j in range(2):
        column = np.broadcast_to(block.params[j], (k, 1))[:, 0]
        assert np.array_equal(column, [post.params[j] for post in rows])
    assert np.array_equal(np.broadcast_to(block.mean(), (k, 1))[:, 0],
                          [post.mean() for post in rows])
    assert np.array_equal(np.broadcast_to(block.sd(), (k, 1))[:, 0],
                          [post.sd() for post in rows])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODEL_REGISTRY)), k=st.integers(1, 5), c=st.integers(1, 4),
       n=st.sampled_from([1, 2, 7, 9, 40]), seed=st.integers(0, 2**32 - 1))
def test_block_log_likelihood_rows_equal_dataset_values(name, k, c, n, seed):
    # row i of a (k, n) block with (k, c, d) thetas is, bit for bit, the
    # likelihood of row i's c thetas under its own Dataset, edges included:
    # thetas off the support, a zero Poisson rate, all-zero counts and a
    # two-group dataset with a value that is not positive
    rng = substream(seed, 0)
    model = make_model(name, n_obs=n) if name != "lognormal-two-group" else make_model(name)
    if model.prior is None:
        thetas = rng.normal(size=(k, c, model.param_dim))
        obs = model.simulate_batch(thetas[:, 0], rng)
        obs[0, -1] = -1.0
    else:
        thetas = model.sample_prior(rng, (k, c))
        obs = model.simulate_batch(thetas[:, 0], rng)
        thetas[0, 0] = {"beta-binomial": 1.0, "poisson-gamma": 0.0}.get(name, 0.0)
        thetas[-1, -1] = -0.5
        obs[-1] = 0.0
    labels = model.group_labels(obs.shape[1])
    block = model.log_likelihood_batch(thetas, obs, labels)
    assert block.shape == (k, c)
    for i in range(k):
        assert np.array_equal(block[i], model.log_likelihood_batch(thetas[i],
                                                                   Dataset(obs[i], labels)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODEL_REGISTRY)), c=st.integers(0, 30),
       block=st.integers(1, 8), n=st.sampled_from([1, 2, 7, 40]),
       seed=st.integers(0, 2**32 - 1))
def test_dataset_log_likelihood_in_row_blocks_equals_one_call(name, c, block, n, seed):
    # a Dataset's c thetas are taken in blocks of rows; the values are those
    # of one call on all c rows, bit for bit, off the support included
    rng = substream(seed, 0)
    model = make_model(name, n_obs=n) if name != "lognormal-two-group" else make_model(name)
    if model.prior is None:
        thetas = rng.normal(size=(c, model.param_dim))
    else:
        thetas = model.sample_prior(rng, c)
        thetas[::5] = {"beta-binomial": 1.5, "poisson-gamma": -1.0}.get(name, 0.0)
    obs = model.simulate_batch(rng.normal(size=(1, model.param_dim)) if model.prior is None
                               else model.sample_prior(rng, 1), rng)[0]
    y = Dataset(obs, model.group_labels(obs.size))
    whole = model._log_likelihood(thetas[None], obs[None], y.group_labels)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_LIKELIHOOD_BLOCK", block)
        got = model.log_likelihood_batch(thetas, y)
    assert got.shape == (c,) and np.array_equal(got, whole)


@pytest.mark.parametrize("model, bad", [(BetaBinomial(n_trials=5), 6.0),
                                        (BetaBinomial(n_trials=5), 2.5),
                                        (PoissonGamma(), -1.0), (PoissonGamma(), 0.5)])
def test_block_log_likelihood_refuses_counts_outside_the_domain(model, bad):
    obs = np.ones((3, 4))
    obs[2, 1] = bad
    with pytest.raises(DomainError):
        model.log_likelihood_batch(np.full((3, 2, 1), 0.5), obs)


@pytest.mark.parametrize("build", [
    lambda: NormalNormal(mu0=float("nan")), lambda: NormalNormal(tau0=float("inf")),
    lambda: NormalNormal(sigma=float("nan")), lambda: NormalNormal(sigma=float("inf")),
    lambda: BetaBinomial(a=float("inf")), lambda: BetaBinomial(b=float("nan")),
    lambda: PoissonGamma(a=float("nan")), lambda: PoissonGamma(b=float("inf")),
    lambda: LogNormalTwoGroup(sigma=float("nan")),
    lambda: AnalyticPosterior("normal", (float("nan"), 1.0)),
    lambda: AnalyticPosterior("normal", (0.0, float("inf"))),
    lambda: AnalyticPosterior("beta", (float("inf"), 1.0)),
    lambda: AnalyticPosterior("gamma", (2.0, float("inf"))),
    lambda: AnalyticPosterior("gamma", (np.array([[2.0], [np.nan]]), 1.0)),
])
def test_non_finite_parameters_are_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_observation_counts_below_one_are_refused(name):
    model = make_model(name)
    thetas = np.full((2, model.param_dim), 0.5)
    for n_obs in (0, -3, 2.5):
        if "n_obs" in model.__init__.__code__.co_varnames:
            with pytest.raises(DomainError, match="n_obs"):
                make_model(name, n_obs=n_obs)
        with pytest.raises(DomainError, match="n_obs"):
            model.simulate_batch(thetas, substream(0, 0), n_obs=n_obs)
        with pytest.raises(DomainError, match="n_obs"):
            simulate_statistic(model, thetas, substream(0, 0), STATISTIC_REGISTRY["max"],
                               n_obs=n_obs)
    default = model.simulate_batch(thetas, substream(0, 0), n_obs=None)
    assert default.shape == (2, model.n_obs)


def test_simulate_statistic_needs_a_data_statistic():
    with pytest.raises(ValueError, match="not a data statistic"):
        simulate_statistic(NormalNormal(), np.zeros((2, 1)), substream(0, 0),
                           param_target(0))


@pytest.mark.parametrize("model, theta", [(BetaBinomial(), 1.5), (BetaBinomial(), -1e153),
                                          (PoissonGamma(), -1.0), (NormalNormal(), np.inf)])
def test_simulate_statistic_refuses_rows_outside_the_domain(model, theta):
    # refused before anything is drawn (beta-binomial reached numpy's binomial
    # draw, "p < 0, p > 1 or p contains NaNs"), so the stream is untouched
    rng = substream(0, 0)
    with pytest.raises(DomainError, match="outside plausible domain"):
        simulate_statistic(model, np.array([[0.5], [theta]]), rng, STATISTIC_REGISTRY["mean"])
    assert rng.random() == substream(0, 0).random()


# --- domain and registry ------------------------------------------------------

def test_domain_errors():
    with pytest.raises(DomainError):
        NormalNormal().simulate_data(np.array([0.0, 1.0]), substream(0, 0))
    with pytest.raises(DomainError):
        BetaBinomial().simulate_data(np.array([1.5]), substream(0, 0))
    with pytest.raises(DomainError):
        PoissonGamma().log_likelihood_batch(np.array([[1.0]]), _d([2.5]))
    with pytest.raises(DomainError):
        BetaBinomial(a=-1.0)
    with pytest.raises(DomainError):
        NormalNormal(tau0=0.0)


def test_make_model_registry():
    for name in ("normal-normal", "beta-binomial", "poisson-gamma",
                 "lognormal-two-group"):
        assert make_model(name).name == name
    with pytest.raises(ValueError, match="unknown model"):
        make_model("bogus")


# --- datasets -------------------------------------------------------------------

def test_dataset_csv_roundtrip(tmp_path):
    y = _d([1.25, -0.5, 3.0])
    p = tmp_path / "y.csv"
    y.to_csv(p)
    back = Dataset.from_csv(p)
    assert np.array_equal(back.observations, y.observations)
    assert back.group_labels is None


def test_dataset_csv_roundtrip_groups(tmp_path):
    y = Dataset(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1]))
    p = tmp_path / "y.csv"
    y.to_csv(p)
    back = Dataset.from_csv(p)
    assert np.array_equal(back.observations, y.observations)
    assert np.array_equal(back.group_labels, y.group_labels)


def test_dataset_empty_concat():
    y = _d([1.0, 2.0])
    joined = concat_datasets(Dataset.empty(), y)
    assert np.array_equal(joined.observations, y.observations)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([np.nan]))
    with pytest.raises(ValueError):
        Dataset(np.ones(3), np.array([0, 1]))


@pytest.mark.parametrize("values", [np.float64(3.0), np.ones((4, 1)), np.ones((4, 2))],
                         ids=["0-d", "n-by-1", "n-by-2"])
def test_dataset_refuses_observations_that_are_not_one_dimensional(values):
    # (4, 2) read as four observations of two columns each, of which most
    # statistics saw only the first
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(values)}")):
        Dataset(values)


def test_dataset_of_n_values_is_n_observations():
    # it was one observation with three columns: mean 1.0, and a posterior
    # conditioned on n = 1
    y = Dataset(np.array([1.0, 2.0, 3.0]))
    assert y.n_obs == 3
    assert STATISTIC_REGISTRY["mean"].on_data(y) == 2.0
    assert STATISTIC_REGISTRY["max"].on_data(y) == 3.0
    post = BetaBinomial(a=1.0, b=1.0, n_trials=5).analytic_posterior(y)
    assert post.params == (7.0, 10.0)


@pytest.mark.parametrize("text", ["y0,y1\n1,10\n2,20\n", "y0,y1,group\n1,10,0\n2,20,1\n",
                                  "group,y0\n0,1\n1,2\n", "y0\n1,10\n2,20\n", "\n"])
def test_dataset_csv_refuses_other_layouts(tmp_path, text):
    # one observation column and an optional group column, nothing else
    path = tmp_path / "y.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        Dataset.from_csv(path)
