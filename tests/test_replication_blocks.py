"""The replication loop runs stage by stage over blocks of replications.

Each pipeline must give, bit for bit, what a loop that runs replication i
on its own stream substream(seed, 0, i), one replication after another,
gives: whatever the block size and wherever S falls against it. RWM runs
a block's chains in lockstep, so its reference is a row-by-row sampler
written here; so are the one-dataset estimators, tests, distances and
p-value that the block statistics replace.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from simflow import calibration
from simflow.approximators import ExactConjugate, PerturbedConjugate, RandomWalkMetropolis
from simflow.calibration import (
    SbcConfig,
    absolute_error,
    estimator_accuracy,
    posterior_mean_estimator,
    power_analysis,
    run_frequentist_calibration,
    run_sbc,
    sample_mean_estimator,
    sharpness,
    squared_error,
)
from simflow.models import (
    AnalyticPosterior,
    BetaBinomial,
    Dataset,
    NormalNormal,
    PoissonGamma,
    SummaryStatistic,
    concat_datasets,
    param_target,
)
from simflow.predictive import run_posterior_sbc
from simflow.rng import substream
from simflow.simtest import SIDES, STATISTIC_REGISTRY, AnalyticZTest, SimulationTest

MODELS = {
    "normal-normal": NormalNormal(mu0=0.3, tau0=1.5, sigma=0.8, n_obs=4),
    "beta-binomial": BetaBinomial(a=2.0, b=3.0, n_trials=6, n_obs=3),
    "poisson-gamma": PoissonGamma(a=3.0, b=1.0, n_obs=3),
}
APPROXIMATORS = {
    "exact": ExactConjugate(),
    "perturbed": PerturbedConjugate(mean_shift=0.4, sd_scale=0.6),
    "rwm": RandomWalkMetropolis(chains=2, warmup=8, step_sd=0.4),
}
# a coarse target: theta ties with many draws, so rows draw tie coins
COARSE = SummaryStatistic("coarse", "params", lambda v: np.floor(4.0 * v[:, 0]))
TARGETS = {1: None, 2: (COARSE, param_target(0))}
M = 7


def reference_loop(model, seed, s, statistic, thetas=None, n_obs=None) -> list:
    """Replication i on substream(seed, 0, i): prior draw (or row i of
    thetas), dataset, statistic(theta, y, rng), one replication at a time."""
    out = []
    for i in range(s):
        rng = substream(seed, 0, i)
        theta = model.sample_prior(rng, 1)[0] if thetas is None else thetas[i]
        out.append(statistic(theta, model.simulate_data(theta, rng, n_obs=n_obs), rng))
    return out


def reference_pvalue(observed, null_values, side, rng) -> float:
    """Normalized rank of one observed value among null draws, in one
    comparison pass: ties split by a coin from rng, drawn only if it ties."""
    s = null_values.size
    less = int((null_values < observed).sum())
    ties = int((null_values == observed).sum())
    p_lower = (less + (int(rng.binomial(ties, 0.5)) if ties else 0)) / s
    if side == "lower":
        return p_lower
    if side == "upper":
        return 1.0 - p_lower
    return min(1.0, 2.0 * min(p_lower, 1.0 - p_lower))


def reference_rwm(model, y, rng, m, chains, warmup, step_sd):
    """Random-walk Metropolis on one dataset, one iteration of its chains at
    a time: the first m draws in iteration-major order and the acceptance
    rate."""
    iterations = warmup + -(-m // chains)
    d = model.param_dim
    theta0 = model.sample_prior(rng, chains)
    z = np.stack([model.to_unconstrained(theta0[c]) for c in range(chains)])
    theta = model.from_unconstrained_batch(z)
    target = (model.log_prior_batch(theta) + model.log_likelihood_batch(theta, y)
              + model.log_jacobian_batch(z))
    kept = np.empty((iterations - warmup, chains, d))
    accepted = 0
    for it in range(iterations):
        prop_z = z + step_sd * rng.standard_normal((chains, d))
        prop_theta = model.from_unconstrained_batch(prop_z)
        prop_target = (model.log_prior_batch(prop_theta)
                       + model.log_likelihood_batch(prop_theta, y)
                       + model.log_jacobian_batch(prop_z))
        accept = np.log(rng.random(chains)) < (prop_target - target)
        z[accept] = prop_z[accept]
        theta[accept] = prop_theta[accept]
        target[accept] = prop_target[accept]
        accepted += int(accept.sum())
        if it >= warmup:
            kept[it - warmup] = theta
    return kept.reshape(-1, d)[:m], accepted / (iterations * chains)


def reference_conjugate(model, approximator, y, rng, m) -> np.ndarray:
    """Exact or perturbed conjugate draws on one dataset: m draws from the
    analytic posterior given y, then the perturbation, if any."""
    post = model.analytic_posterior(y)
    draws = post.sample(rng, m)
    if isinstance(approximator, PerturbedConjugate):
        mu, sd = post.mean(), post.sd()
        draws = mu - approximator.mean_shift * sd + (draws - mu) * approximator.sd_scale
    return draws.reshape(m, 1)


def reference_draws(model, approximator, y, rng, m) -> np.ndarray:
    """approximator's m draws given one dataset y on rng, written here for
    the approximators that define only approximate_block; any other defines
    approximate itself."""
    if isinstance(approximator, RandomWalkMetropolis):
        return reference_rwm(model, y, rng, m, approximator.chains, approximator.warmup,
                             approximator.step_sd)[0]
    if isinstance(approximator, (ExactConjugate, PerturbedConjugate)):
        return reference_conjugate(model, approximator, y, rng, m)
    return approximator.approximate(model, y, rng, m=m).values


def reference_ranks(model, approximator, targets, m):
    def ranks(theta, y, rng):
        draws = reference_draws(model, approximator, y, rng, m)
        return [reference_pvalue(t.on_params(theta), t.fn(draws), "lower", rng)
                for t in targets]

    return ranks


def reference_posterior_sbc(model, approximator, y_obs, targets, seed, s, m):
    """Posterior SBC one replication at a time: theta' from the
    approximation given y_obs on (seed, 1), then ranks given y_obs and the
    replicated dataset."""
    theta_prime = reference_draws(model, approximator, y_obs, substream(seed, 1), s)
    ranks = reference_ranks(model, approximator, targets, m)
    return reference_loop(model, seed, s,
                          lambda theta, y, rng: ranks(theta, concat_datasets(y_obs, y), rng),
                          theta_prime, n_obs=y_obs.n_obs or None)


def observed(model, seed, n_obs) -> Dataset:
    """n_obs observed values simulated from a prior draw, off the loop's streams."""
    prior_draw = model.sample_prior(substream(seed, 9), 1)
    return Dataset(model.simulate_batch(prior_draw, substream(seed, 8), n_obs=3)[0, :n_obs])


def pvalue_columns(result, targets) -> np.ndarray:
    return np.column_stack([result.pvalues[t.name].values for t in targets])


class LoopReturned(Exception):
    """Stops a pipeline as soon as its replication loop returns."""


def loop_output(fn, *args, **kwargs) -> np.ndarray:
    """The values _replicate returned inside fn(*args, **kwargs), which
    stops there (so a run whose every estimate failed still shows them)."""
    real = calibration._replicate

    def spy(*a, **k):
        raise LoopReturned(real(*a, **k))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_replicate", spy)
        with pytest.raises(LoopReturned) as returned:
            fn(*args, **kwargs)
    return np.asarray(returned.value.args[0])


def sizes(block: int) -> tuple[int, ...]:
    return block - 1, block, block + 1, 2 * block + 3


def assert_blocks_match(block, run, reference):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_REPLICATION_BLOCK", block)
        for s in sizes(block):
            got, want = np.asarray(run(s)), np.asarray(reference(s))
            assert got.shape == want.shape and got.dtype == want.dtype, s
            np.testing.assert_array_equal(got, want, err_msg=f"S = {s}")


@pytest.mark.filterwarnings("ignore:acceptance rate")
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(11, 16))
@pytest.mark.parametrize("n_targets", sorted(TARGETS))
@pytest.mark.parametrize("approx", sorted(APPROXIMATORS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_sbc_blocks_equal_row_loop(model, approx, n_targets, seed, block):
    model, approx = MODELS[model], APPROXIMATORS[approx]
    targets = TARGETS[n_targets] or (param_target(0),)

    def run(s):
        cfg = SbcConfig(s=s, m=M, seed=seed, targets=TARGETS[n_targets])
        return pvalue_columns(run_sbc(model, approx, cfg), targets)

    def reference(s):
        return reference_loop(model, seed, s, reference_ranks(model, approx, targets, M))

    assert_blocks_match(block, run, reference)


@pytest.mark.filterwarnings("ignore:acceptance rate")
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(11, 16), n_obs=st.integers(0, 3))
@pytest.mark.parametrize("approx", sorted(APPROXIMATORS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_posterior_sbc_blocks_equal_row_loop(model, approx, seed, block, n_obs):
    model, approx = MODELS[model], APPROXIMATORS[approx]
    y_obs = observed(model, seed, n_obs)
    targets = TARGETS[2]

    def run(s):
        return pvalue_columns(run_posterior_sbc(model, approx, y_obs, SbcConfig(
            s=s, m=M, seed=seed, targets=targets)), targets)

    def reference(s):
        return reference_posterior_sbc(model, approx, y_obs, targets, seed, s, M)

    assert_blocks_match(block, run, reference)


@pytest.mark.filterwarnings("ignore:acceptance rate")
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(11, 13), n_obs=st.integers(0, 3))
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("warmup", [0, 6])
@pytest.mark.parametrize("chains", [1, 2, 3, 4])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_rwm_lockstep_equals_row_by_row_sampler(model, chains, warmup, extra, seed, block,
                                                n_obs):
    # M = 2 * chains + extra: a multiple of chains, or (chains > 1) not one,
    # so the last iteration's draws are cut short
    model, m = MODELS[model], 2 * chains + extra
    approx = RandomWalkMetropolis(chains=chains, warmup=warmup, step_sd=0.7)
    targets = TARGETS[2]
    y_obs = observed(model, seed, n_obs)

    def run_prior(s):
        return pvalue_columns(run_sbc(model, approx, SbcConfig(s=s, m=m, seed=seed,
                                                               targets=targets)), targets)

    def run_posterior(s):
        return pvalue_columns(run_posterior_sbc(model, approx, y_obs, SbcConfig(
            s=s, m=m, seed=seed, targets=targets)), targets)

    assert_blocks_match(block, run_prior, lambda s: reference_loop(
        model, seed, s, reference_ranks(model, approx, targets, m)))
    assert_blocks_match(block, run_posterior, lambda s: reference_posterior_sbc(
        model, approx, y_obs, targets, seed, s, m))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_rwm_lockstep_warns_for_each_row(model):
    # a tiny step accepts nearly every proposal: each row warns with its own rate
    model, s, m = MODELS[model], 12, 6
    approx = RandomWalkMetropolis(chains=2, warmup=5, step_sd=1e-7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_sbc(model, approx, SbcConfig(s=s, m=m, seed=3)).pvalues["theta[0]"].values
    rates = [reference_rwm(model, y, rng, m, 2, 5, 1e-7)[1]
             for y, rng in reference_loop(model, 3, s, lambda theta, y, rng: (y, rng))]
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
        f"acceptance rate {rate:.3f}; step_sd is likely too small and the chain barely moves"
        for rate in rates]
    assert len(rates) == s and min(rates) > 0.95
    want = reference_loop(model, 3, s, reference_ranks(model, approx, (param_target(0),), m))
    np.testing.assert_array_equal(got, np.asarray(want)[:, 0])


def reference_sample_mean(y) -> float:
    return float(y.observations.mean())


def reference_posterior_mean(model):
    """The posterior-mean estimator of one dataset, y -> estimate."""
    return lambda y: float(model.analytic_posterior(y).mean())


def _flaky_rows(obs):
    """Rows whose first value is above all their others (the estimator
    raises on a block holding one), and rows whose last value is below
    their first (NaN estimate)."""
    first = obs[:, 0]
    return (first[:, None] > obs[:, 1:]).all(axis=1), obs[:, -1] < first


def _flaky(obs, labels):
    raises, undefined = _flaky_rows(obs)
    if raises.any():
        raise ValueError("estimator diverged")
    return np.where(undefined, np.nan, obs.mean(axis=1))


def reference_estimate(estimator, y) -> float:
    """estimator on one dataset; NaN where it raises or is not finite."""
    try:
        est = float(estimator(y))
    except ValueError:
        return np.nan
    return est if np.isfinite(est) else np.nan


def _flaky_reference(y):
    raises, undefined = _flaky_rows(y.observations[None])
    if raises[0]:
        raise ValueError("estimator diverged")
    return np.nan if undefined[0] else y.observations.mean()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(11, 16), truth=st.floats(-1.0, 1.0))
def test_frequentist_calibration_blocks_equal_row_loop(seed, block, truth):
    model = MODELS["normal-normal"]
    estimator = posterior_mean_estimator(model)
    point = reference_posterior_mean(model)
    law = AnalyticPosterior("normal", (0.2, 0.4))
    # an empirical law with repeated values, so estimates can tie with it
    ref = np.round(substream(seed, 5).normal(0.2, 0.4, 40), 1)
    for sampling, pvalue in [(law, lambda est, rng: float(law.cdf(est))),
                             (ref, lambda est, rng: reference_pvalue(est, ref, "lower", rng))]:
        def run(s):
            return run_frequentist_calibration(model, truth, estimator, sampling, s,
                                               seed=seed).pvalues.values

        def reference(s):
            return reference_loop(model, seed, s,
                                  lambda theta, y, rng: pvalue(point(y), rng),
                                  np.broadcast_to([truth], (s, 1)))

        assert_blocks_match(block, run, reference)


def reference_z_pvalue(y, theta0, side) -> float:
    """The one-sample z test with sigma 1 on one dataset."""
    z = (y.observations.mean() - theta0) * np.sqrt(y.n_obs)
    if side == "upper":
        return float(ndtr(-z))
    if side == "lower":
        return float(ndtr(z))
    return float(2.0 * ndtr(-abs(z)))


@pytest.mark.filterwarnings("ignore:acceptance rate")
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(3, 9))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_power_accuracy_and_sharpness_blocks_equal_row_loop(model, seed, block):
    model = MODELS[model]
    truth = model.sample_prior(substream(seed, 6), 1)[0]
    mean = STATISTIC_REGISTRY["mean"]
    runs = {}
    for side in SIDES:
        # the count models' means tie with their null draws
        sim = SimulationTest(model, truth, mean, side=side, s=30, seed=1)
        runs[f"power-sim-{side}"] = (
            lambda s, th, sim=sim: loop_output(power_analysis, model, th, sim, 0.3, s,
                                               seed=seed),
            lambda theta, y, rng, sim=sim, side=side: reference_pvalue(
                mean.on_data(y), sim.null.values, side, rng) <= 0.3)
        z = AnalyticZTest(float(truth[0]), 1.0, side=side)
        runs[f"power-z-{side}"] = (
            lambda s, th, z=z: loop_output(power_analysis, model, th, z, 0.3, s, seed=seed),
            lambda theta, y, rng, side=side: reference_z_pvalue(y, truth[0], side) <= 0.3)
    estimators = {"posterior-mean": (posterior_mean_estimator(model),
                                     reference_posterior_mean(model)),
                  "sample-mean": (sample_mean_estimator, reference_sample_mean),
                  "flaky": (SummaryStatistic("flaky", "data", _flaky), _flaky_reference)}
    distances = {"squared": (squared_error, lambda e, t: (e - t) ** 2),
                 "absolute": (absolute_error, lambda e, t: abs(e - t))}
    for name, (estimator, point) in estimators.items():
        for dist_name, (distance, reference_distance) in distances.items():
            runs[f"accuracy-{name}-{dist_name}"] = (
                lambda s, th, estimator=estimator, distance=distance: loop_output(
                    estimator_accuracy, model, th, estimator, distance, s=s, seed=seed),
                lambda theta, y, rng, point=point, reference_distance=reference_distance:
                    reference_distance(reference_estimate(point, y), float(theta[0])))
    for run, statistic in runs.values():
        for th in (None, truth):
            assert_blocks_match(
                block, lambda s: run(s, th),
                lambda s: reference_loop(model, seed, s, statistic,
                                         None if th is None else np.broadcast_to(th, (s, 1))))

    for approx in (APPROXIMATORS["perturbed"], APPROXIMATORS["rwm"]):
        def width(theta, y, rng, approx=approx):
            draws = reference_draws(model, approx, y, rng, M)
            return (np.quantile(draws, (1.0 + 0.8) / 2.0, axis=0)
                    - np.quantile(draws, (1.0 - 0.8) / 2.0, axis=0))

        assert_blocks_match(
            block, lambda s: loop_output(sharpness, approx, model, 0.8, s, M, seed=seed),
            lambda s: reference_loop(model, seed, s, width))


def test_estimators_see_sample_mean_rows():
    # a sanity check of the reference itself: the sample mean of replication
    # i's dataset, simulated on its own stream
    model = MODELS["normal-normal"]
    got = loop_output(estimator_accuracy, model, None, sample_mean_estimator, s=5, seed=2)
    want = []
    for i in range(5):
        rng = substream(2, 0, i)
        theta = model.sample_prior(rng, 1)
        y = model.simulate_batch(theta, rng)[0]
        want.append((y.mean() - theta[0, 0]) ** 2)
    np.testing.assert_array_equal(got, want)
