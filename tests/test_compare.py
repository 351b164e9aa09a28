"""Evidence estimation, model probabilities, power-scaling, and sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from simflow import (
    BetaBinomial,
    Dataset,
    ExactConjugate,
    ModelEntry,
    NormalNormal,
    ParamDraws,
    PoissonGamma,
    marginal_likelihood_mc,
    posterior_model_probs,
    power_scale_weights,
    sensitivity_sweep,
    substream,
    weighted_mean,
    weighted_quantile,
)
from simflow import compare, rng
from simflow.compare import _logsumexp
from simflow.report import write_csv


def _obs(*values):
    return Dataset(np.array(values, dtype=float))


def test_uniform_count_marginal():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    result = marginal_likelihood_mc(model, _obs(7.0), s=100_000, seed=0)
    assert abs(result.log_evidence - np.log(1.0 / 11.0)) < 3 * result.mc_se_log
    assert not result.all_zero


def test_beta22_marginal():
    model = BetaBinomial(a=2.0, b=2.0, n_trials=10)
    result = marginal_likelihood_mc(model, _obs(3.0), s=100_000, seed=0)
    assert abs(result.log_evidence - (-2.1902559080201249)) < 3 * result.mc_se_log


def test_gaussian_marginals():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=1)
    r1 = marginal_likelihood_mc(model, _obs(0.7), s=100_000, seed=1)
    assert abs(r1.log_evidence - (-1.3880121234846454)) < 3 * r1.mc_se_log
    r3 = marginal_likelihood_mc(NormalNormal(n_obs=3), _obs(0.3, -1.2, 0.8),
                                s=100_000, seed=1)
    assert abs(r3.log_evidence - (-4.5337127801739623)) < 3 * r3.mc_se_log


def test_poisson_gamma_marginal():
    model = PoissonGamma(a=2.0, b=1.0, n_obs=2)
    result = marginal_likelihood_mc(model, _obs(3.0, 1.0), s=100_000, seed=2)
    assert abs(result.log_evidence - (-3.5959414584546674)) < 3 * result.mc_se_log


def test_impossible_data_flagged():
    class ZeroLikelihood(NormalNormal):
        def log_likelihood_batch(self, thetas, y):
            return np.full(np.atleast_2d(thetas).shape[0], -np.inf)

    model = ZeroLikelihood(n_obs=1)
    result = marginal_likelihood_mc(model, _obs(0.5), s=100, seed=0)
    assert result.all_zero
    assert result.log_evidence == -np.inf
    with pytest.raises(ValueError):
        marginal_likelihood_mc(model, _obs(3.0), s=1)


def test_evidence_chunk_streams():
    # S = 100 007 spans two chunks: 100 000 prior draws from (seed, 0, 0),
    # then 7 from (seed, 0, 1)
    model = NormalNormal(n_obs=3)
    y = _obs(0.4, -0.2, 1.1)
    result = marginal_likelihood_mc(model, y, s=100_007, seed=5)
    thetas = np.concatenate([substream(5, 0, 0).normal(0.0, 1.0, size=(100_000, 1)),
                             substream(5, 0, 1).normal(0.0, 1.0, size=(7, 1))])
    ll = model.log_likelihood_batch(thetas, y)
    w = np.exp(ll - ll.max())
    assert result.log_evidence == ll.max() + np.log(w.mean())
    assert result.mc_se_log == w.std(ddof=1) / (w.mean() * np.sqrt(100_007))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), data=st.data(),
       model=st.sampled_from([NormalNormal(n_obs=3), BetaBinomial(n_trials=4, n_obs=3),
                              PoissonGamma(n_obs=3)]))
def test_evidence_is_the_same_on_any_number_of_threads(seed, size, data, model):
    # one to four chunks of prior draws: every field, whatever the worker count
    s = data.draw(st.integers(2, 4 * size), label="s")
    y = _obs(1.0, 3.0, 2.0)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare, "_EVIDENCE_CHUNK", size)
        for workers in (1, 2, 3, 4):
            mp.setattr(rng, "usable_cpus", lambda w=workers: w)
            results.append(repr(marginal_likelihood_mc(model, y, s, seed)))
    assert results == results[:1] * 4


def test_evidence_mc_se_scaling():
    model = NormalNormal(n_obs=3)
    y = _obs(0.3, -1.2, 0.8)
    sizes = [1000, 10_000, 100_000]
    ses = [marginal_likelihood_mc(model, y, s=s, seed=0).mc_se_log for s in sizes]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert abs(slope - (-0.5)) < 0.05


def test_identical_models_split_evenly():
    y = _obs(0.5, -0.3, 0.9)
    entries = [
        ModelEntry("a", NormalNormal(n_obs=3), 0.5),
        ModelEntry("b", NormalNormal(n_obs=3), 0.5),
    ]
    cmp = posterior_model_probs(entries, y, s=20_000, seed=4)
    assert abs(cmp.posterior_probs["a"] - 0.5) < 0.05
    assert abs(cmp.log_bayes_factors["a/b"]) < 0.2
    assert cmp.log_bayes_factors["a/b"] == -cmp.log_bayes_factors["b/a"]


def test_zero_prior_prob_stays_zero():
    y = _obs(0.5)
    entries = [
        ModelEntry("a", NormalNormal(n_obs=1), 1.0),
        ModelEntry("b", NormalNormal(mu0=5.0, n_obs=1), 0.0),
    ]
    cmp = posterior_model_probs(entries, y, s=2000, seed=0)
    assert cmp.posterior_probs["a"] == 1.0
    assert cmp.posterior_probs["b"] == 0.0


def test_separated_priors_identify_generator():
    gen = BetaBinomial(a=20.0, b=2.0, n_trials=50)
    rng = substream(60, 0)
    theta = gen.sample_prior(rng, 1)[0]
    y = gen.simulate_data(theta, rng)
    entries = [
        ModelEntry("optimist", BetaBinomial(a=20.0, b=2.0, n_trials=50), 0.5),
        ModelEntry("pessimist", BetaBinomial(a=2.0, b=20.0, n_trials=50), 0.5),
    ]
    cmp = posterior_model_probs(entries, y, s=100_000, seed=0)
    assert cmp.posterior_probs["optimist"] > 0.99


def test_model_prob_validation():
    y = _obs(0.5)
    with pytest.raises(ValueError):
        posterior_model_probs([], y, s=100)
    entries = [
        ModelEntry("a", NormalNormal(n_obs=1), 0.6),
        ModelEntry("b", NormalNormal(n_obs=1), 0.3),
    ]
    with pytest.raises(ValueError):
        posterior_model_probs(entries, y, s=100)


@settings(max_examples=500, deadline=None)
@given(unit=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50),
       spread=st.floats(0.0, 1e6), shift=st.floats(-1e6, 1e6),
       ties=st.lists(st.integers(0, 49), max_size=50))
def test_logsumexp_matches_scipy_bit_for_bit(unit, spread, shift, ties):
    # 1 to 50 finite values spread up to 1e6 apart, some tied at the max
    a = shift + spread * np.array(unit)
    a[[i % a.size for i in ties]] = a.max()
    got, want = _logsumexp(a), special.logsumexp(a)
    assert type(got) is type(want) and got.tobytes() == want.tobytes()


def _posterior_draws(model, y, m, seed):
    return ExactConjugate().approximate(model, y, substream(seed, 0), m=m)


def test_unit_exponents_keep_ess_exact():
    model = NormalNormal(n_obs=5)
    y = model.simulate_data(np.array([0.2]), substream(61, 0))
    draws = _posterior_draws(model, y, 4000, 61)
    wd = power_scale_weights(model, y, draws, 1.0, 1.0)
    assert wd.ess == float(draws.m)
    assert np.allclose(wd.weights, 1.0 / draws.m)


def test_prior_scaling_matches_analytic_target():
    # doubling the prior exponent is conjugate again: the prior precision
    # term enters twice
    model = NormalNormal(mu0=0.3, tau0=1.0, sigma=1.0, n_obs=20)
    y = model.simulate_data(np.array([0.9]), substream(62, 0))
    draws = _posterior_draws(model, y, 10_000, 62)
    wd = power_scale_weights(model, y, draws, alpha_prior=2.0)
    n = y.n_obs
    prec = 2.0 / 1.0**2 + n / 1.0**2
    mean = (2.0 * 0.3 / 1.0**2 + y.observations.sum() / 1.0**2) / prec
    assert abs(weighted_mean(wd) - mean) < 0.02
    target = stats.norm(loc=mean, scale=np.sqrt(1.0 / prec))
    got = weighted_quantile(wd, [0.25, 0.5, 0.75])
    assert np.max(np.abs(got - target.ppf([0.25, 0.5, 0.75]))) < 0.03


def test_ess_peaks_at_unit_exponent():
    model = NormalNormal(n_obs=10)
    y = model.simulate_data(np.array([0.4]), substream(63, 0))
    draws = _posterior_draws(model, y, 2000, 63)
    grid = [0.5, 0.8, 1.0, 1.25, 2.0]
    ess = [power_scale_weights(model, y, draws, alpha_lik=a).ess for a in grid]
    assert ess[0] < ess[1] < ess[2]
    assert ess[2] > ess[3] > ess[4]


def test_power_scaling_evaluates_only_scaled_densities(monkeypatch):
    model = NormalNormal(n_obs=5)
    y = model.simulate_data(np.array([0.0]), substream(0, 0))
    draws = ParamDraws(np.linspace(-1.0, 1.0, 10).reshape(-1, 1), source="test")
    lp = model.log_prior_batch(draws.values)
    ll = model.log_likelihood_batch(draws.values, y)
    calls = []

    def spy(name):
        real = getattr(model, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(model, name, counted)

    spy("log_prior_batch")
    spy("log_likelihood_batch")

    wd = power_scale_weights(model, y, draws, alpha_prior=2.0)
    assert calls == ["log_prior_batch"]
    assert np.allclose(wd.weights, np.exp(lp) / np.exp(lp).sum())
    calls.clear()
    wd = power_scale_weights(model, y, draws, alpha_lik=0.5)
    assert calls == ["log_likelihood_batch"]
    assert np.allclose(wd.weights, np.exp(-0.5 * ll) / np.exp(-0.5 * ll).sum())
    calls.clear()
    power_scale_weights(model, y, draws, 1.0, 1.0)
    assert calls == []
    with pytest.raises(ValueError):
        power_scale_weights(model, y, draws, alpha_prior=0.0)


def test_weighted_quantile_uniform_weights():
    values = np.arange(1.0, 6.0).reshape(-1, 1)
    wd = power_scale_weights(NormalNormal(), _obs(0.0), ParamDraws(values, source="test"),
                             1.0, 1.0)
    assert weighted_quantile(wd, 0.5) == pytest.approx(3.0)
    qs = weighted_quantile(wd, [0.1, 0.5, 0.9])
    assert np.all(np.diff(qs) > 0)


def test_weighted_draws_validation():
    from simflow.compare import WeightedDraws

    with pytest.raises(ValueError):
        WeightedDraws(np.zeros((5, 1)), np.ones(4), ess=4.0,
                      alpha_prior=1.0, alpha_lik=1.0)


def test_sweep_single_cell_reproduces_pipeline():
    def pipeline(config, seed):
        return {"out": config["x"] * 10 + seed % 7}

    result = sensitivity_sweep(pipeline, [{"x": 3}], seed=5)
    row = result.rows[0]
    assert row["status"] == "ok"
    assert row["out"] == pipeline({"x": 3}, row["cell_seed"])["out"]
    assert result.n_failed == 0


def test_sweep_posterior_mean_moves_toward_data():
    y = NormalNormal(n_obs=10).simulate_data(np.array([1.5]), substream(64, 0))

    def pipeline(config, seed):
        model = NormalNormal(mu0=0.0, tau0=config["tau0"], sigma=1.0, n_obs=10)
        return {"post_mean": float(model.analytic_posterior(y).mean())}

    grid = [{"tau0": t} for t in (0.5, 1.0, 2.0)]
    result = sensitivity_sweep(pipeline, grid, seed=0)
    means = [r["post_mean"] for r in result.rows]
    # wider prior lets the data pull harder
    assert means[0] < means[1] < means[2]
    assert means[2] < y.observations.mean()


def test_sweep_survives_cell_failures():
    def pipeline(config, seed):
        if config["x"] == 2:
            raise RuntimeError("solver blew up")
        return {"out": config["x"]}

    result = sensitivity_sweep(pipeline, [{"x": 1}, {"x": 2}, {"x": 3}], seed=1)
    assert result.n_failed == 1
    statuses = [r["status"] for r in result.rows]
    assert statuses == ["ok", "error", "ok"]
    assert "RuntimeError" in result.rows[1]["error"]
    assert "out" not in result.rows[1]


def test_sweep_csv_round_trip(tmp_path):
    def pipeline(config, seed):
        return {"out": config["x"] / 3.0}

    result = sensitivity_sweep(pipeline, [{"x": 1}, {"x": 2}], seed=1)
    path = tmp_path / "sweep.csv"
    write_csv(path, *result.table())
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "x"
    assert len(lines) == 3
    assert format(1 / 3, ".17g") in lines[1]
