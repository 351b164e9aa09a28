"""SBC, frequentist calibration, power, and estimator accuracy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from simflow import calibration
from simflow import (
    ExactConjugate,
    LogNormalTwoGroup,
    NormalNormal,
    PerturbedConjugate,
    SbcConfig,
    estimator_accuracy,
    power_analysis,
    rank_pvalues,
    run_frequentist_calibration,
    run_posterior_sbc,
    run_sbc,
    sample_mean_estimator,
    sharpness,
    substream,
)
from simflow.calibration import absolute_error, posterior_mean_estimator, squared_error
from simflow.models import SummaryStatistic, param_target
from simflow.rng import row_streams
from simflow.simtest import STATISTIC_REGISTRY, SimulationTest, pooled_t

T0 = "theta[0]"


class AnalyticZTestStub:
    """Upper-tail z test with known null; pvalues(obs, labels, rows) protocol."""

    def __init__(self, theta0, sigma):
        self.theta0 = theta0
        self.sigma = sigma

    def pvalues(self, obs, labels, rows):
        n = obs.shape[1]
        z = (obs.mean(axis=1) - self.theta0) / (self.sigma / np.sqrt(n))
        return stats.norm.sf(z)


def test_sbc_pvalue_trivial_cases():
    draws = np.array([0.1, 0.2, 0.9, 1.0])
    rng = substream(0, 0)
    # one row, one truth among its own draws
    assert rank_pvalues([0.5], draws[None], "lower", [rng])[0] == 0.5
    assert rank_pvalues([0.05], draws[None], "lower", [rng])[0] == 0.0
    assert rank_pvalues([2.0], draws[None], "lower", [rng])[0] == 1.0


def _frozen_sbc_pvalue(t_star, t_draws, rows):
    """The per-row SBC rank before rank_pvalues took per-row draws, kept
    verbatim: the fraction of row i's draws strictly below its truth, the
    ties split by fair coins from rows[i], drawn only if the row ties."""
    t_star = t_star[:, None]
    below = (t_draws < t_star).sum(axis=1)
    ties = (t_draws == t_star).sum(axis=1)
    for i in np.flatnonzero(ties):
        below[i] += rows[i].binomial(int(ties[i]), 0.5)
    return below / t_draws.shape[1]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), m=st.integers(1, 60),
       levels=st.sampled_from([1, 2, 3, 10**9]))
@example(seed=0, k=1, m=1, levels=1)      # one row, its one draw tied
@example(seed=1, k=1, m=50, levels=10**9)  # one row, no ties
def test_per_row_ranks_equal_the_frozen_sbc_rule(seed, k, m, levels):
    # few levels tie the truth with many of its draws
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, levels, size=k).astype(float)
    draws = rng.integers(0, levels, size=(k, m)).astype(float)
    rows, frozen_rows, one_rows = (row_streams(seed, 0, k) for _ in range(3))
    got = rank_pvalues(truth, draws, "lower", rows)
    assert got.tobytes() == _frozen_sbc_pvalue(truth, draws, frozen_rows).tobytes()
    # the same coins: every row's stream is left where the frozen rule left it
    assert rows.random((k, 3)).tobytes() == frozen_rows.random((k, 3)).tobytes()
    # and row i alone against its own draws as a shared sample gives row i's p-value
    for i in range(k):
        assert rank_pvalues(truth[i], draws[i], "lower", [one_rows[i]])[0] == got[i]


def test_sbc_ranks_equal_the_frozen_rule_across_blocks():
    # S = 1100 crosses the 1024-row block of _replicate; the rounded target
    # ties the truth with most of the draws
    model, approx, m, s, seed = NormalNormal(n_obs=5), ExactConjugate(), 9, 1100, 13
    rounded = SummaryStatistic("rounded", "params", lambda values: np.round(values[:, 0]))
    targets = (param_target(0), rounded)

    def frozen_ranks(thetas, obs, labels, rows):
        k = len(rows)
        values = approx.approximate_block(model, obs, labels, rows, m).reshape(k * m, -1)
        return np.column_stack([_frozen_sbc_pvalue(t.fn(thetas), t.fn(values).reshape(k, m),
                                                   rows) for t in targets])

    want = np.array(calibration._replicate(model, seed, s, frozen_ranks))
    got = run_sbc(model, approx, SbcConfig(s=s, m=m, seed=seed, targets=targets))
    for j, t in enumerate(targets):
        assert got.pvalues[t.name].values.tobytes() == want[:, j].tobytes()


def test_sbc_exact_uniform():
    model = NormalNormal(n_obs=5)
    result = run_sbc(model, ExactConjugate(), SbcConfig(s=2000, m=9, seed=11))
    assert result.verdicts[T0].chi2_pvalue > 0.001
    assert result.verdicts[T0].ecdf_inside


def test_sbc_acceptance_path_single_seed():
    model = NormalNormal(n_obs=5)
    result = run_sbc(model, ExactConjugate(), SbcConfig(s=1000, m=99, seed=0))
    assert result.verdicts[T0].chi2_pvalue > 0.001
    assert result.verdicts[T0].ecdf_inside
    assert result.pvalues[T0].values.size == 1000


def test_sbc_detects_understating_mean():
    model = NormalNormal(n_obs=5)
    approx = PerturbedConjugate(mean_shift=0.5)
    result = run_sbc(model, approx, SbcConfig(s=1000, m=99, seed=0))
    assert result.verdicts[T0].chi2_pvalue < 0.01
    counts, _ = np.histogram(result.pvalues[T0].values, bins=10, range=(0.0, 1.0))
    # understated posterior pushes p-values up: left tail starved
    assert counts[0] < 75
    assert counts[-1] > 100


def test_sbc_detects_overconfident_sd():
    model = NormalNormal(n_obs=5)
    approx = PerturbedConjugate(sd_scale=0.5)
    result = run_sbc(model, approx, SbcConfig(s=1000, m=99, seed=0))
    assert result.verdicts[T0].chi2_pvalue < 0.01
    counts, _ = np.histogram(result.pvalues[T0].values, bins=10, range=(0.0, 1.0))
    assert counts[0] > 100 and counts[-1] > 100


def test_sbc_config_validation():
    with pytest.raises(ValueError):
        SbcConfig(s=5)
    with pytest.raises(ValueError):
        SbcConfig(s=100, m=0)
    with pytest.raises(ValueError):
        SbcConfig(s=100, bins=1)
    for coverage in (0.3, 1.0):
        with pytest.raises(ValueError):
            SbcConfig(s=100, band_coverage=coverage)


def test_sbc_exact_evaluates_no_log_densities(monkeypatch):
    # ranking reads only the draws; log densities are for power-scaling
    model = NormalNormal()
    calls = []
    for name in ("log_prior_batch", "log_likelihood_batch"):
        monkeypatch.setattr(model, name, lambda *args, name=name: calls.append(name))
    run_sbc(model, ExactConjugate(), SbcConfig(s=20, m=9, seed=3))
    assert calls == []


def test_frequentist_exact_pivot_uniform():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    dist = stats.norm(loc=0.4, scale=1.0 / np.sqrt(25))
    result = run_frequentist_calibration(model, np.array([0.4]),
                                         sample_mean_estimator, dist,
                                         s=2000, seed=5)
    assert result.verdict.chi2_pvalue > 0.001
    assert result.verdict.ecdf_inside
    assert result.n_failed == 0


def test_frequentist_detects_wrong_reference():
    # pooled t on lognormal data is far from t with 78 df
    model = LogNormalTwoGroup(sigma=2.0, n_per_group=40)
    result = run_frequentist_calibration(model, np.array([2.0, 2.0]), pooled_t,
                                         stats.t(df=78), s=2000, seed=5)
    assert result.verdict.chi2_pvalue < 0.001


def test_frequentist_empirical_reference():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    ref = substream(99, 0).normal(0.4, 0.2, size=4000)
    result = run_frequentist_calibration(model, np.array([0.4]),
                                         sample_mean_estimator, ref,
                                         s=500, seed=6)
    assert result.verdict.chi2_pvalue > 0.001


def test_interval_coverage_ninety_percent():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    dist = stats.norm(loc=0.4, scale=1.0 / np.sqrt(25))
    result = run_frequentist_calibration(model, np.array([0.4]),
                                         sample_mean_estimator, dist,
                                         s=5000, seed=0, alphas=(0.9,))
    assert abs(result.interval_coverage[0.9] - 0.9) < 0.02


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_power_recovers_alpha_under_null(alpha):
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    test = AnalyticZTestStub(theta0=0.0, sigma=1.0)
    result = power_analysis(model, np.array([0.0]), test, alpha=alpha,
                            s=4000, seed=2)
    se = np.sqrt(alpha * (1 - alpha) / 4000)
    assert abs(result.power - alpha) < 3 * se


def test_power_matches_normal_theory():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    test = AnalyticZTestStub(theta0=0.0, sigma=1.0)
    result = power_analysis(model, np.array([0.5]), test, alpha=0.05,
                            s=10_000, seed=0)
    assert abs(result.power - 0.80376494001549403) < 0.02


def test_power_saturates_for_huge_effect():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    test = AnalyticZTestStub(theta0=0.0, sigma=1.0)
    result = power_analysis(model, np.array([10.0]), test, alpha=0.05,
                            s=2000, seed=0)
    assert result.power > 0.999


def test_power_prior_mode():
    model = NormalNormal(mu0=0.3, tau0=1.0, sigma=1.0, n_obs=25)
    test = AnalyticZTestStub(theta0=0.0, sigma=1.0)
    result = power_analysis(model, None, test, alpha=0.05, s=500, seed=0)
    assert result.mode == "prior"
    assert 0.0 <= result.power <= 1.0
    with pytest.raises(ValueError):
        power_analysis(model, None, test, alpha=1.5, s=10)


def test_sharpness_ranks_interval_widths():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=1)
    exact = sharpness(ExactConjugate(), model, alpha=0.9, s=200, seed=9, m=4000)
    wide = sharpness(PerturbedConjugate(sd_scale=2.0), model, alpha=0.9,
                     s=200, seed=9, m=4000)
    assert exact.mean_width < wide.mean_width
    # posterior sd is sqrt(0.5) regardless of data here
    want = 2 * stats.norm.ppf(0.95) * np.sqrt(0.5)
    assert exact.mean_width == pytest.approx(want, rel=0.02)


def test_sharpness_shrinks_with_data():
    widths = []
    for n in (10, 100, 1000):
        model = NormalNormal(n_obs=n)
        widths.append(sharpness(ExactConjugate(), model, alpha=0.9,
                                s=50, seed=3, m=1500).mean_width)
    assert widths[0] > widths[1] > widths[2]


def test_mse_matches_sampling_variance():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=100)
    result = estimator_accuracy(model, np.array([0.4]), sample_mean_estimator,
                                s=10_000, seed=0)
    assert abs(result.value - 0.01) < 3 * result.mc_se


def test_constant_estimator_zero_risk():
    model = NormalNormal(n_obs=10)
    est = SummaryStatistic("oracle", "data", lambda obs, labels: np.full(len(obs), 0.4))
    result = estimator_accuracy(model, np.array([0.4]), est, s=200, seed=0)
    assert result.value == 0.0
    assert result.mc_se == 0.0


def test_posterior_mean_beats_sample_mean_on_bayes_risk():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=4)
    post = estimator_accuracy(model, None, posterior_mean_estimator(model),
                              s=5000, seed=1)
    raw = estimator_accuracy(model, None, sample_mean_estimator, s=5000, seed=1)
    assert post.mode == "prior"
    assert post.value < raw.value


def test_mc_se_scales_as_inverse_sqrt():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=100)
    sizes = [100, 1000, 10_000]
    ses = [estimator_accuracy(model, np.array([0.4]), sample_mean_estimator,
                              s=s, seed=0).mc_se for s in sizes]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert abs(slope - (-0.5)) < 0.05


def test_estimator_failures_counted():
    # the estimator raises on any block holding a dataset whose first value
    # exceeds 1: the block is estimated row by row, and only those rows fail
    model = NormalNormal(n_obs=10)
    raised = []

    def flaky(obs, labels):
        if (obs[:, 0] > 1.0).any():
            raised.append(len(obs))
            raise ValueError("solver diverged")
        return obs.mean(axis=1)

    result = estimator_accuracy(model, np.array([0.0]),
                                SummaryStatistic("flaky", "data", flaky), s=100, seed=0)
    assert raised[0] == 100 and raised[1:] == [1] * result.n_failed
    assert 0 < result.n_failed < 100
    assert np.isfinite(result.value)

    bad = SummaryStatistic("broken", "data", lambda obs, labels: np.full(len(obs), np.nan))
    with pytest.raises(RuntimeError):
        estimator_accuracy(model, np.array([0.0]), bad, s=10, seed=0)


@pytest.mark.parametrize("s", [0, 1])
def test_accuracy_needs_two_replications(s):
    # one replication has no Monte Carlo error (it was NaN, with a warning)
    model = NormalNormal(n_obs=5)
    with pytest.raises(ValueError, match="at least 2 replications"):
        estimator_accuracy(model, None, posterior_mean_estimator(model), s=s)


@pytest.mark.parametrize("s", [0, 1])
def test_sharpness_needs_two_replications(s):
    with pytest.raises(ValueError, match="at least 2 replications"):
        sharpness(ExactConjugate(), NormalNormal(n_obs=5), 0.9, s, 20)


def test_squared_error_distance():
    assert squared_error(2.0, 5.0) == 9.0
    np.testing.assert_array_equal(squared_error(np.array([2.0, 1.5]), np.array([5.0, 1.0])),
                                  [9.0, 0.25])


def test_distances_keep_python_float_arithmetic():
    # one estimate at a time, ** and abs() on Python floats: ** calls libm
    # pow, which differs from x * x in the last bit on about 1 in 1000 values
    e = substream(4, 0).normal(0.3, 1.0, 20_000).tolist()
    np.testing.assert_array_equal(squared_error(np.array(e), 0.3), [(v - 0.3) ** 2 for v in e])
    np.testing.assert_array_equal(absolute_error(np.array(e), 0.3), [abs(v - 0.3) for v in e])


def _loop_output(fn, *args, **kwargs) -> np.ndarray:
    """Per-replication outputs of the replication loop inside fn(...)."""
    seen = []
    real = calibration._replicate

    def spy(*a, **k):
        seen.append(real(*a, **k))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_replicate", spy)
        fn(*args, **kwargs)
    (out,) = seen
    return np.asarray(out)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 14), k=st.integers(1, 4))
def test_replication_depends_only_on_seed_and_index(seed, n, k):
    model = NormalNormal(n_obs=5)
    ref = substream(7, 0).normal(0.0, 0.5, size=200)
    y_obs = model.simulate_data([0.2], substream(7, 1))
    sim_test = SimulationTest(model, [0.0], STATISTIC_REGISTRY["mean"],
                              side="upper", s=200, seed=1)
    runs = {
        "sbc": lambda s: run_sbc(model, PerturbedConjugate(sd_scale=0.8),
                                 SbcConfig(s=s, m=9, seed=seed)).pvalues[T0].values,
        "posterior-sbc": lambda s: run_posterior_sbc(
            model, PerturbedConjugate(sd_scale=0.8), y_obs,
            SbcConfig(s=s, m=9, seed=seed)).pvalues[T0].values,
        "frequentist": lambda s: run_frequentist_calibration(
            model, [0.3], sample_mean_estimator, ref, s=s, seed=seed).pvalues.values,
        "power": lambda s: _loop_output(power_analysis, model, None, sim_test,
                                        alpha=0.3, s=s, seed=seed),
        "accuracy": lambda s: _loop_output(estimator_accuracy, model, None,
                                           sample_mean_estimator, s=s, seed=seed),
        "sharpness": lambda s: _loop_output(sharpness, ExactConjugate(), model,
                                            alpha=0.8, s=s, seed=seed, m=20),
    }
    for name, run in runs.items():
        short, long = run(n), run(n + k)
        assert len(short) == n and len(long) == n + k, name
        np.testing.assert_array_equal(long[:n], short, err_msg=name)
