"""Acceptance gate: end-to-end checks at fixed tolerances.

Each criterion prints one [criterion NN] PASS/FAIL line (run pytest -s to
see them all) before asserting, so a red run still reports every measured
number.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from simflow import (
    AbcRejection,
    Dataset,
    BetaBinomial,
    ExactConjugate,
    LogNormalTwoGroup,
    ModelEntry,
    NormalNormal,
    PValueSet,
    PerturbedConjugate,
    SbcConfig,
    SimulationTest,
    beta_binomial_problem,
    elicit_prior,
    estimator_accuracy,
    marginal_likelihood_mc,
    posterior_model_probs,
    posterior_predictive_sample,
    power_analysis,
    power_scale_weights,
    run_frequentist_calibration,
    run_posterior_sbc,
    run_sbc,
    sample_mean_estimator,
    substream,
    uniformity_test,
    weighted_mean,
)
from simflow.simtest import pooled_t, sample_sum

T0 = "theta[0]"


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _sbc_counts(result, bins=10):
    counts, _ = np.histogram(result.pvalues[T0].values, bins=bins,
                             range=(0.0, 1.0))
    return counts


def test_criterion_01_sbc_exact_joint_pass_rate():
    model = NormalNormal(n_obs=5)
    approx = ExactConjugate()
    joint = chi2_only = 0
    for seed in range(100):
        r = run_sbc(model, approx, SbcConfig(s=1000, m=99, seed=seed))
        v = r.verdicts[T0]
        if v.chi2_pvalue > 0.001:
            chi2_only += 1
            if v.ecdf_inside:
                joint += 1
    # The chi2 clause alone misses a calibrated run with probability 0.001,
    # so 99/100 holds but for a 0.0046 chance. The joint verdict also misses
    # when the run leaves the band, which a correct band allows 1 - coverage
    # of the time: by the union bound a run fails it with probability at most
    # 0.001 + (1 - coverage), whatever the dependence between the clauses.
    band = v.band
    need = int(stats.binom.ppf(1e-3, 100, band.coverage - 0.001))
    ok = chi2_only >= 99 and joint >= need
    _report(1, ok,
            f"exact SBC over 100 seeds: chi2-only pass {chi2_only} (need >= 99), "
            f"joint chi2 + band pass {joint} (need >= {need}, the 1e-3 quantile "
            f"of Binomial(100, {band.coverage:g} - 0.001)); band stated coverage "
            f"{band.coverage:g}, exact {band.coverage_exact:.4f}")


def test_criterion_02_sbc_detects_known_miscalibration():
    model = NormalNormal(n_obs=5)
    expected = 1000 / 10
    shift_hits = scale_hits = 0
    for seed in range(100):
        r = run_sbc(model, PerturbedConjugate(mean_shift=0.5),
                    SbcConfig(s=1000, m=99, seed=seed))
        counts = _sbc_counts(r)
        if r.verdicts[T0].chi2_pvalue < 0.01 and counts[0] < expected:
            shift_hits += 1
        r = run_sbc(model, PerturbedConjugate(sd_scale=0.5),
                    SbcConfig(s=1000, m=99, seed=seed))
        counts = _sbc_counts(r)
        if (r.verdicts[T0].chi2_pvalue < 0.01
                and counts[0] + counts[-1] > 2 * expected):
            scale_hits += 1
    ok = shift_hits >= 95 and scale_hits >= 95
    _report(2, ok,
            f"miscalibration detected: mean shift {shift_hits}/100, "
            f"sd scale {scale_hits}/100 (each needs >= 95 at alpha 0.01 "
            f"with the expected histogram shape)")


def test_criterion_03_lognormal_pooled_t():
    model = LogNormalTwoGroup(sigma=2.0, n_per_group=40)
    theta0 = np.array([2.0, 2.0])

    # (a) the null law of the pooled t is far from Student t(78)
    test = SimulationTest(model, theta0, pooled_t, side="two_sided",
                          s=10_000, seed=0)
    ks = stats.kstest(test.null.values, stats.t(df=78).cdf)
    part_a = ks.pvalue < 0.001

    # (b) textbook t p-values are not uniform under this null
    analytic = np.empty(1000)
    sim_ps = np.empty(1000)
    ref = stats.t(df=78)
    for i in range(1000):
        rng = substream(300, 0, i)
        y = model.simulate_data(theta0, rng)
        t_val = pooled_t.on_data(y)
        analytic[i] = 2.0 * ref.sf(abs(t_val))
        per_data = SimulationTest(model, theta0, pooled_t, side="two_sided",
                                  s=10_000, seed=1000 + i)
        sim_ps[i] = per_data.pvalue(y, rng)
    verdict_b = uniformity_test(PValueSet(analytic))
    part_b = verdict_b.chi2_pvalue < 0.001

    # (c) simulation-based p-values, one fresh 10^4 null per dataset, are
    verdict_c = uniformity_test(PValueSet(sim_ps, granularity=10_000))
    part_c = verdict_c.chi2_pvalue >= 0.001

    ok = part_a and part_b and part_c
    _report(3, ok,
            f"pooled t: KS vs t(78) p={ks.pvalue:.3g} (<1e-3: {part_a}), "
            f"analytic p-value uniformity chi2 p={verdict_b.chi2_pvalue:.3g} "
            f"(<1e-3: {part_b}), simulation p-value uniformity chi2 "
            f"p={verdict_c.chi2_pvalue:.3g} (>=1e-3: {part_c})")


def test_criterion_04_interval_coverage():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)
    dist = stats.norm(loc=0.4, scale=1.0 / np.sqrt(25))
    result = run_frequentist_calibration(model, np.array([0.4]),
                                         sample_mean_estimator, dist,
                                         s=5000, seed=0, alphas=(0.9,))
    cov = result.interval_coverage[0.9]
    ok = abs(cov - 0.9) <= 0.02
    _report(4, ok, f"90% interval coverage {cov:.4f} (need within 0.02)")


def test_criterion_05_power_matches_closed_form():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=25)

    class UpperZ:
        def pvalues(self, obs, labels, rows):
            z = obs.mean(axis=1) * np.sqrt(obs.shape[1])
            return stats.norm.sf(z)

    result = power_analysis(model, np.array([0.5]), UpperZ(), alpha=0.05,
                            s=10_000, seed=0)
    want = 0.80376494001549403
    ok = abs(result.power - want) <= 0.02
    _report(5, ok, f"power {result.power:.4f} vs closed form {want:.4f} "
                   f"(need within 0.02)")


def test_criterion_06_estimator_risk_and_mc_error():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=100)
    result = estimator_accuracy(model, np.array([0.4]), sample_mean_estimator,
                                s=10_000, seed=0)
    part_a = abs(result.value - 0.01) <= 3 * result.mc_se
    sizes = [100, 1000, 10_000]
    ses = [estimator_accuracy(model, np.array([0.4]), sample_mean_estimator,
                              s=s, seed=0).mc_se for s in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(ses), 1)[0])
    part_b = abs(slope - (-0.5)) <= 0.05
    ok = part_a and part_b
    _report(6, ok, f"MSE {result.value:.5f} vs 0.01 within 3*mc_se="
                   f"{3 * result.mc_se:.5f}: {part_a}; mc_se slope "
                   f"{slope:.3f} vs -0.5 within 0.05: {part_b}")


def test_criterion_07_abc_exact_match_posterior_moments():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    y = Dataset(np.array([3.0]))
    draws = AbcRejection(sample_sum, tolerance=0.0, max_proposals=400_000).approximate(
        model, y, substream(700, 0), m=10_000)
    vals = draws.values[:, 0]
    post = stats.beta(4, 8)
    mean, var, _, kurt = post.stats(moments="mvsk")
    m = vals.size
    se_mean = np.sqrt(var / m)
    m4 = (kurt + 3.0) * var**2
    se_var = np.sqrt((m4 - var**2) / m)
    d_mean = abs(vals.mean() - mean)
    d_var = abs(vals.var(ddof=1) - var)
    ok = d_mean <= 3 * se_mean and d_var <= 3 * se_var
    _report(7, ok,
            f"ABC eps=0 ({m} acceptances): |mean err| {d_mean:.5f} <= "
            f"{3 * se_mean:.5f}, |var err| {d_var:.6f} <= {3 * se_var:.6f}")


def test_criterion_08_replication_variance_decomposition():
    model = NormalNormal(mu0=0.0, tau0=1.0, sigma=1.0, n_obs=10)
    y = model.simulate_data(np.array([0.6]), substream(800, 0))
    post = model.analytic_posterior(y)
    draws = ExactConjugate().approximate(model, y, substream(800, 1), m=5000)
    reps = posterior_predictive_sample(model, draws, s=5000, seed=2)
    means = np.array([r.observations.mean() for r in reps])
    want = 1.0 / 10 + post.sd() ** 2
    got = means.var(ddof=1)
    ok = abs(got - want) / want <= 0.05
    _report(8, ok, f"replication-mean variance {got:.5f} vs "
                   f"sigma^2/N + tau_n^2 = {want:.5f} (need within 5%)")


def test_criterion_09_posterior_sbc():
    model = NormalNormal(n_obs=10)
    y_obs = model.simulate_data(np.array([0.5]), substream(100, 0))
    r = run_posterior_sbc(model, ExactConjugate(), y_obs,
                          SbcConfig(s=500, m=99, seed=0))
    v = r.verdicts[T0]
    part_a = v.chi2_pvalue > 0.001 and v.ecdf_inside

    hits = 0
    for seed in range(50):
        r = run_posterior_sbc(model, PerturbedConjugate(sd_scale=0.5), y_obs,
                              SbcConfig(s=500, m=99, seed=seed))
        if r.verdicts[T0].chi2_pvalue < 0.01:
            hits += 1
    part_b = hits >= 45
    ok = part_a and part_b
    _report(9, ok,
            f"posterior SBC exact: chi2 p={v.chi2_pvalue:.3f}, "
            f"inside={v.ecdf_inside}; overconfident sd detected "
            f"{hits}/50 seeds (need >= 45)")


def test_criterion_10_evidence_and_model_choice():
    model = BetaBinomial(a=1.0, b=1.0, n_trials=10)
    ev = marginal_likelihood_mc(model, Dataset(np.array([7.0])),
                                s=100_000, seed=0)
    want = np.log(1.0 / 11.0)
    part_a = abs(ev.log_evidence - want) <= 3 * ev.mc_se_log

    gen = BetaBinomial(a=20.0, b=2.0, n_trials=50)
    rng = substream(60, 0)
    theta = gen.sample_prior(rng, 1)[0]
    y = gen.simulate_data(theta, rng)
    cmp = posterior_model_probs(
        [ModelEntry("true", BetaBinomial(a=20.0, b=2.0, n_trials=50), 0.5),
         ModelEntry("flipped", BetaBinomial(a=2.0, b=20.0, n_trials=50), 0.5)],
        y, s=100_000, seed=0)
    p_true = cmp.posterior_probs["true"]
    part_b = p_true > 0.99
    ok = part_a and part_b
    _report(10, ok,
            f"logZ {ev.log_evidence:.5f} vs log(1/11)={want:.5f} within "
            f"3*mc_se={3 * ev.mc_se_log:.5f}: {part_a}; "
            f"P(generating model)={p_true:.4f} > 0.99: {part_b}")


def test_criterion_11_power_scaled_prior():
    model = NormalNormal(mu0=0.3, tau0=1.0, sigma=1.0, n_obs=20)
    y = model.simulate_data(np.array([0.9]), substream(62, 0))
    draws = ExactConjugate().approximate(model, y, substream(62, 1), m=10_000)
    wd = power_scale_weights(model, y, draws, alpha_prior=2.0)
    prec = 2.0 / 1.0**2 + 20 / 1.0**2
    want = (2.0 * 0.3 / 1.0**2 + y.observations.sum() / 1.0**2) / prec
    got = weighted_mean(wd)
    part_a = abs(got - want) <= 0.02
    ess = power_scale_weights(model, y, draws, 1.0, 1.0).ess
    part_b = ess == float(draws.m)
    ok = part_a and part_b
    _report(11, ok,
            f"alpha_prior=2 mean {got:.4f} vs analytic {want:.4f} within "
            f"0.02: {part_a}; ESS at alpha=1 is {ess} == {draws.m}: {part_b}")


def _dithered_quantiles(dist, probes):
    """Exact probe quantiles of count + U(0,1) under a count distribution."""
    out = []
    for q in probes:
        k = int(dist.ppf(q))
        below = dist.cdf(k - 1)
        out.append(k + (q - below) / dist.pmf(k))
    return np.array(out)


def test_criterion_12_prior_recovery_from_expert_quantiles():
    probes = (0.1, 0.25, 0.5, 0.75, 0.9)
    lam_true = np.array([3.0, 7.0])
    expert = _dithered_quantiles(stats.betabinom(20, 3, 7), probes)
    hits = 0
    for seed in range(20):
        problem = beta_binomial_problem(expert, n_trials=20,
                                        sims_per_eval=10_000)
        result = elicit_prior(problem, lam0=np.array([1.0, 1.0]), seed=seed)
        if np.all(np.abs(result.lam - lam_true) / lam_true <= 0.10):
            hits += 1
    ok = hits >= 16
    _report(12, ok, f"Beta(3,7) recovered within 10% per coordinate in "
                    f"{hits}/20 seeds (need >= 16)")


def test_criterion_13_cli_outputs_byte_stable(tmp_path):
    argv = ["-m", "simflow.cli", "sbc", "--model", "normal-normal",
            "--S", "120", "--M", "19", "--seed", "11"]
    outs = [tmp_path / f"run{i}" for i in range(3)]
    extra = [[], [], ["--threads", "2"]]
    for out, more in zip(outs, extra):
        proc = subprocess.run([sys.executable] + argv +
                              ["--out", str(out)] + more,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    import re

    timing = re.compile(rb'"timing_seconds": [^,\n]+')

    def stable(path):
        return timing.sub(b'"timing_seconds": X', path.read_bytes())

    ref = stable(outs[0] / "report.json")
    reports_equal = all(stable(o / "report.json") == ref for o in outs[1:])
    svg_names = sorted(p.name for p in outs[0].glob("*.svg"))
    svgs_equal = bool(svg_names) and all(
        (o / name).read_bytes() == (outs[0] / name).read_bytes()
        for o in outs[1:] for name in svg_names
    )
    ok = reports_equal and svgs_equal
    _report(13, ok,
            f"reports byte-identical after timing strip: {reports_equal}; "
            f"{len(svg_names)} SVGs byte-identical across reruns and "
            f"--threads 2: {svgs_equal}")
