"""Command line behavior: exit codes, seeds, and byte-stable outputs."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import simflow
import simflow.cli
from simflow import (
    DISTANCE_REGISTRY,
    AbcRejection,
    Dataset,
    ExactConjugate,
    NormalNormal,
    PerturbedConjugate,
    SbcConfig,
    marginal_likelihood_mc,
    power_scale_weights,
    run_sbc,
    substream,
    weighted_mean,
)
from simflow.cli import _parse_sampling, main

TIMING = re.compile(rb'"timing_seconds": [^,\n]+')


def _stable(path):
    return TIMING.sub(b'"timing_seconds": X', path.read_bytes())


def _write_data(path, n=12, theta=0.4, seed=3):
    model = NormalNormal(n_obs=n)
    y = model.simulate_data(np.array([theta]), substream(seed, 0))
    y.to_csv(path)
    return path


def test_sbc_happy_path(tmp_path):
    out = tmp_path / "run"
    rc = main(["sbc", "--model", "normal-normal", "--S", "200", "--M", "19",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "ok"
    assert payload["command"] == "sbc"
    assert payload["seed_provenance"]["seed"] == 42
    assert payload["results"]["s"] == 200
    assert "threads" not in payload["config"].get("pipeline", {})
    assert list(out.glob("*.svg"))


def test_missing_model_is_config_error(tmp_path, capsys):
    rc = main(["sbc", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x" / "report.json").exists()


_FREQ = ["freq-calibrate", "--model", "normal-normal", "--theta-star", "0.3"]
_NN12 = ["--model", "normal-normal", "--model-params", "n_obs=12"]
_DATA = [*_NN12, "--data", "data.csv"]


@pytest.mark.parametrize("argv", [
    ["sbc", "--model", "normal-normal", "--S", "5"],
    ["sbc", "--model", "normal-normal", "--M", "0"],
    ["sbc", "--model", "normal-normal", "--band-coverage", "0.3"],
    ["power", "--model", "normal-normal", "--theta-star", "0.5", "--theta0", "0",
     "--alpha", "2"],
    ["sbc", "--model", "normal-normal", "--threads", "0"],
    ["sbc", "--model", "normal-normal", "--config", "threads.ini"],
    *([*_FREQ, "--sampling", law, "--S", "20"]
      for law in ("normal:0.3,-1", "normal:0.3,0", "normal:0.3,0.3,0.3", "t:0", "t:-2,0,1",
                  "t:9,0,0")),
    [*_FREQ, "--sampling", "normal:0.3,0.3", "--S", "5"],
    ["accuracy", "--model", "normal-normal", "--theta-star", "0.3", "--S", "1"],
    # library ValueErrors that used to escape as tracebacks
    ["prior-check", *_NN12, "--region=1,-1"],
    ["compare", *_DATA, "--S", "1"],
    ["abc", *_DATA, "--quantile", "2"],
    ["abc", *_DATA, "--quantile", "0.1", "--M", "0"],
    ["ppc", *_DATA, "--S", "0"],
    ["sensitivity", *_DATA, "--M", "0"],
    ["sensitivity", *_DATA, "--alphas=-1"],
    ["prior-check", *_NN12, "--region=-1,1", "--statistic", "mean-diff"],
    # divisions by zero that used to escape as tracebacks
    ["power", *_NN12, "--theta-star", "0.5", "--theta0", "0", "--S", "0"],
    ["power", *_NN12, "--theta-star", "0.5", "--theta0", "0", "--null-s", "0"],
    ["test", *_DATA, "--theta0", "0", "--S", "0"],
    ["abc", *_DATA, "--quantile", "0.1", "--max-proposals", "0"],
    # nonsense that used to run
    ["prior-check", *_NN12, "--region=-1,1", "--S", "0"],
    [*_FREQ, "--sampling", "normal:0.3,0.3", "--alphas", "1.5", "--S", "20"],
    ["test", *_DATA, "--theta0", "0,1"],
    ["accuracy", *_NN12, "--theta-star", "0.3,0.2", "--S", "20"],
    ["freq-calibrate", *_NN12, "--theta-star", "0.3,0.2", "--sampling", "normal:0.3,0.3",
     "--S", "20"],
    # RWM settings its constructor rejects (tracebacks once sampling started)
    ["sensitivity", *_DATA, "--M", "100", "--approximator", "rwm",
     "--approximator-params", "chains=0"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "warmup=-1"],
    # a starting point of the wrong length or outside the family (exit 1)
    ["elicit", "--expert-stats", "3,4,6,8,10", "--lam0", "1"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--lam0=-1,1"],
    # a z test with no spread (exit 0 with a division warning)
    ["power", *_NN12, "--theta-star", "0.5", "--test", "z", "--sigma", "0"],
    ["power", *_NN12, "--theta-star", "0.5", "--test", "z", "--sigma=-1"],
    # an RWM step size that is not positive (traceback once sampling started)
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "step_sd=0"],
    # elicitation sizes and expert counts a dithered count cannot take
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "0"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--n-trials", "0"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--n-trials", "5"],
    # one bin (ran every replication, then exit 1)
    [*_FREQ, "--sampling", "normal:0.3,0.3", "--S", "20", "--bins", "1"],
    # a negative seed (numpy ValueError traceback; a dry run printed a plan)
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--seed=-1"],
    ["sbc", *_NN12, "--seed=-1", "--dry-run"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--config", "seed.ini"],
    # an ABC tolerance no distance can meet (spent the budget, then exit 3)
    ["abc", *_DATA, "--tolerance=-1"],
    ["abc", *_DATA, "--tolerance", "nan"],
    # an elicitation stopping rule that cannot stop or never starts (ran)
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "200", "--tolerance", "nan"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "200", "--tolerance=-1"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "200", "--max-iter", "0"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "200", "--tolerance", "inf"],
    # [pipeline] values that are not of their setting's kind (a traceback or
    # silently truncated)
    ["accuracy", *_NN12, "--theta-star", "0.3", "--config", "s-abc.ini"],
    ["power", *_NN12, "--theta-star", "0.5", "--theta0", "0", "--config", "alpha-abc.ini"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--config", "bins.ini"],
    ["power", *_NN12, "--theta-star", "0.5", "--theta0", "0", "--null-s", "50",
     "--config", "s-frac.ini"],
    ["elicit", "--expert-stats", "3,4,6,8,10", "--sims", "200", "--config", "n-trials.ini"],
    # count hyperparameters that are not integers (truncated by the model)
    ["sbc", "--model", "normal-normal", "--model-params", "n_obs=2.5", "--S", "20", "--M", "9"],
    ["sbc", "--model", "beta-binomial", "--model-params", "n_trials=2.7", "--S", "20",
     "--M", "9"],
    # compare priors that are not numbers or do not sum to 1 (tracebacks)
    ["compare", "--config", "prior-abc.ini", "--data", "data.csv", "--S", "100"],
    ["compare", "--config", "prior-sum.ini", "--data", "data.csv", "--S", "100"],
    # empty lists (ran with no exponents or no coverage levels)
    ["sensitivity", *_DATA, "--alphas=,"],
    [*_FREQ, "--sampling", "normal:0.3,0.3", "--S", "20", "--alphas=,"],
    # a dry run resolves and checks every setting (printed a plan)
    ["sbc", *_NN12, "--S", "5", "--dry-run"],
    ["power", "--config", "alpha-abc.ini", "--dry-run"],
    # a draw count the run ignored for --M, while the report echoed it
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator-params", "draw_count=5"],
    # [sweep] counts that are not integers (truncated, or a failed row)
    ["sensitivity", "--mode", "sweep", "--config", "sweep-s-frac.ini"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-m-abc.ini"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-vary-s-frac.ini"],
    # expert CSV rows with a value that is not a number or too few fields
    # (tracebacks)
    ["elicit", "--expert-csv", "expert-abc.csv", "--sims", "200"],
    ["elicit", "--expert-csv", "expert-short.csv", "--sims", "200"],
    # [sweep] keys no pipeline setting names (ignored, or overwritten by the
    # row's status column)
    ["sensitivity", "--mode", "sweep", "--config", "sweep-ss.ini"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-status.ini"],
    # cell hyperparameters the model refuses (failed rows after the other
    # cells had run)
    ["sensitivity", "--mode", "sweep", "--config", "sweep-n-obs-frac.ini"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-bogus.ini"],
    # a repeated target (reported once, its pvalues.csv rows written twice)
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--targets", "0,0"],
    # inputs the sweep's pipeline never reads (ignored, even a name that
    # names nothing)
    ["sensitivity", "--mode", "sweep", "--config", "sweep-evidence.ini", "--data", "data.csv",
     "--approximator", "bogus"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-evidence.ini", "--data", "data.csv",
     "--approximator-params", "bogus=1"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-evidence-approx.ini",
     "--data", "data.csv"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-sbc.ini",
     "--data", "nonexistent.csv"],
    # a data CSV with a header and no rows (a NaN observed statistic: p-value
    # 0, ppp 0, or prior draws under a NaN ABC threshold)
    ["test", *_NN12, "--data", "empty.csv", "--theta0", "0", "--S", "200"],
    ["ppc", *_NN12, "--data", "empty.csv", "--S", "200"],
    ["abc", *_NN12, "--data", "empty.csv", "--quantile", "0.1", "--M", "20"],
    # hyperparameters that are not finite (NaN prior draws or data: exit 3
    # or a traceback; a report from an infinite gamma rate)
    ["sbc", "--model", "normal-normal", "--model-params", "mu0=nan", "--S", "20", "--M", "9"],
    ["sbc", "--model", "normal-normal", "--model-params", "tau0=inf", "--S", "20", "--M", "9"],
    ["sbc", "--model", "normal-normal", "--model-params", "sigma=nan", "--S", "20", "--M", "9"],
    ["sbc", "--model", "normal-normal", "--model-params", "sigma=inf", "--S", "20", "--M", "9"],
    ["sbc", "--model", "beta-binomial", "--model-params", "a=inf", "--S", "20", "--M", "9"],
    ["sbc", "--model", "poisson-gamma", "--model-params", "b=inf", "--S", "20", "--M", "9"],
    # an observation count below 1 (SBC on empty datasets, or a traceback)
    ["sbc", "--model", "normal-normal", "--model-params", "n_obs=0", "--S", "20", "--M", "9"],
    ["sbc", "--model", "normal-normal", "--model-params", "n_obs=-3", "--S", "20", "--M", "9"],
    # RWM settings truncated or meaningless: 2.7 ran 2 chains and echoed 2.7,
    # True ran 1 chain, and an infinite step accepted no proposal, so every
    # draw was a repeated prior draw
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "chains=2.7"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "chains=True"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "warmup=2.5"],
    ["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "rwm",
     "--approximator-params", "step_sd=inf"],
    # a compare label given twice (a model against itself, with a log Bayes
    # factor that is not 0)
    ["compare", "--config", "compare-repeat.ini", "--data", "data.csv", "--S", "100"],
    # normal-normal scales whose precision 1/scale^2 leaves the float range
    # (an OverflowError or ZeroDivisionError traceback, or a posterior sd of
    # 0 refused mid-run)
    *(["sbc", "--model", "normal-normal", "--model-params", p, "--S", "20", "--M", "9"]
      for p in ("tau0=1e200", "sigma=1e200", "tau0=1e-200", "sigma=1e-200", "tau0=1e-160")),
    ["prior-check", "--model", "normal-normal", "--model-params", "tau0=1e-160",
     "--region=-1,1", "--S", "20"],
    # a normal-normal posterior precision 1/tau0^2 + n_obs/sigma^2 that
    # overflows while each term is finite (exit 3 mid-run, with a
    # RuntimeWarning from accuracy)
    ["sbc", "--model", "normal-normal", "--model-params", "sigma=1e-154", "--S", "20",
     "--M", "9"],
    ["accuracy", "--model", "normal-normal", "--model-params", "sigma=1e-154",
     "--theta-star", "0.3", "--estimator", "posterior-mean", "--S", "20"],
    # a statistic undefined on the observed data (a NaN observed value got
    # p-value 0, or ppp 0)
    ["test", "--model", "poisson-gamma", "--model-params", "a=3,b=1,n_obs=4",
     "--data", "const.csv", "--statistic", "lag1-autocorr", "--theta0", "2", "--S", "2000"],
    ["ppc", "--model", "poisson-gamma", "--model-params", "a=3,b=1,n_obs=4",
     "--data", "const.csv", "--statistic", "lag1-autocorr", "--S", "200"],
])
def test_invalid_numbers_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, line in {"threads": "threads = abc", "seed": "seed = -3", "s-abc": "s = abc",
                       "alpha-abc": "alpha = abc", "bins": "bins = 3.5", "s-frac": "s = 20.9",
                       "n-trials": "n_trials = 20.5"}.items():
        (tmp_path / f"{name}.ini").write_text(f"[pipeline]\n{line}\n")
    for name, (a, b) in {"prior-abc": ("abc", "0.5"), "prior-sum": ("0.9", "0.9")}.items():
        (tmp_path / f"{name}.ini").write_text(
            "[compare]\nmodels = a, b\n"
            f"[model:a]\nname = normal-normal\nn_obs = 12\nprior_prob = {a}\n"
            f"[model:b]\nname = normal-normal\nmu0 = 1\nn_obs = 12\nprior_prob = {b}\n")
    sweep = "[model]\nname = normal-normal\nn_obs = 5\n[sweep]\npipeline = sbc\n"
    expert = "target,probe,value\ncount,0.1,3.1\n"
    for name, text in {"sweep-s-frac.ini": "s = 30.9\nvary_m = 9|19\n",
                       "sweep-m-abc.ini": "m = abc\nvary_model_tau0 = 0.5|2.0\n",
                       "sweep-vary-s-frac.ini": "vary_s = 30|30.9\n",
                       "sweep-ss.ini": "ss = 20\nm = 9\nvary_model_tau0 = 0.5|2.0\n",
                       "sweep-status.ini": "s = 20\nm = 9\nstatus = x\nvary_model_tau0 = 1\n",
                       "sweep-n-obs-frac.ini": "s = 20\nm = 9\nvary_model_n_obs = 5|2.5\n",
                       "sweep-bogus.ini": "s = 20\nm = 9\nvary_model_bogus = 1|2\n",
                       "sweep-sbc.ini": "s = 20\nm = 9\nvary_model_tau0 = 0.5|2.0\n",
                       "expert-abc.csv": "count,0.25,abc\n",
                       "expert-short.csv": "count,0.25\n"}.items():
        (tmp_path / name).write_text((sweep if name.endswith(".ini") else expert) + text)
    evidence = sweep.replace("= sbc", "= evidence") + "s = 20\nvary_model_tau0 = 1\n"
    (tmp_path / "sweep-evidence.ini").write_text(evidence)
    (tmp_path / "sweep-evidence-approx.ini").write_text(
        evidence + "[approximator]\nname = exact\n")
    (tmp_path / "compare-repeat.ini").write_text(
        "[compare]\nmodels = near, near\n[model:near]\nname = normal-normal\nn_obs = 12\n")
    _write_data(tmp_path / "data.csv")
    (tmp_path / "empty.csv").write_text("y0\n")
    (tmp_path / "const.csv").write_text("y0\n2\n2\n2\n2\n")
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_undefined_statistic_exits_before_the_null(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const.csv").write_text("y0\n2\n2\n2\n2\n")
    monkeypatch.setattr(simflow.simtest, "simulate_null",
                        lambda *args, **kwargs: pytest.fail("the null was simulated"))
    assert main(["test", "--model", "poisson-gamma", "--data", "const.csv",
                 "--statistic", "lag1-autocorr", "--theta0", "2", "--out", "x"]) == 2
    assert "undefined" in capsys.readouterr().err


_LN = ["--model", "lognormal-two-group"]
_LN_DATA = [*_LN, "--data", "grouped.csv"]


@pytest.mark.parametrize("argv, missing", [
    (["sbc", *_LN, "--S", "20", "--M", "9"], "can_sample_prior"),
    (["sbc", *_LN, "--S", "20", "--M", "9", "--approximator", "abc"], "can_sample_prior"),
    (["post-sbc", *_LN_DATA, "--S", "20", "--M", "9"], "has_analytic_posterior"),
    (["post-sbc", *_LN_DATA, "--S", "20", "--M", "9", "--approximator", "perturbed"],
     "has_analytic_posterior"),
    (["post-sbc", *_LN_DATA, "--S", "20", "--M", "9", "--approximator", "rwm"],
     "can_sample_prior"),
    (["ppc", *_LN_DATA, "--statistic", "mean-diff"], "has_analytic_posterior"),
    (["sensitivity", *_LN_DATA, "--approximator", "perturbed"], "has_analytic_posterior"),
    (["prior-check", *_LN, "--region=0,1"], "can_sample_prior"),
    (["abc", *_LN_DATA, "--quantile", "0.1"], "can_sample_prior"),
    (["compare", *_LN_DATA], "can_sample_prior"),
    (["compare", "--config", "compare-ln.ini", "--data", "grouped.csv"], "can_sample_prior"),
    (["power", *_LN, "--theta0", "0,0", "--statistic", "mean-diff"], "can_sample_prior"),
    (["accuracy", *_LN], "can_sample_prior"),
    (["freq-calibrate", *_LN, "--theta-star", "0,0", "--estimator", "posterior-mean",
      "--sampling", "normal:0,1", "--S", "20"], "has_analytic_posterior"),
    (["sensitivity", "--mode", "sweep", "--config", "sweep-ln.ini"], "can_sample_prior"),
])
def test_missing_capability_is_config_error(tmp_path, capsys, monkeypatch, argv, missing):
    # each started work, then exited 3 with a partial report on a
    # CapabilityError or an estimator that failed every replication; the sbc
    # sweep exited 0 with every row failed
    monkeypatch.chdir(tmp_path)
    Dataset(np.arange(1.0, 9.0).reshape(-1, 1), np.repeat([0, 1], 4)).to_csv("grouped.csv")
    (tmp_path / "compare-ln.ini").write_text(
        "[compare]\nmodels = a, b\n[model:a]\nname = normal-normal\n"
        "[model:b]\nname = lognormal-two-group\n")
    (tmp_path / "sweep-ln.ini").write_text(
        "[model]\nname = lognormal-two-group\n[sweep]\npipeline = sbc\nm = 9\n"
        "vary_s = 10|20\n")
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert missing in err and "lognormal-two-group lacks" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("approx, params", [
    (PerturbedConjugate(mean_shift=0.5), "mean_shift=0.5"),
    (AbcRejection(DISTANCE_REGISTRY["mean-distance"], acceptance_quantile=0.5),
     "acceptance_quantile=0.5"),
], ids=["perturbed", "abc"])
def test_power_scaling_reweights_any_approximator(tmp_path, approx, params):
    data = _write_data(tmp_path / "data.csv")
    out = tmp_path / approx.name
    rc = main(["sensitivity", *_NN12, "--data", str(data), "--M", "100",
               "--approximator", approx.name, "--approximator-params", params,
               "--seed", "4", "--out", str(out), "--formats", "json"])
    assert rc == 0
    axes = json.loads((out / "report.json").read_text())["results"]["axes"]
    model, y = NormalNormal(n_obs=12), Dataset.from_csv(data)
    draws = approx.approximate(model, y, substream(4, 0), m=100)
    for axis, key in (("prior", "alpha_prior"), ("likelihood", "alpha_lik")):
        for row in axes[axis]:
            wd = power_scale_weights(model, y, draws, **{key: row["alpha"]})
            assert row["ess"] == wd.ess
            assert row["mean"] == [weighted_mean(wd)]
            if row["alpha"] == 1:
                assert row["ess"] == 100


def test_sampling_law_defaults_to_unit_scale():
    assert _parse_sampling("normal:0.3").params == (0.3, 1.0)
    assert _parse_sampling("normal").params == (0.0, 1.0)
    law = _parse_sampling("normal:0.3,0.5")
    assert law.cdf(0.3) == 0.5 and law.cdf(0.8) == stats.norm(0.3, 0.5).cdf(0.8)


def test_unknown_format_rejected(tmp_path):
    rc = main(["sbc", "--model", "normal-normal", "--S", "50", "--M", "9",
               "--out", str(tmp_path / "x"), "--formats", "json,exe"])
    assert rc == 2


def test_abc_budget_failure_writes_partial_report(tmp_path):
    data = _write_data(tmp_path / "data.csv")
    out = tmp_path / "abc"
    rc = main(["abc", "--model", "normal-normal", "--data", str(data),
               "--M", "500", "--tolerance", "0.000001",
               "--max-proposals", "2000", "--out", str(out)])
    assert rc == 3
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "error"
    assert payload["error"]["type"] == "BudgetError"
    assert "acceptance_rate" in payload["error"]["diagnostics"]


@pytest.mark.parametrize("command", [
    ["prior-check", "--model", "normal-normal", "--region=-1,1"],
    ["test", "--model", "normal-normal", "--theta0=0", "--data"],
    ["compare", "--model", "normal-normal", "--data"],
])
def test_out_of_memory_writes_partial_report(tmp_path, command):
    # 10**15 draws ask for a 7 PiB array, which is refused at once: nothing is
    # allocated, and the run reports the failure as a runtime error
    if command[-1] == "--data":
        command = [*command, str(_write_data(tmp_path / "data.csv"))]
    out = tmp_path / "oom"
    rc = main([*command, "--S", str(10**15), "--out", str(out)])
    assert rc == 3
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "error"
    assert payload["error"]["type"].endswith("MemoryError")


def test_dry_run_prints_seed_plan(tmp_path, capsys):
    out = tmp_path / "dry"
    rc = main(["sbc", "--model", "normal-normal", "--seed", "7",
               "--out", str(out), "--dry-run"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "seed: 7 (from flag)" in text
    assert "stream (seed, 0, i)" in text
    assert not out.exists()

    # the null's chunks are keyed by a root drawn from (seed, 0), not by seed
    assert main(["test", "--seed", "7", "--out", str(out), "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "null root: drawn from stream (seed, 0)" in text
    assert "null chunk c: stream (root, 0, c)" in text
    assert not out.exists()

    # every mode of compare and sensitivity names its own streams
    assert main(["compare", "--seed", "7", "--out", str(out), "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "one model (no [compare] section), chunk c: stream (seed, 0, c)" in text
    assert "model k seed: SeedSequence(seed, spawn_key=(9, k))" in text
    assert "model k, chunk c: stream (model k seed, 0, c)" in text
    assert main(["sensitivity", "--seed", "7", "--out", str(out), "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "power-scale mode: posterior draws: stream (seed, 0)" in text
    assert "cell i seed: SeedSequence(seed, spawn_key=(9, i))" in text
    for line in ("pipeline sbc: cell i, replication j: stream (cell i seed, 0, j)",
                 "pipeline evidence: cell i, chunk c: stream (cell i seed, 0, c)",
                 "pipeline power-scale: cell i draws: stream (cell i seed, 0)"):
        assert line in text
    assert not out.exists()


def test_compare_seed_plan_matches_streams(tmp_path):
    data = _write_data(tmp_path / "data.csv", n=4)
    y = Dataset.from_csv(data)
    cfg = tmp_path / "cmp.ini"
    cfg.write_text("[compare]\nmodels = a, b\n"
                   "[model:a]\nname = normal-normal\nn_obs = 4\n"
                   "[model:b]\nname = normal-normal\nmu0 = 1.0\nn_obs = 4\n")
    assert main(["compare", "--config", str(cfg), "--data", str(data), "--S", "500",
                 "--seed", "7", "--out", str(tmp_path / "two")]) == 0
    models = json.loads((tmp_path / "two" / "report.json").read_text())["results"]["models"]
    for k, (label, mu0) in enumerate((("a", 0.0), ("b", 1.0))):
        state = np.random.SeedSequence(7, spawn_key=(9, k)).generate_state(1, np.uint64)
        ev = marginal_likelihood_mc(NormalNormal(mu0=mu0, n_obs=4), y, s=500,
                                    seed=int(state[0] % 2**63))
        assert models[label]["log_evidence"] == ev.log_evidence
    assert main(["compare", "--model", "normal-normal", "--model-params", "n_obs=4",
                 "--data", str(data), "--S", "500", "--seed", "7",
                 "--out", str(tmp_path / "one")]) == 0
    one = json.loads((tmp_path / "one" / "report.json").read_text())["results"]
    assert one["log_evidence"] == marginal_likelihood_mc(NormalNormal(n_obs=4), y, s=500,
                                                         seed=7).log_evidence


def test_seed_resolution_order(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[pipeline]\nseed = 9\n")

    def seed_line(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.splitlines()[0]

    base = ["sbc", "--model", "normal-normal", "--dry-run",
            "--out", str(tmp_path / "o")]
    monkeypatch.setenv("SIMFLOW_SEED", "5")
    assert seed_line(base + ["--config", str(cfg), "--seed", "4"]) == \
        "seed: 4 (from flag)"
    assert seed_line(base + ["--config", str(cfg)]) == "seed: 9 (from config)"
    assert seed_line(base) == "seed: 5 (from env)"
    monkeypatch.delenv("SIMFLOW_SEED")
    assert seed_line(base) == "seed: 0 (from default)"
    for bad in ("ten", "-1"):
        monkeypatch.setenv("SIMFLOW_SEED", bad)
        assert main(base) == 2
        assert capsys.readouterr().err.startswith("error: SIMFLOW_SEED")
    for bad in ("3.5", "true"):
        cfg.write_text(f"[pipeline]\nseed = {bad}\n")
        assert main(base + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: [pipeline] seed")


def test_readme_config_example(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "[pipeline]" in ini and "seed = 7" in ini
    (tmp_path / "sbc.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SIMFLOW_SEED", raising=False)
    small = ["sbc", "--config", "sbc.ini", "--S", "20", "--M", "9"]
    assert main(small + ["--dry-run"]) == 0
    assert capsys.readouterr().out.startswith("seed: 7 (from config)\n")
    assert main(small) == 0
    payload = json.loads((tmp_path / "results" / "report.json").read_text())
    provenance = payload["seed_provenance"]
    assert (provenance["seed"], provenance["source"]) == (7, "config")
    assert payload["config"]["model"] == {"name": "normal-normal", "mu0": 0, "tau0": 1,
                                          "sigma": 1, "n_obs": 5}
    assert payload["config"]["approximator"] == {"name": "perturbed", "sd_scale": 0.5}
    assert payload["results"]["approximator"].startswith("perturbed")
    assert (payload["results"]["s"], payload["results"]["m"]) == (20, 9)
    # a flag naming the model the config names too (a TypeError once)
    assert main(small + ["--model", "normal-normal", "--model-params", "n_obs=6"]) == 0
    payload = json.loads((tmp_path / "results" / "report.json").read_text())
    assert payload["config"]["model"]["n_obs"] == 6


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    outs = [tmp_path / f"r{i}" for i in range(3)]
    argv = ["sbc", "--model", "normal-normal", "--S", "120", "--M", "19",
            "--seed", "11"]
    assert main(argv + ["--out", str(outs[0])]) == 0
    assert main(argv + ["--out", str(outs[1])]) == 0
    assert main(argv + ["--out", str(outs[2]), "--threads", "2"]) == 0
    ref = _stable(outs[0] / "report.json")
    assert _stable(outs[1] / "report.json") == ref
    assert _stable(outs[2] / "report.json") == ref
    svg_names = sorted(p.name for p in outs[0].glob("*.svg"))
    assert svg_names
    for name in svg_names:
        ref_svg = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref_svg
        assert (outs[2] / name).read_bytes() == ref_svg


def test_csv_format_writes_pvalues(tmp_path):
    out = tmp_path / "csv"
    rc = main(["sbc", "--model", "normal-normal", "--S", "60", "--M", "9",
               "--out", str(out), "--formats", "json,csv"])
    assert rc == 0
    lines = (out / "pvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "target,index,pvalue"
    assert len(lines) == 61
    assert not list(out.glob("*.svg"))


def test_csv_tables_are_built_only_when_written(tmp_path, monkeypatch):
    data = _write_data(tmp_path / "data.csv")
    argv = ["test", *_NN12, "--data", str(data), "--theta0", "0.4", "--S", "200000"]
    written = []
    write_csv = simflow.report.write_csv
    monkeypatch.setattr(simflow.report, "write_csv",
                        lambda path, *table: written.append(path.name) or write_csv(path, *table))
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 200 000-value null is 1.6 MB; a row list of it took about 27 MiB
    assert peak < 12 * 2**20
    assert written == []
    assert not list((tmp_path / "default").glob("*.csv"))
    out = tmp_path / "csv"
    assert main(argv + ["--out", str(out), "--formats", "json,csv"]) == 0
    assert written == ["null_samples.csv"]
    lines = (out / "null_samples.csv").read_text().splitlines()
    assert lines[0] == "index,value" and len(lines) == 200_001
    assert lines[-1].startswith("199999,")


def test_render_unknown_kind_warns(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text('{"results": {"kind": "mystery"}}\n')
    rc = main(["render", "--report", str(report), "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "no figure renderer" in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    ("not json\n", "JSONDecodeError"),
    ("[1, 2]\n", "AttributeError"),
    ('{"results": {"kind": "sbc", "s": 5}}\n', "KeyError"),
], ids=["not-json", "not-object", "missing-key"])
def test_render_unreadable_report_is_config_error(tmp_path, capsys, text, error):
    # each exited 1 with a traceback
    report = tmp_path / "report.json"
    report.write_text(text)
    out = tmp_path / "r"
    assert main(["render", "--report", str(report), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot render {report}") and error in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_render_regenerates_figures(tmp_path):
    out = tmp_path / "first"
    assert main(["sbc", "--model", "normal-normal", "--S", "80", "--M", "9",
                 "--seed", "2", "--out", str(out)]) == 0
    svg = next(out.glob("*.svg"))
    redo = tmp_path / "redo"
    assert main(["render", "--report", str(out / "report.json"),
                 "--out", str(redo)]) == 0
    assert (redo / svg.name).read_bytes() == svg.read_bytes()


def test_elicit_from_expert_csv(tmp_path):
    expert = tmp_path / "expert.csv"
    rows = ["target,probe,value"]
    for probe, value in zip((0.1, 0.25, 0.5, 0.75, 0.9),
                            (3.1, 4.6, 6.3, 8.2, 10.0)):
        rows.append(f"count,{probe},{value}")
    expert.write_text("\n".join(rows) + "\n")
    out = tmp_path / "el"
    rc = main(["elicit", "--expert-csv", str(expert), "--sims", "2000",
               "--max-iter", "60", "--seed", "1", "--out", str(out),
               "--formats", "json,csv"])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    lam = payload["results"]["lam"]
    assert len(lam) == 2 and all(v > 0 for v in lam)
    assert (out / "loss_trace.csv").exists()


def test_compare_two_models(tmp_path):
    data = _write_data(tmp_path / "data.csv", n=1, theta=0.5)
    cfg = tmp_path / "cmp.ini"
    cfg.write_text(
        "[compare]\nmodels = near, far\n"
        "[model:near]\nname = normal-normal\nn_obs = 1\n"
        "[model:far]\nname = normal-normal\nmu0 = 30.0\nn_obs = 1\n"
    )
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", str(cfg), "--data", str(data),
               "--S", "20000", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    models = payload["results"]["models"]
    assert models["near"]["posterior_prob"] > 0.99
    assert "near/far" in payload["results"]["log_bayes_factors"]


def test_evidence_single_model(tmp_path):
    data = _write_data(tmp_path / "data.csv", n=1, theta=0.5)
    out = tmp_path / "ev"
    rc = main(["compare", "--model", "normal-normal", "--model-params",
               "n_obs=1", "--data", str(data), "--S", "5000",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["results"]["kind"] == "evidence"
    assert np.isfinite(payload["results"]["log_evidence"])


def test_sensitivity_sweep_via_config(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[model]\nname = normal-normal\nn_obs = 5\n"
        "[sweep]\npipeline = sbc\ns = 60\nm = 9\nvary_model_tau0 = 0.5|2.0\n"
    )
    out = tmp_path / "sw"
    rc = main(["sensitivity", "--mode", "sweep", "--config", str(cfg),
               "--seed", "3", "--out", str(out), "--formats", "json,csv"])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    rows = payload["results"]["rows"]
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    assert [r["model_tau0"] for r in rows] == [0.5, 2.0]
    sweep_lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_lines) == 3


@pytest.mark.parametrize("pipeline", ["sbc", "evidence", "power-scale"])
def test_sweep_defaults(tmp_path, pipeline):
    # a sweep that sets none of its pipeline's settings runs the library call
    # at the sweep's defaults
    data = _write_data(tmp_path / "data.csv", n=5)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[model]\nname = normal-normal\nn_obs = 5\n"
                   f"[sweep]\npipeline = {pipeline}\nvary_model_tau0 = 2.0\n")
    out = tmp_path / "sw"
    # an sbc sweep reads no data, and refuses --data
    reads = [] if pipeline == "sbc" else ["--data", str(data)]
    assert main(["sensitivity", "--mode", "sweep", "--config", str(cfg), *reads,
                 "--seed", "3", "--out", str(out), "--formats", "json"]) == 0
    (row,) = json.loads((out / "report.json").read_text())["results"]["rows"]
    model, y, seed = NormalNormal(tau0=2.0, n_obs=5), Dataset.from_csv(data), row["cell_seed"]
    if pipeline == "sbc":
        result = run_sbc(model, ExactConjugate(), SbcConfig(s=200, m=99, seed=seed))
        want = {"chi2_pvalue": result.verdicts["theta[0]"].chi2_pvalue}
    elif pipeline == "evidence":
        want = {"log_evidence": marginal_likelihood_mc(model, y, s=10_000, seed=seed).log_evidence}
    else:
        draws = ExactConjugate().approximate(model, y, substream(seed, 0), m=2000)
        wd = power_scale_weights(model, y, draws, alpha_prior=1.0, alpha_lik=1.0)
        want = {"ess": wd.ess, "mean0": weighted_mean(wd, 0)}
    assert {k: row[k] for k in want} == want


def test_sweep_settings_name_subcommand_flags():
    # a renamed flag fails here, not in a user's sweep
    for sweep in simflow.cli._SWEEPS.values():
        for _, command, option in sweep.settings.values():
            assert option in simflow.cli._COMMANDS[command].flags


def test_power_scale_pipeline(tmp_path):
    data = _write_data(tmp_path / "data.csv", n=10)
    out = tmp_path / "ps"
    rc = main(["sensitivity", "--model", "normal-normal", "--model-params",
               "n_obs=10", "--data", str(data), "--M", "800",
               "--alphas", "0.5,1.0,2.0", "--seed", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    axes = payload["results"]["axes"]
    unit = [e for e in axes["likelihood"] if e["alpha"] == 1.0][0]
    assert unit["ess"] == 800.0


@pytest.mark.parametrize("module", ["simflow", "simflow.cli"])
def test_import_leaves_scipy_stats_and_optimize_unloaded(module):
    # A fresh interpreter: this process has imported both modules already.
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_elicit_run_leaves_scipy_optimize_unloaded(tmp_path):
    # elicit searches with simflow's own Nelder-Mead, so no command imports
    # scipy.optimize; a fresh interpreter, as this one may have loaded it.
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = ("import sys; from simflow.cli import main; "
            "rc = main(['elicit', '--expert-stats', '3,4,6,8,10', '--sims', '200', "
            f"'--max-iter', '5', '--out', {str(tmp_path / 'e')!r}]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split()[-2:] == ["0", "False"]


def _parser_snapshot() -> dict:
    parser = simflow.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted([list(a.option_strings), a.dest, a.default,
                          getattr(a.type, "__name__", a.type),
                          list(a.choices) if a.choices else None, a.required,
                          type(a).__name__] for a in p._actions)
            for name, p in sub.choices.items()}


def test_parser_matches_snapshot():
    # Every subcommand's options: strings, dest, default, type, choices,
    # whether required, and action. A flag added, dropped or renamed shows here.
    snapshot = json.loads((Path(__file__).with_name("parser_snapshot.json")).read_text())
    assert _parser_snapshot() == {name: sorted(opts) for name, opts in snapshot.items()}
