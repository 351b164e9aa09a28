"""Command line behavior: exit codes, seeds, and byte-stable outputs."""

import argparse
import ast
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
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
from test_golden import CONFIG_ONLY, RUNS, argv_of, write_inputs

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


def _run_opening_no_stream(argv, monkeypatch, capsys) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, with numpy.random.Philox, by
    which rng.py opens every stream, failing for the duration of main only."""
    opened = []

    def refuse(*args, **kwargs):
        opened.append(argv)
        raise AssertionError("a stream was opened")

    capsys.readouterr()
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "Philox", refuse)
        rc = main(argv)
    assert not opened, "a stream was opened"
    return rc, *capsys.readouterr()


def _refusal(argv, monkeypatch, capsys) -> tuple[int, str]:
    """The exit code and stderr of main(argv), which the same argv with
    --dry-run must give too, each opening no stream."""
    outcome = _run_opening_no_stream(argv, monkeypatch, capsys)
    assert _run_opening_no_stream([*argv, "--dry-run"], monkeypatch, capsys) == outcome
    rc, _, err = outcome
    return rc, err


def test_missing_model_is_config_error(tmp_path, capsys, monkeypatch):
    rc, err = _refusal(["sbc", "--out", str(tmp_path / "x")], monkeypatch, capsys)
    assert rc == 2
    assert "error:" in err
    assert not (tmp_path / "x" / "report.json").exists()


_FREQ = ["freq-calibrate", "--model", "normal-normal", "--theta-star", "0.3"]
_NN12 = ["--model", "normal-normal", "--model-params", "n_obs=12"]
_DATA = [*_NN12, "--data", "data.csv"]
_ABC_SBC = ["sbc", "--model", "normal-normal", "--approximator", "abc", "--S", "10", "--M", "9"]


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
    # a tolerance whose square leaves the float range (an OverflowError)
    ["elicit", "--expert-stats", "3.1,4.6,6.3,8.2,10.0", "--sims", "500", "--max-iter", "20",
     "--tolerance", "1e300"],
    # a null or true value outside the model's domain, or past the largest
    # rate numpy's Poisson draw takes (a ValueError from numpy's draw)
    *(["power", "--model", "beta-binomial", "--theta0", v, "--S", "20", "--null-s", "50"]
      for v in ("2.5", "-1", "1e300")),
    *(["power", "--model", "poisson-gamma", *pair, "--S", "20", "--null-s", "50"]
      for pair in (["--theta0", "-1"], ["--theta0", "1e300"],
                   ["--theta0", "2", "--theta-star", "1e300"])),
    # perturbed settings that are not finite (exit 1 mid-run: "parameter
    # draws must be finite")
    *(["sbc", *_NN12, "--S", "20", "--M", "9", "--approximator", "perturbed",
       "--approximator-params", p]
      for p in ("sd_scale=nan", "sd_scale=inf", "mean_shift=nan", "mean_shift=inf")),
    # abc approximator settings AbcRejection now refuses when built: no mode
    # or both (exit 1), a quantile outside (0, 1] (exit 1), no proposals
    # (ZeroDivisionError), 2.5 proposals (truncated to 2, then exit 3), a
    # tolerance no distance meets (exit 3 after 100 000 proposals), and the
    # batch size, which is no longer a setting (ran)
    [*_ABC_SBC],
    *([*_ABC_SBC, "--approximator-params", p]
      for p in ("acceptance_quantile=0.5,tolerance=0.1", "acceptance_quantile=1.5",
                "acceptance_quantile=0.5,max_proposals=0",
                "acceptance_quantile=0.5,max_proposals=2.5", "tolerance=-1", "tolerance=nan",
                "acceptance_quantile=0.5,batch_size=1000")),
    # a batch size of 0 proposed nothing, forever
    ["ppc", "--model", "normal-normal", "--model-params", "n_obs=5", "--data", "data5.csv",
     "--approximator", "abc", "--approximator-params", "tolerance=0.1,batch_size=0"],
    # a boolean for a real-valued setting (read as 1.0 while the report
    # echoed true; the abc quantile kept every proposal)
    *(["sbc", "--model", model, "--model-params", p, "--S", "20", "--M", "9"]
      for model, p in (("normal-normal", "tau0=true"), ("beta-binomial", "a=true"))),
    *(["sbc", "--model", "normal-normal", "--approximator", name, "--approximator-params", p,
       "--S", "20", "--M", "9"]
      for name, p in (("perturbed", "sd_scale=true"), ("rwm", "step_sd=true"),
                      ("abc", "acceptance_quantile=true,max_proposals=2000"))),
    # a [compare] key other than models (ignored, and echoed into the report)
    ["compare", "--config", "compare-bogus.ini", "--data", "data.csv", "--S", "100"],
    # a [pipeline] or [output] key no flag reads, and a section nothing reads
    # (each ignored)
    *(["sbc", *_NN12, "--S", "20", "--M", "9", "--config", f"{name}.ini"]
      for name in ("pipeline-bogus", "output-formatz", "section-bogus", "section-default")),
])
def test_invalid_numbers_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, line in {"threads": "threads = abc", "seed": "seed = -3", "s-abc": "s = abc",
                       "alpha-abc": "alpha = abc", "bins": "bins = 3.5", "s-frac": "s = 20.9",
                       "n-trials": "n_trials = 20.5"}.items():
        (tmp_path / f"{name}.ini").write_text(f"[pipeline]\n{line}\n")
    for name, text in {"pipeline-bogus": "[pipeline]\nbogus = 3\n",
                       "output-formatz": "[output]\nformatz = csv\n",
                       "section-bogus": "[pipelines]\ns = 20\n",
                       "section-default": "[DEFAULT]\ns = 20\n[pipeline]\nm = 9\n"}.items():
        (tmp_path / f"{name}.ini").write_text(text)
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
    (tmp_path / "compare-bogus.ini").write_text(
        "[compare]\nmodels = a, b\nbogus = 3\n[model:a]\nname = normal-normal\nn_obs = 12\n"
        "[model:b]\nname = normal-normal\nmu0 = 1\nn_obs = 12\n")
    _write_data(tmp_path / "data.csv")
    _write_data(tmp_path / "data5.csv", n=5)
    (tmp_path / "empty.csv").write_text("y0\n")
    (tmp_path / "const.csv").write_text("y0\n2\n2\n2\n2\n")
    out = tmp_path / "x"
    rc, err = _refusal(argv + ["--out", str(out)], monkeypatch, capsys)
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "report.json").exists()
    if "compare-bogus.ini" in argv:
        assert "'bogus'" in err and "takes only models" in err
    if "pipeline-bogus.ini" in argv or "output-formatz.ini" in argv:
        assert err.startswith("error: unknown [") and ("'bogus'" in err or "'formatz'" in err)
    if "section-bogus.ini" in argv or "section-default.ini" in argv:
        assert err.startswith("error: unknown config section [")


def test_a_config_key_another_subcommand_reads_is_accepted(tmp_path, capsys):
    # a config shared between subcommands: prior-check reads no m, sbc does
    ini = tmp_path / "shared.ini"
    ini.write_text("[model]\nname = normal-normal\n[pipeline]\ns = 20\nm = 9\n"
                   "[output]\nformats = json\n")
    for argv in (["sbc"], ["prior-check", "--region=-1,1"]):
        assert main([*argv, "--config", str(ini), "--out", str(tmp_path / argv[0])]) == 0
    assert capsys.readouterr().err == ""


def test_undefined_statistic_exits_before_the_null(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const.csv").write_text("y0\n2\n2\n2\n2\n")
    monkeypatch.setattr(simflow.simtest, "simulate_null",
                        lambda *args, **kwargs: pytest.fail("the null was simulated"))
    assert main(["test", "--model", "poisson-gamma", "--data", "const.csv",
                 "--statistic", "lag1-autocorr", "--theta0", "2", "--out", "x"]) == 2
    assert "undefined" in capsys.readouterr().err


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_power_scaling_weights_that_are_not_finite_exit_3(tmp_path, capsys, monkeypatch):
    # draws spread by 1e154 overflow the log likelihood, and inf - inf log
    # weights wrote NaN into the report with two RuntimeWarnings (exit 0)
    monkeypatch.chdir(tmp_path)
    _write_data(tmp_path / "data.csv", n=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sensitivity", "--model", "normal-normal", "--model-params", "n_obs=10",
                   "--data", "data.csv", "--approximator", "perturbed",
                   "--approximator-params", "sd_scale=1e154", "--M", "200", "--out", "x"])
    assert rc == 3 and [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert _strict_json(tmp_path / "x" / "report.json")["error"]["type"] == "RuntimeError"


def test_evidence_of_zero_likelihood_everywhere_is_strict_json(tmp_path, capsys,
                                                               monkeypatch):
    # an observation of 1e200 overflows every prior draw's squared deviation:
    # compare and the evidence sweep wrote -Infinity and NaN (and NaN log
    # Bayes factors) with RuntimeWarnings on stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("y0\n1e200\n2\n")
    model = "[model:{0}]\nname = normal-normal\nn_obs = 2\nmu0 = {1}\n"
    (tmp_path / "two.ini").write_text("[compare]\nmodels = a, b\n" + model.format("a", 0)
                                      + model.format("b", 1))
    (tmp_path / "sweep.ini").write_text("[model]\nname = normal-normal\nn_obs = 2\n"
                                        "[sweep]\npipeline = evidence\ns = 100\n"
                                        "vary_model_tau0 = 1|2\n")
    runs = {"one": ["compare", "--model", "normal-normal", "--model-params", "n_obs=2",
                    "--S", "100"],
            "two": ["compare", "--config", "two.ini", "--S", "100"],
            "sweep": ["sensitivity", "--mode", "sweep", "--config", "sweep.ini"]}
    results = {}
    for name, argv in runs.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--data", "big.csv", "--out", name]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        results[name] = _strict_json(tmp_path / name / "report.json")["results"]
    evidences = [results["one"], *results["two"]["models"].values(), *results["sweep"]["rows"]]
    assert len(evidences) == 5
    for ev in evidences:
        assert ev["log_evidence"] is None and ev["mc_se_log"] is None
    assert all(ev["all_zero"] for ev in evidences[:3])
    assert results["two"]["log_bayes_factors"] == {"a/b": None, "b/a": None}


def test_accuracy_distance_overflow_is_named(tmp_path, capsys):
    # exited 3 with "estimator failed on every simulated dataset" and an
    # overflow warning: the estimates were finite, their squared distance
    # from a truth of 1e300 was not
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["accuracy", "--model", "normal-normal", "--theta-star", "1e300",
                   "--S", "50", "--out", str(out)])
    assert rc == 3 and caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: the squared_error of estimate") and err.count("\n") == 1
    assert "overflowed" in err
    payload = _strict_json(out / "report.json")
    assert payload["status"] == "error" and payload["error"]["type"] == "RuntimeError"


def test_histogram_leaves_out_undefined_replications(tmp_path, capsys, monkeypatch):
    # a constant replication has lag-1 autocorrelation 0/0 (a NaN that
    # np.histogram refused with a traceback)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("y0\n0\n1\n0\n0\n")
    assert main(["ppc", "--model", "poisson-gamma", "--model-params", "a=3,b=1,n_obs=4",
                 "--statistic", "lag1-autocorr", "--S", "200", "--data", "data.csv",
                 "--out", "x"]) == 0
    assert "warning" not in capsys.readouterr().err.lower()
    hist = _strict_json(tmp_path / "x" / "report.json")["results"]["replication_histogram"]
    assert hist["not_finite"] > 0
    assert sum(hist["counts"]) + hist["not_finite"] == 200


def test_histogram_of_a_range_numpy_cannot_split(tmp_path, monkeypatch):
    # null draws that all round to one float near 1e300 ("Too many bins")
    monkeypatch.chdir(tmp_path)
    _write_data(tmp_path / "data.csv")
    assert main(["test", *_DATA, "--theta0", "1e300", "--S", "2000", "--out", "x",
                 "--formats", "json"]) == 0
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    hist = report["results"]["null_histogram"]
    assert hist["counts"] == [2000] and "not_finite" not in hist
    assert hist["edges"][0] < hist["edges"][1] and np.all(np.isfinite(hist["edges"]))


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
    Dataset(np.arange(1.0, 9.0), np.repeat([0, 1], 4)).to_csv("grouped.csv")
    (tmp_path / "compare-ln.ini").write_text(
        "[compare]\nmodels = a, b\n[model:a]\nname = normal-normal\n"
        "[model:b]\nname = lognormal-two-group\n")
    (tmp_path / "sweep-ln.ini").write_text(
        "[model]\nname = lognormal-two-group\n[sweep]\npipeline = sbc\nm = 9\n"
        "vary_s = 10|20\n")
    out = tmp_path / "x"
    rc, err = _refusal(argv + ["--out", str(out)], monkeypatch, capsys)
    assert rc == 2
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


def test_ppc_draws_outside_the_domain_write_partial_report(tmp_path, capsys):
    # perturbed beta-binomial draws far outside [0, 1] reached numpy's
    # binomial draw: "p < 0, p > 1 or p contains NaNs", exit 1
    data = tmp_path / "counts.csv"
    data.write_text("y0\n3\n5\n2\n")
    out = tmp_path / "ppc"
    rc = main(["ppc", "--model", "beta-binomial", "--approximator", "perturbed",
               "--approximator-params", "sd_scale=1e154", "--data", str(data),
               "--out", str(out)])
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "error"
    assert payload["error"]["type"] == "DomainError"


def test_null_sd_near_the_float_limit_is_strict_json(tmp_path, capsys):
    # null draws of 1e300 whose squared deviations overflow: null_sd was
    # Infinity, with "overflow encountered in square" on stderr
    data = tmp_path / "big.csv"
    data.write_text("y0\n1e300\n1e300\n-1e300\n")
    out = tmp_path / "test"
    assert main(["test", "--model", "normal-normal", "--theta0", "1e300", "--data", str(data),
                 "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err.lower()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    results = json.loads((out / "report.json").read_text(), parse_constant=refuse)["results"]
    null = simflow.simtest.simulate_null(NormalNormal(n_obs=3), [1e300],
                                         simflow.simtest.mean_stat, 10_000, substream(0, 0))
    scale = Fraction(float(np.abs(null.values).max()))
    exact = [Fraction(float(v)) / scale for v in null.values]
    mean = sum(exact) / len(exact)
    sd = math.sqrt(sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)) * float(scale)
    assert abs(results["null_sd"] - sd) <= 1e-12 * float(scale)


def test_null_mean_near_the_float_limit_is_strict_json(tmp_path, capsys):
    # one value 1e308: the sum of the null draws overflowed, so null_mean was
    # Infinity, with "overflow encountered in reduce" on stderr
    data = tmp_path / "big.csv"
    data.write_text("y0\n1e308\n")
    out = tmp_path / "test"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["test", "--model", "normal-normal", "--model-params", "n_obs=1",
                     "--theta0", "1e308", "--data", str(data), "--out", str(out)]) == 0
    assert not caught
    assert "warning" not in capsys.readouterr().err.lower()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    results = json.loads((out / "report.json").read_text(), parse_constant=refuse)["results"]
    null = simflow.simtest.simulate_null(NormalNormal(n_obs=1), [1e308],
                                         simflow.simtest.mean_stat, 10_000, substream(0, 0))
    exact = sum(Fraction(float(v)) for v in null.values) / len(null.values)
    assert math.isfinite(results["null_mean"])
    assert abs(Fraction(results["null_mean"]) - exact) <= Fraction(1e-12) * exact


@pytest.mark.parametrize("argv", [
    ["post-sbc", *_NN12, "--S", "20", "--M", "9"],
    ["test", *_NN12, "--theta0", "0", "--S", "200"],
    ["test", *_NN12, "--theta0", "0", "--S", "200", "--statistic", "max"],
    ["ppc", *_NN12, "--S", "200"],
    ["abc", *_NN12, "--quantile", "0.1", "--M", "20"],
    ["compare", *_NN12, "--S", "100"],
    ["sensitivity", *_NN12, "--M", "100"],
    ["sensitivity", "--mode", "sweep", "--config", "sweep-evidence.ini"],
])
@pytest.mark.parametrize("text", ["y0,y1\n1,10\n2,20\n3,30\n",
                                  "y0,y1,group\n1,10,0\n2,20,1\n3,30,1\n",
                                  "y0\n1,10\n2,20\n3,30\n"],
                         ids=["two-columns", "two-columns-and-group", "wide-rows"])
def test_data_with_more_than_one_observation_column_is_config_error(tmp_path, capsys,
                                                                     monkeypatch, argv, text):
    # each ran with exit 0: most statistics read y0 only, max read both
    # columns, and post-sbc exited 1 ("cannot concatenate datasets with
    # different obs_dim")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.csv").write_text(text)
    (tmp_path / "sweep-evidence.ini").write_text(
        "[model]\nname = normal-normal\nn_obs = 12\n[sweep]\npipeline = evidence\n"
        "s = 20\nvary_model_tau0 = 1\n")
    out = tmp_path / "x"
    rc, err = _refusal([*argv, "--data", "wide.csv", "--out", str(out)], monkeypatch, capsys)
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("n_obs", ["1e12", "4e18", "9e18"])
@pytest.mark.parametrize("model", ["normal-normal", "beta-binomial", "poisson-gamma"])
@pytest.mark.parametrize("command", [["sbc"], ["accuracy", "--theta-star", "0.3"],
                                     ["prior-check", "--region=-1,1"],
                                     ["power", "--theta0", "0.5"]])
def test_a_block_too_large_to_allocate_exits_3(tmp_path, capsys, command, model, n_obs):
    # 4e18 and 9e18 values a row are more bytes than numpy can hold: its
    # "array is too big" ValueError escaped with exit 1; prior-check and
    # power exited 2 first, as their statistic probe built a whole dataset
    # ("statistic 'mean' does not apply")
    out = tmp_path / "x"
    assert main([*command, "--model", model, "--model-params", f"n_obs={n_obs}",
                 "--S", "20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert _strict_json(out / "report.json")["error"]["type"] == "MemoryError"


@pytest.mark.parametrize("label", ["sbc-abc", "ppc-abc"])
def test_an_abc_pool_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch, label):
    # quantile mode draws its whole pool of max_proposals at once; 1e154 of
    # them escaped as numpy's "Maximum allowed dimension exceeded" (exit 1)
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    argv = [re.sub(r"max_proposals=\d+", "max_proposals=1e154", a) for a in argv_of(label)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert _strict_json(tmp_path / label / "report.json")["error"]["type"] == "MemoryError"


@pytest.mark.parametrize("label", ["sbc-rwm", "post-sbc-rwm"])
def test_an_rwm_run_too_long_to_address_exits_3(tmp_path, capsys, monkeypatch, label):
    # warmup=1e154 ran its iterations past any timeout; the alarm fails the
    # test instead of hanging it
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    argv = [re.sub(r"warmup=\d+", "warmup=1e154", a) for a in argv_of(label)]

    def hung(signum, frame):
        pytest.fail("the run did not refuse its iterations before starting them")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        assert main(argv) == 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert _strict_json(tmp_path / label / "report.json")["error"]["type"] == "MemoryError"


def test_infinite_abc_tolerance_is_echoed_as_strict_json(tmp_path, monkeypatch):
    # the library takes tolerance=inf (every proposal accepted); the config
    # echo wrote it as Infinity, which is not JSON
    monkeypatch.chdir(tmp_path)
    argv = [re.sub(r"tolerance=[\d.]+", "tolerance=inf", a)
            for a in argv_of("sbc-abc-tolerance")]
    assert main(argv) == 0
    report = _strict_json(tmp_path / "sbc-abc-tolerance" / "report.json")
    assert report["config"]["approximator"]["tolerance"] == "inf"


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
    data = str(_write_data(tmp_path / "data.csv"))
    rc = main(["sbc", "--model", "normal-normal", "--seed", "7",
               "--out", str(out), "--dry-run"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "seed: 7 (from flag)" in text
    assert "stream (seed, 0, i)" in text
    assert not out.exists()

    # the null's chunks are keyed by a root drawn from (seed, 0), not by seed
    assert main(["test", *_NN12, "--data", data, "--theta0", "0", "--seed", "7",
                 "--out", str(out), "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "null root: drawn from stream (seed, 0)" in text
    assert "null chunk c: stream (root, 0, c)" in text
    assert not out.exists()

    # every mode of compare and sensitivity names its own streams
    assert main(["compare", *_NN12, "--data", data, "--seed", "7", "--out", str(out),
                 "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "one model (no [compare] section), chunk c: stream (seed, 0, c)" in text
    assert "model k seed: SeedSequence(seed, spawn_key=(9, k))" in text
    assert "model k, chunk c: stream (model k seed, 0, c)" in text
    assert main(["sensitivity", *_NN12, "--data", data, "--seed", "7", "--out", str(out),
                 "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "power-scale mode: posterior draws: stream (seed, 0)" in text
    assert "cell i seed: SeedSequence(seed, spawn_key=(9, i))" in text
    for line in ("pipeline sbc: cell i, replication j: stream (cell i seed, 0, j)",
                 "pipeline evidence: cell i, chunk c: stream (cell i seed, 0, c)",
                 "pipeline power-scale: cell i draws: stream (cell i seed, 0)"):
        assert line in text
    assert not out.exists()


@pytest.mark.parametrize("label", sorted(RUNS))
def test_golden_dry_run_prints_plan_and_opens_no_stream(tmp_path, capsys, monkeypatch,
                                                        label):
    # a dry run resolves everything the run does (model, approximator,
    # statistic, data, [sweep] cells), then prints the plan and stops
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    if label == "render":  # it reads the sbc run's report
        assert main(argv_of("sbc")) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    rc, out, err = _run_opening_no_stream([*argv_of(label), "--dry-run"], monkeypatch, capsys)
    source = "config" if label in CONFIG_ONLY else "flag"
    plan = simflow.cli._COMMANDS[RUNS[label][0]].plan
    assert (rc, err) == (0, "")
    assert out == "".join(f"{line}\n" for line in [f"seed: 5 (from {source})",
                                                   *(f"  {p}" for p in plan),
                                                   "dry run: nothing simulated"])
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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


def _assert_same_outputs(outs):
    """Every file of each output directory is the first one's, byte for byte
    (a report apart from its timing)."""
    names = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in names
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            read = _stable if name == "report.json" else Path.read_bytes
            assert read(out / name) == read(outs[0] / name), (out, name)


def test_reports_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    outs = [tmp_path / f"r{i}" for i in range(3)]
    argv = ["sbc", "--model", "normal-normal", "--S", "120", "--M", "19",
            "--seed", "11"]
    assert main(argv + ["--out", str(outs[0])]) == 0
    assert main(argv + ["--out", str(outs[1])]) == 0
    assert main(argv + ["--out", str(outs[2]), "--threads", "2"]) == 0
    assert list(outs[0].glob("*.svg"))
    _assert_same_outputs(outs)
    # the null of test (four chunks) and the evidences of compare (three
    # chunks each), with the chunks run on one thread and on four
    data = _write_data(tmp_path / "data.csv")
    ini = tmp_path / "two.ini"
    ini.write_text("[compare]\nmodels = a, b\n[model:a]\nname = normal-normal\nn_obs = 12\n"
                   "[model:b]\nname = normal-normal\nn_obs = 12\nmu0 = 1\n")
    for command in (["test", *_NN12, "--data", str(data), "--theta0", "0.4", "--S", "50000"],
                    ["compare", "--config", str(ini), "--data", str(data), "--S", "250000"]):
        outs = []
        for workers in (1, 4):
            monkeypatch.setattr(simflow.rng, "usable_cpus", lambda w=workers: w)
            outs.append(tmp_path / f"{command[0]}-{workers}")
            assert main([*command, "--seed", "11", "--formats", "json,csv,svg",
                         "--out", str(outs[-1])]) == 0
        _assert_same_outputs(outs)


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
def test_render_unreadable_report_is_config_error(tmp_path, capsys, monkeypatch, text, error):
    # each exited 1 with a traceback
    report = tmp_path / "report.json"
    report.write_text(text)
    out = tmp_path / "r"
    rc, err = _refusal(["render", "--report", str(report), "--out", str(out)], monkeypatch,
                       capsys)
    assert rc == 2
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
    # a renamed subcommand or flag fails here, not in a user's sweep
    for sweep in simflow.cli._SWEEPS.values():
        flags = simflow.cli._COMMANDS[sweep.command].flags
        for _, option in sweep.settings.values():
            assert option in flags


def test_needs_are_capabilities_and_declared_once():
    # a misspelt need would refuse every model; a handler that checks its
    # own needs repeats what its _COMMANDS row declares
    fields = {f.name for f in dataclasses.fields(simflow.models.Capabilities)}
    for command in simflow.cli._COMMANDS.values():
        assert set(command.needs) <= fields
    for cls in simflow.cli._APPROXIMATORS.values():
        assert set(cls.needs) <= fields
    tree = ast.parse(Path(simflow.cli.__file__).read_text())
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == len({c.handler for c in simflow.cli._COMMANDS.values()})
    for handler in handlers:
        calls = {node.func.id for node in ast.walk(handler)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_require" not in calls, handler.name


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


_TEST_RESAMPLED = ["test", "--model", "poisson-gamma", "--model-params", "a=3,b=1,n_obs=4",
                   "--statistic", "lag1-autocorr", "--theta0", "2", "--S", "2000",
                   "--data", "y.csv", "--seed", "0", "--out", "out"]


def _cli(cwd, argv: list[str]) -> subprocess.CompletedProcess:
    """main(argv) in a fresh interpreter, whose warnings no pytest hook
    records."""
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = "import sys\nfrom simflow.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_a_warning_is_one_line(tmp_path):
    # the null draws resampled are counted in the report (n_resampled);
    # stderr says so in one line, with no source line
    (tmp_path / "y.csv").write_text("y0\n0\n1\n0\n0\n")
    proc = _cli(tmp_path, _TEST_RESAMPLED)
    assert (proc.returncode, proc.stderr) == (
        0, "warning: 22 null draws resampled (lag1-autocorr undefined)\n")
    assert json.loads((tmp_path / "out" / "report.json").read_text()
                      )["results"]["n_resampled"] == 22


def test_a_warning_of_render_is_one_line(tmp_path, monkeypatch):
    # a figure skipped while resolving warns in the same form, and the
    # report's kind, which has a renderer, draws no "no figure renderer" line
    # (it printed a source line, then that wrong line)
    monkeypatch.chdir(tmp_path)
    assert main(["sbc", "--model", "normal-normal", "--S", "20", "--M", "9", "--out", "sbc",
                 "--formats", "json"]) == 0
    payload = json.loads((tmp_path / "sbc" / "report.json").read_text())
    for target in payload["results"]["targets"].values():
        target["pvalues"] = []
    (tmp_path / "blank.json").write_text(json.dumps(payload))
    proc = _cli(tmp_path, ["render", "--report", "blank.json", "--out", "r"])
    assert (proc.returncode, proc.stderr) == (
        0, "warning: target 'theta[0]' has no p-values; figure skipped\n")


def test_main_leaves_warnings_to_a_caller_that_records_them(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "y.csv").write_text("y0\n0\n1\n0\n0\n")
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_TEST_RESAMPLED) == 0
    assert [str(w.message) for w in caught] == [
        "22 null draws resampled (lag1-autocorr undefined)"]
    assert warnings.formatwarning is formatwarning


_SCIPY = ("scipy.special", "scipy.stats", "scipy.optimize")
# modules no simflow import loads; main loads numpy.ma, and scipy.special
# for a `special` row, before the clock of a run that executes
_LAZY = ("numpy.ma", *_SCIPY)


@pytest.mark.parametrize("module", ["simflow", "simflow.cli"])
def test_import_leaves_scipy_stats_and_optimize_unloaded(module):
    # A fresh interpreter: this process has imported both modules already.
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = f"import sys, {module}; print(sorted(m for m in {_LAZY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _fresh_golden_run(tmp_path, label: str, code: str) -> str:
    """The output of code, run in a fresh interpreter in a directory holding
    the golden inputs, after `argv` is bound to the golden run's argv."""
    write_inputs(tmp_path)
    if label == "render":  # the report it renders
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path)
            assert main(argv_of("sbc")) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = f"import sys\nargv = {argv_of(label)!r}\n{code}"
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True).stdout


# main(argv) with its clock watched: the exit code, which of _LAZY were
# loaded by the import and which at the clock's first read, and which scipy
# modules at the end
_CLOCKED_MAIN = (
    "import time\nfrom simflow.cli import main\n"
    f"def lazy(): return sorted(m for m in {_LAZY!r} if m in sys.modules)\n"
    "imported, clock, read = lazy(), [], time.perf_counter\n"
    "def perf_counter():\n"
    "    clock.append(lazy())\n"
    "    return read()\n"
    "time.perf_counter = perf_counter\n"
    "rc = main(argv)\n"
    f"print(rc, imported, clock[0], sorted(m for m in {_SCIPY!r} if m in sys.modules))")


@pytest.mark.parametrize("label", ["power", "accuracy", "test", "ppc", "prior-check", "abc",
                                   "compare", "compare-models", "sensitivity", "render"])
def test_run_leaves_scipy_special_unloaded(tmp_path, label):
    # each subcommand whose _COMMANDS row leaves `special` unset, at its
    # golden argv, has numpy.ma (which np.quantile and np.unique load)
    # loaded by main, not by the import, when main starts its clock, and
    # imports none of scipy.special, scipy.stats and scipy.optimize
    assert not simflow.cli._COMMANDS[RUNS[label][0]].special
    out = _fresh_golden_run(tmp_path, label, _CLOCKED_MAIN)
    assert out.split("\n")[-2] == "0 [] ['numpy.ma'] []"


@pytest.mark.parametrize("label", ["sbc", "post-sbc", "freq-calibrate", "elicit"])
def test_special_rows_load_scipy_special_before_the_clock(tmp_path, label):
    # a row with `special` set has numpy.ma and scipy.special loaded by
    # main, not by the import, when main starts its clock, so
    # timing_seconds leaves the imports out; scipy.stats and scipy.optimize
    # stay unloaded (elicit searches with simflow's own Nelder-Mead)
    assert simflow.cli._COMMANDS[RUNS[label][0]].special
    out = _fresh_golden_run(tmp_path, label, _CLOCKED_MAIN)
    assert out.split("\n")[-2] == "0 [] ['numpy.ma', 'scipy.special'] ['scipy.special']"


@pytest.mark.parametrize("label", sorted(RUNS))
def test_dry_run_loads_neither_numpy_ma_nor_scipy_special(tmp_path, label):
    # resolving calls neither; only freq-calibrate-t's t law, which
    # resolving builds from scipy.stats, loads both through it
    out = _fresh_golden_run(tmp_path, label, (
        "from simflow.cli import main\n"
        "rc = main([*argv, '--dry-run'])\n"
        "print(rc, sorted(m for m in ('numpy.ma', 'scipy.special') if m in sys.modules))"))
    loaded = "['numpy.ma', 'scipy.special']" if label == "freq-calibrate-t" else "[]"
    assert out.split("\n")[-2] == f"0 {loaded}"


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
