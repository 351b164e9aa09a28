"""Golden reports: every subcommand at small sizes, hashed.

Each run's report.json (without its timing_seconds line) and each CSV and
SVG it writes is hashed with sha256 and compared with the table in
golden.json.
A refactor must keep every entry. After an intended change to report
bytes, refresh the table with

    PYTHONPATH=src python tests/test_golden.py

and list each changed entry in CHANGES.md.
"""

import configparser
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from simflow import cli
from simflow.cli import main

TABLE = Path(__file__).with_name("golden.json")
TIMING = re.compile(rb'\n[ ]*"timing_seconds": [^\n]*')
GOLDEN = json.loads(TABLE.read_text()) if TABLE.is_file() else {}

SWEEP_INI = """\
[model]
name = normal-normal
n_obs = 5
[sweep]
pipeline = sbc
s = 30
m = 9
vary_model_tau0 = 0.5|2.0
"""

# input files written into the working directory before the runs
INPUTS = {
    "sweep.ini": SWEEP_INI,
    "sweep-evidence.ini": SWEEP_INI.replace("pipeline = sbc\ns = 30\nm = 9\n",
                                            "pipeline = evidence\ns = 500\n"),
    "sweep-power-scale.ini": SWEEP_INI.replace("pipeline = sbc\ns = 30\nm = 9\n",
                                               "pipeline = power-scale\nm = 200\n"
                                               "alpha_prior = 0.5\n"),
    "compare.ini": """\
[compare]
models = near, far
[model:near]
name = normal-normal
n_obs = 12
[model:far]
name = normal-normal
mu0 = 2.0
n_obs = 12
""",
    "sbc.ini": """\
[model]
name = normal-normal
n_obs = 12
[approximator]
name = perturbed
sd_scale = 0.8
[pipeline]
seed = 5
s = 40
m = 19
bins = 5
band_coverage = 0.9
[output]
dir = sbc-config
formats = json,csv
""",
    "expert.csv": "target,probe,value\n" + "".join(
        f"count,{p},{v}\n" for p, v in zip((0.1, 0.25, 0.5, 0.75, 0.9),
                                          (3.1, 4.6, 6.3, 8.2, 10.0))),
    # two groups of ten positive values, for the two-group statistics
    "grouped.csv": "y0,group\n" + "".join(
        f"{v:.17g},{i // 10}\n"
        for i, v in enumerate(np.exp(np.random.default_rng(4).normal(size=20)))),
    # integer counts for the beta-binomial (n_trials = 10) and Poisson-gamma models
    "counts-binomial.csv": "y0\n" + "".join(f"{k}\n" for k in (3, 7, 5, 6, 4, 8, 5, 2)),
    "counts-poisson.csv": "y0\n" + "".join(f"{k}\n" for k in (2, 0, 3, 1, 4, 2, 5, 1)),
}

NN12 = ["--model", "normal-normal", "--model-params", "n_obs=12"]
TWO_GROUP = ["test", "--model", "lognormal-two-group", "--data", "grouped.csv",
             "--theta0", "0,0", "--S", "2000", "--statistic"]

# label -> argv; runs in order, in one working directory, with relative paths.
# Every run but those in CONFIG_ONLY also gets --seed 5 --out LABEL and
# --formats json,csv,svg.
RUNS = {
    "sbc": ["sbc", *NN12, "--S", "60", "--M", "19"],
    "sbc-perturbed": ["sbc", "--model", "beta-binomial", "--approximator", "perturbed",
                      "--approximator-params", "sd_scale=0.5", "--S", "60", "--M", "19"],
    "post-sbc": ["post-sbc", *NN12, "--data", "data.csv", "--S", "40", "--M", "19"],
    "freq-calibrate": ["freq-calibrate", *NN12, "--theta-star", "0.3",
                       "--estimator", "posterior-mean",
                       "--sampling", "normal:0.28,0.28", "--S", "100"],
    "power": ["power", *NN12, "--theta-star", "0.5", "--theta0", "0",
              "--null-s", "500", "--S", "50"],
    "accuracy": ["accuracy", *NN12, "--theta-star", "prior",
                 "--estimator", "posterior-mean", "--S", "100"],
    "test": ["test", *NN12, "--data", "data.csv", "--theta0", "0", "--S", "2000"],
    "ppc": ["ppc", *NN12, "--data", "data.csv", "--S", "200"],
    "prior-check": ["prior-check", *NN12, "--region=-1,1", "--S", "2000"],
    "elicit": ["elicit", "--expert-stats", "3.1,4.6,6.3,8.2,10.0", "--sims", "500",
               "--max-iter", "20", "--tolerance", "0"],
    "abc": ["abc", *NN12, "--data", "data.csv", "--quantile", "0.05", "--M", "100"],
    "compare": ["compare", *NN12, "--data", "data.csv", "--S", "2000"],
    "sensitivity": ["sensitivity", *NN12, "--data", "data.csv", "--M", "400"],
    # M = 401 is not a multiple of the 4 chains, so RWM's draws are cut short
    "sensitivity-rwm": ["sensitivity", *NN12, "--data", "data.csv", "--M", "401",
                        "--approximator", "rwm"],
    # SBC and posterior SBC with RWM; M = 19 is not a multiple of the 3 chains
    "sbc-rwm": ["sbc", *NN12, "--approximator", "rwm",
                "--approximator-params", "chains=3,warmup=40", "--S", "40", "--M", "19"],
    "post-sbc-rwm": ["post-sbc", *NN12, "--data", "data.csv", "--approximator", "rwm",
                     "--approximator-params", "chains=3,warmup=40", "--S", "40", "--M", "19"],
    "sweep": ["sensitivity", "--mode", "sweep", "--config", "sweep.ini"],
    "render": ["render", "--report", "sbc/report.json"],
    "compare-models": ["compare", "--config", "compare.ini", "--data", "data.csv",
                       "--S", "2000"],
    "power-z": ["power", *NN12, "--test", "z", "--sigma", "1", "--theta-star", "0.5",
                "--theta0", "0.1", "--S", "50"],
    "ppc-theta-hat": ["ppc", *NN12, "--data", "data.csv", "--theta-hat", "0.4",
                      "--S", "200"],
    "sweep-evidence": ["sensitivity", "--mode", "sweep", "--config", "sweep-evidence.ini",
                       "--data", "data.csv"],
    "sweep-power-scale": ["sensitivity", "--mode", "sweep",
                          "--config", "sweep-power-scale.ini", "--data", "data.csv"],
    "freq-calibrate-t": ["freq-calibrate", *NN12, "--theta-star", "0.3",
                         "--sampling", "t:9,0.3,0.28", "--S", "100"],
    "abc-tolerance": ["abc", *NN12, "--data", "data.csv", "--tolerance", "0.2",
                      "--M", "100"],
    "elicit-csv": ["elicit", "--expert-csv", "expert.csv", "--sims", "500",
                   "--max-iter", "20", "--tolerance", "0"],
    "sbc-config": ["sbc", "--config", "sbc.ini"],
    # one run for each built-in statistic and distance the runs above leave out
    "test-max": ["test", *NN12, "--data", "data.csv", "--theta0", "0", "--statistic", "max",
                 "--S", "2000"],
    "ppc-lag1": ["ppc", *NN12, "--data", "data.csv", "--statistic", "lag1-autocorr",
                 "--S", "200"],
    "test-mean-diff": [*TWO_GROUP, "mean-diff"],
    "test-pooled-t": [*TWO_GROUP, "pooled-t"],
    "test-variance-ratio": [*TWO_GROUP, "variance-ratio"],
    "abc-count": ["abc", *NN12, "--data", "data.csv", "--distance", "count-distance",
                  "--quantile", "0.05", "--M", "100"],
    # the count models' prior draws and prior densities
    "sbc-poisson": ["sbc", "--model", "poisson-gamma", "--S", "60", "--M", "19"],
    "sensitivity-rwm-beta": ["sensitivity", "--model", "beta-binomial",
                             "--data", "counts-binomial.csv", "--M", "400",
                             "--approximator", "rwm"],
    "sensitivity-poisson": ["sensitivity", "--model", "poisson-gamma",
                            "--data", "counts-poisson.csv", "--M", "400"],
    # perturbed draws for one dataset, and one-dataset draws from a beta posterior
    "ppc-perturbed-beta": ["ppc", "--model", "beta-binomial", "--data", "counts-binomial.csv",
                           "--approximator", "perturbed",
                           "--approximator-params", "mean_shift=0.3,sd_scale=0.7",
                           "--S", "200"],
    "post-sbc-perturbed-poisson": ["post-sbc", "--model", "poisson-gamma",
                                   "--data", "counts-poisson.csv", "--approximator", "perturbed",
                                   "--approximator-params", "mean_shift=0.3,sd_scale=0.7",
                                   "--S", "40", "--M", "19"],
    "sensitivity-perturbed-beta": ["sensitivity", "--model", "beta-binomial",
                                   "--data", "counts-binomial.csv", "--approximator", "perturbed",
                                   "--approximator-params", "sd_scale=0.7", "--M", "400"],
    # a discrete statistic ranked against its null (ties), the lower and
    # two-sided power tests, and accuracy with the sample mean and absolute error
    "power-poisson-two-sided": ["power", "--model", "poisson-gamma",
                                "--model-params", "a=3,b=1,n_obs=5", "--theta-star", "2",
                                "--theta0", "2.5", "--side", "two_sided", "--null-s", "500",
                                "--S", "50"],
    "power-beta-lower": ["power", "--model", "beta-binomial", "--theta-star", "0.3",
                         "--theta0", "0.5", "--side", "lower", "--null-s", "500", "--S", "50"],
    "accuracy-sample-mean-absolute": ["accuracy", *NN12, "--theta-star", "0.3",
                                      "--estimator", "sample-mean", "--distance", "absolute",
                                      "--S", "100"],
}

# runs that take seed, output directory and formats from their config
CONFIG_ONLY = {"sbc-config"}


def run_all(workdir: Path) -> dict[str, str]:
    """Run every command in workdir; return {output file: sha256}."""
    y = np.random.default_rng(3).normal(0.4, 1.0, size=12)
    (workdir / "data.csv").write_text("y0\n" + "".join(f"{v:.17g}\n" for v in y))
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    digests = {}
    for label, argv in RUNS.items():
        flags = [] if label in CONFIG_ONLY else [
            "--seed", "5", "--out", label, "--formats", "json,csv,svg"]
        rc = main([*argv, *flags])
        assert rc == 0, f"{label} exited {rc}"
        out = workdir / label
        body = TIMING.sub(b"", (out / "report.json").read_bytes())
        digests[f"{label}/report.json"] = hashlib.sha256(body).hexdigest()
        for path in [*out.glob("*.csv"), *out.glob("*.svg")]:
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        return workdir, run_all(workdir)


@pytest.fixture(scope="module")
def digests(golden_run):
    return golden_run[1]


def test_golden_files_present(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests.get(name) == GOLDEN[name]


def _parts(value) -> list:
    """A setting as its comma-separated parts, numbers as floats."""
    out = []
    for part in value if isinstance(value, list) else str(value).split(","):
        try:
            out.append(float(part))
        except ValueError:
            out.append(part)
    return out


@pytest.mark.parametrize("label", sorted(RUNS))
def test_config_echoes_every_setting(golden_run, label):
    # every setting of the subcommand but the common flags and input paths,
    # with its value: the flag, else its config key, else the default
    workdir, _ = golden_run
    argv = RUNS[label]
    args = cli.build_parser().parse_args(argv)
    ini = configparser.ConfigParser()
    if args.config:
        ini.read(workdir / args.config)
    config = json.loads((workdir / label / "report.json").read_text())["config"]
    expected = {}
    for option, use in cli._COMMANDS[argv[0]].flags.items():
        flag, dest = cli.FLAGS[option], option.lstrip("-").replace("-", "_").lower()
        if not flag.echo:
            continue
        value, key = getattr(args, dest), dest
        if flag.key:
            section, key = flag.key[1:].split("] ")
            if value is None:
                value = ini.get(section, key, fallback=use.default)
        expected[key] = value
    assert sorted(config["pipeline"]) == sorted(expected)
    for key, value in expected.items():
        assert _parts(config["pipeline"][key]) == _parts(value), key
    # the model and approximator flags show in their sections
    for section in ("model", "approximator"):
        name, params = getattr(args, section, None), getattr(args, f"{section}_params", None)
        if name:
            assert config[section]["name"] == name
        for item in params.split(",") if params else []:
            key, value = item.split("=")
            assert _parts(config[section][key]) == _parts(value)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        table = run_all(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")
