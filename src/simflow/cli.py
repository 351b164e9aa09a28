"""Batch command line front-end.

Every pipeline is reachable as a subcommand driven by an INI-style config
file, command line flags, or both, with flags taking precedence. Runs write
a JSON report (and optional CSV / SVG files) into the output directory.

One table, _COMMANDS, holds each subcommand's flags with their defaults and
bounds, its handler and its seed plan; FLAGS declares each flag once. main
resolves every setting before the handler runs: the flag, else its config
key, else (for the seed) SIMFLOW_SEED, else the default. The handler builds
everything the run needs and returns its execute step, which a dry run
skips. The report's config block echoes the resolved settings and the config
sections the run read.

Exit codes follow the phase that failed: 0 success, 2 for any failure while
resolving (nothing was simulated), 3 for any failure of the execute step (a
partial report is still written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import figures, report
from .approximators import (
    AbcRejection,
    ExactConjugate,
    PerturbedConjugate,
    RandomWalkMetropolis,
)
from .calibration import (
    SbcConfig,
    absolute_error,
    estimator_accuracy,
    posterior_mean_estimator,
    power_analysis,
    run_frequentist_calibration,
    run_sbc,
    sample_mean_estimator,
    squared_error,
)
from .compare import (
    ModelEntry,
    marginal_likelihood_mc,
    posterior_model_probs,
    power_scale_weights,
    sensitivity_sweep,
    weighted_mean,
    weighted_quantile,
)
from .diagnostics import band_contains, rank_histogram
from .elicitation import beta_binomial_problem, elicit_prior
from .errors import DomainError
from .models import AnalyticPosterior, Dataset, SummaryStatistic, make_model, param_target
from .predictive import (
    frequentist_predictive_check,
    prior_pushforward_check,
    run_posterior_sbc,
    run_ppc,
)
from .rng import substream
from .simtest import (
    SIDES,
    DISTANCE_REGISTRY,
    STATISTIC_REGISTRY,
    AnalyticZTest,
    SimulationTest,
)

__all__ = ["main", "ConfigError"]

SCHEMA_VERSION = "2.0"


class ConfigError(ValueError):
    """Bad or incomplete run configuration; nothing was simulated."""


# ---------------------------------------------------------------------------
# Setting kinds: each converts a flag's or config value's text and raises
# ValueError when the text is not of its kind (3.5 is not an integer).


def _floats(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(text)
    return values


def _truth(text: str):
    """The word prior (a fresh prior draw per dataset), or a parameter vector."""
    return "prior" if text.strip() == "prior" else _floats(text)


def _indices(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _formats(text: str) -> set[str]:
    formats = {f.strip() for f in text.split(",") if f.strip()}
    if not formats <= {"json", "csv", "svg"}:
        raise ValueError(text)
    return formats


_KINDS = {
    int: "an integer",
    float: "a finite number",
    _floats: "a comma list of finite numbers",
    _truth: "prior or a comma list of finite numbers",
    _indices: "a comma list of parameter indices",
    _formats: "a comma list from json, csv, svg",
}


def _convert(name: str, value, kind: Callable, bound: str | None = None):
    """value (text or a number) as kind, via its text, inside bound.

    A number must be finite. bound is an interval such as "[10, inf)" or
    "(0, 1]"; a list value must lie inside it element by element.
    """
    try:
        out = kind(str(value))
        values = out if isinstance(out, list) else [out]
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ValueError(value)
    except ValueError:
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}") from None
    if bound is not None:
        lo, hi = (float(v) for v in bound[1:-1].split(","))
        for v in values:
            if not ((lo <= v if bound[0] == "[" else lo < v)
                    and (v <= hi if bound[-1] == "]" else v < hi)):
                raise ConfigError(f"{name} must lie in {bound}, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# Flags, each declared once


class Flag(NamedTuple):
    help: str
    kind: Callable = str      # bool for an on/off switch
    key: str | None = None    # "[section] key" of the config file it falls back to
    env: str | None = None    # environment variable after the config key
    choices: tuple | None = None
    # False for input paths, so reports do not depend on the working
    # directory, and for the model and approximator flags, which are
    # echoed as their config sections
    echo: bool = True


FLAGS = {
    # common to every subcommand, never echoed
    "--config": Flag("INI config file; flags override it"),
    "--seed": Flag("root seed (default: config, then SIMFLOW_SEED, then 0)", int,
                   "[pipeline] seed", "SIMFLOW_SEED"),
    "--threads": Flag("accepted for old command lines and ignored", int,
                      "[pipeline] threads"),
    "--out": Flag("output directory", key="[output] dir"),
    "--formats": Flag("comma list from json,csv,svg", _formats, "[output] formats"),
    "--dry-run": Flag("validate the settings, print the seed plan, and exit", bool),
    # echoed as the model and approximator sections
    "--model": Flag("model name, e.g. normal-normal", echo=False),
    "--model-params": Flag("model hyperparameters as k=v,k=v", echo=False),
    "--approximator": Flag("abc, exact, perturbed, or rwm", echo=False),
    "--approximator-params": Flag("approximator settings as k=v,k=v", echo=False),
    # input paths
    "--data": Flag("observed dataset CSV", echo=False),
    "--expert-csv": Flag("CSV with header target,probe,value", echo=False),
    "--report": Flag("path to a report.json", echo=False),
    # settings
    "--S": Flag("simulations: replications, datasets, null or prior draws", int,
                "[pipeline] s"),
    "--M": Flag("draws per posterior, or ABC draws wanted", int, "[pipeline] m"),
    "--bins": Flag("histogram bins of the uniformity test", int, "[pipeline] bins"),
    "--band-coverage": Flag("coverage of the ECDF band", float,
                            "[pipeline] band_coverage"),
    "--targets": Flag("comma list of parameter indices (default: all)", _indices),
    "--theta-star": Flag("true parameter, comma separated, or the word prior", _truth),
    "--theta0": Flag("null parameter, comma separated", _floats),
    "--theta-hat": Flag("fixed parameter: frequentist check instead of posterior", _floats),
    "--estimator": Flag("sample-mean or posterior-mean"),
    "--sampling": Flag("approximate sampling law: normal:loc,scale or t:df,loc,scale"),
    "--alphas": Flag("interval levels (freq-calibrate) or scaling exponents "
                     "(sensitivity), comma separated", _floats),
    "--test": Flag("sim or z"),
    "--statistic": Flag("test statistic of a dataset, e.g. mean"),
    "--side": Flag("rejection side of the test", choices=SIDES),
    "--sigma": Flag("known sdev of one observation, for the z test", float),
    "--alpha": Flag("test level", float, "[pipeline] alpha"),
    "--null-s": Flag("null sample size for the sim test", int),
    "--distance": Flag("accuracy: squared or absolute; abc: a data distance"),
    "--region": Flag("plausible region of the statistic: lo,hi", _floats),
    "--expert-stats": Flag("inline comma list of expert values", _floats),
    "--n-trials": Flag("binomial trials per count", int, "[pipeline] n_trials"),
    "--lam0": Flag("starting hyperparameters", _floats),
    "--sims": Flag("simulations per evaluation", int, "[pipeline] sims_per_eval"),
    "--tolerance": Flag("elicit: loss change that stops; abc: distance threshold",
                        float),
    "--max-iter": Flag("optimizer iterations", int),
    "--quantile": Flag("acceptance quantile instead of a fixed tolerance", float),
    "--max-proposals": Flag("proposal budget", int, "[pipeline] max_proposals"),
    "--mode": Flag("power-scale or sweep", choices=("power-scale", "sweep")),
}


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_").lower()


class Use(NamedTuple):
    """How one subcommand uses a flag: its default and the bound it must meet."""

    default: object = None
    bound: str | None = None
    required: bool = False


_COMMON = {"--config": Use(), "--seed": Use(0, "[0, inf)"),
           "--threads": Use(1, "[1, inf)"), "--out": Use("out"),
           "--formats": Use("json,svg"), "--dry-run": Use(False)}
_MODEL = {"--model": Use(), "--model-params": Use()}
_APPROX = {"--approximator": Use(), "--approximator-params": Use()}
_AT_LEAST_1 = "[1, inf)"


def _resolve(flags: dict, args, cfg) -> tuple[dict, dict]:
    """Every setting of flags by dest, and where each came from.

    The flag, else its config key, else its environment variable, else the
    default, converted and bounded by _convert.
    """
    settings, sources = {}, {}
    for option, use in flags.items():
        flag, dest = FLAGS[option], _dest(option)
        value, name, source = getattr(args, dest), option, "flag"
        if value is None and flag.key:
            section, key = flag.key[1:].split("] ")
            if cfg.has_option(section, key):
                value, name, source = cfg.get(section, key), flag.key, "config"
        if value is None and flag.env and flag.env in os.environ:
            value, name, source = os.environ[flag.env], flag.env, "env"
        if value is None:
            value, source = use.default, "default"
        if value is not None and flag.kind is not bool:
            value = _convert(name, value, flag.kind, use.bound)
        settings[dest], sources[dest] = value, source
    return settings, sources


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_scalar(text: str):
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    # a [pipeline] or [output] key is read if some subcommand's flag falls back
    # to it, so one config may serve several subcommands
    declared = {flag.key for flag in FLAGS.values() if flag.key}
    sections = cfg.sections()
    if cfg.defaults():  # refused first, as configparser copies its keys into every section
        sections.insert(0, "DEFAULT")
    for name in sections:
        if name in ("model", "approximator", "compare", "sweep") or name.startswith("model:"):
            continue
        if name not in ("pipeline", "output"):
            raise ConfigError(f"unknown config section [{name}]; known: model, approximator, "
                              "pipeline, output, compare, sweep and model:NAME")
        unknown = sorted(k for k in cfg.options(name) if f"[{name}] {k}" not in declared)
        if unknown:
            known = sorted(key.split("] ")[1] for key in declared if key.startswith(f"[{name}]"))
            raise ConfigError(f"unknown [{name}] key {unknown[0]!r}; known: {', '.join(known)}")
    return cfg


def _section(cfg: configparser.ConfigParser, name: str) -> dict:
    if not cfg.has_section(name):
        return {}
    return {k: _parse_scalar(v) for k, v in cfg.items(name)}


def _parse_kv(pairs: str | None) -> dict:
    out = {}
    if not pairs:
        return out
    for item in pairs.split(","):
        if not item.strip():
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {item!r}")
        out[key.strip()] = _parse_scalar(val)
    return out


def _theta(values, flag: str, model, prior: str | None = None) -> list[float] | None:
    """A parameter vector setting, one number per model parameter. With prior
    (the subcommand reading it), an unset setting or the word prior is None:
    a fresh prior draw each time, which the model must be able to make."""
    if prior and values in (None, "prior"):
        _require(model, f"{prior} at a prior truth", "can_sample_prior")
        return None
    if not isinstance(values, list) or len(values) != model.param_dim:
        raise ConfigError(f"{flag} needs {model.param_dim} number(s) for {model.name}, "
                          f"got {values!r}")
    try:
        model._check_domain(np.asarray(values, dtype=float).reshape(1, -1))
    except DomainError:
        raise ConfigError(f"{flag} {values!r} lies outside the parameter domain of "
                          f"{model.name}") from None
    return values


def _named(what: str, name: str, table: dict):
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; known: {', '.join(sorted(table))}")
    return table[name]


# Builders: each records the config section it resolved in run.sections,
# which the report's config block echoes.


def _build(run, section: str, make, default=None):
    """make(name, **params) from the --<section> flags over the [<section>]
    config section."""
    params = _section(run.cfg, section)
    # popped even when the flag names it, so it never reaches make twice
    name = params.pop("name", default)
    name = getattr(run, section) or name
    if name is None:
        raise ConfigError(f"no {section} selected; pass --{section} or set [{section}] name")
    params.update(_parse_kv(getattr(run, f"{section}_params")))
    built = make(name, **params)
    run.sections[section] = {"name": name, **params}
    return built


def _build_model(run, command: str | None = None, what: str | None = None):
    """The model, refused unless it has every capability that the _COMMANDS
    row of command (default: the run's subcommand) needs; what names the
    run in the refusal."""
    command = command or run.command
    model = _build(run, "model", make_model)
    _require(model, what or command, *_COMMANDS[command].needs)
    return model


def _require(model, what: str, *needs: str) -> None:
    """ConfigError unless model declares every capability in needs (fields
    of models.Capabilities), so a run it cannot finish never starts."""
    missing = [need for need in needs if not getattr(model.capabilities, need)]
    if missing:
        raise ConfigError(f"{what} needs {' and '.join(missing)}, which {model.name} lacks")


_APPROXIMATORS = {"abc": AbcRejection, "exact": ExactConjugate,
                  "perturbed": PerturbedConjugate, "rwm": RandomWalkMetropolis}


def _approximator(name: str, **settings):
    cls = _named("approximator", name, _APPROXIMATORS)
    if cls is AbcRejection:  # its statistic T by the name of the distance |T(y) - T(y_obs)|
        distance = settings.pop("distance", "mean-distance")
        return cls(_named("distance", distance, DISTANCE_REGISTRY), **settings)
    return cls(**settings)


def _build_approximator(run, model):
    approx = _build(run, "approximator", _approximator, "exact")
    _require(model, f"the {approx.name} approximator", *approx.needs)
    return approx


def _statistic(name: str, model):
    statistic = _named("statistic", name, STATISTIC_REGISTRY)
    # four all-zero values, two per group of a two-group model (a group's
    # variance needs two), show whether the statistic applies: that depends
    # on the group labels, not on the dataset's size
    n = min(model.n_obs, 4)
    try:
        statistic.fn(np.zeros((1, n)), model.group_labels(n))
    except ValueError as exc:
        raise ConfigError(f"statistic {name!r} does not apply to {model.name}: {exc}") from None
    return statistic


def _defined_on(statistic, y: Dataset, path) -> None:
    """ConfigError unless the statistic has a value on the observed data: a
    NaN statistic has no rank among simulated ones, so no p-value."""
    if np.isnan(statistic.on_data(y)):
        raise ConfigError(f"statistic {statistic.name!r} is undefined (NaN) on the data in {path}")


def _estimator(name: str, model) -> SummaryStatistic:
    estimators = {"sample-mean": lambda model: sample_mean_estimator,
                  "posterior-mean": posterior_mean_estimator}
    if name == "posterior-mean":
        _require(model, "the posterior-mean estimator", "has_analytic_posterior")
    return _named("estimator", name, estimators)(model)


def _load_data(run) -> Dataset:
    path = run.data
    if path is None:
        raise ConfigError("this subcommand needs --data pointing at a CSV file")
    if not Path(path).is_file():
        raise ConfigError(f"data file not found: {path}")
    try:
        y = Dataset.from_csv(path)
    except Exception as exc:
        raise ConfigError(f"cannot read dataset from {path}: {exc}") from exc
    if y.n_obs == 0:
        raise ConfigError(f"dataset {path} has no observation rows")
    return y


def _targets(indices, model):
    if indices is None:
        return None
    for idx in indices:
        if not 0 <= idx < model.param_dim:
            raise ConfigError(f"target index {idx} outside 0..{model.param_dim - 1}")
    if len(set(indices)) < len(indices):
        raise ConfigError(f"--targets repeats an index: {indices}")
    return tuple(param_target(idx) for idx in indices)


# ---------------------------------------------------------------------------
# Payload helpers


def _payload(result, drop=(), **extra) -> dict:
    """The result dataclass's fields, minus drop, plus extra."""
    out = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
           if f.name not in drop}
    out.update(extra)
    return out


def _echo(value):
    """A config value as the report echoes it: a number that is not finite
    (an ABC tolerance of inf) as its text, for which JSON has no literal."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _or_null(value: float) -> float | None:
    """value, or None (JSON null) when it is not finite: a log evidence of
    -inf, whose all_zero flag says why, and the NaN derived from it."""
    return value if math.isfinite(value) else None


def _histogram_block(values, bins: int = 30) -> dict:
    """Histogram of the finite values; names how many others it left out."""
    values = np.asarray(values, dtype=float).reshape(-1)
    finite = values[np.isfinite(values)]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            counts, edges = np.histogram(finite, bins=bins)
    except ValueError:
        # numpy cannot split this range into `bins` finite-sized bins: one
        # bin, widened to the neighbouring floats if every value is equal
        lo, hi = finite.min(), finite.max()
        if lo == hi:
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        counts, edges = np.array([finite.size]), np.array([lo, hi])
    block = {"edges": edges, "counts": counts}
    if finite.size < values.size:
        block["not_finite"] = values.size - finite.size
    return block


def _pvalue_block(pset, verdict) -> dict:
    _, diff = band_contains(verdict.band, pset.values)
    band = _payload(verdict.band, drop=("count_lower", "count_upper", "s", "granularity"))
    return _payload(verdict, pvalues=pset.values, granularity=pset.granularity,
                    histogram=rank_histogram(pset, verdict.bins), ecdf_diff=diff, band=band)


# An output file other than report.json is a CSV table, (header, columns)
# with one sequence or 1-D array per column, or the text of an SVG figure.
# report.write_csv builds and formats a table's rows only if csv output is
# asked for.


def _sbc_csv(result) -> dict:
    pvalues = [np.asarray(result.pvalues[name].values, dtype=float)
               for name in result.target_names]
    sizes = [p.size for p in pvalues]
    columns = [np.repeat(result.target_names, sizes),
               np.concatenate([np.arange(n) for n in sizes]), np.concatenate(pvalues)]
    return {"pvalues.csv": (["target", "index", "pvalue"], columns)}


def _vector_csv(filename: str, values) -> dict:
    values = np.asarray(values, dtype=float).reshape(-1)
    return {filename: (["index", "value"], [range(values.size), values])}


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the run (its resolved settings as
# attributes, plus command, cfg, seed and sections), builds every object and
# reads every file it needs, and returns execute, a closure that simulates
# and returns (results payload, output files). A dry run stops before it.


def _cmd_sbc(run):
    model = _build_model(run)
    approx = _build_approximator(run, model)
    run_cfg = SbcConfig(s=run.s, m=run.m, seed=run.seed, targets=_targets(run.targets, model),
                        bins=run.bins, band_coverage=run.band_coverage)
    y = _load_data(run) if run.command == "post-sbc" else None

    def execute():
        result = (run_sbc(model, approx, run_cfg) if y is None
                  else run_posterior_sbc(model, approx, y, run_cfg))
        targets = {name: _pvalue_block(result.pvalues[name], result.verdicts[name])
                   for name in result.target_names}
        return (_payload(result, drop=("target_names", "pvalues", "verdicts"),
                         targets=targets), _sbc_csv(result))
    return execute


def _parse_sampling(text: str):
    """normal:loc,scale (default 0,1) as a closed form; t:df,loc,scale via scipy."""
    name, _, rest = text.partition(":")
    try:
        params = _floats(rest) if rest else []
    except ValueError:
        raise ConfigError(f"sampling law parameters must be numbers, got {text!r}") from None
    if name == "normal":
        try:
            return AnalyticPosterior("normal", params + [0.0, 1.0][len(params):])
        except DomainError:
            raise ConfigError(f"normal sampling law needs normal:loc,scale with scale > 0, "
                              f"got {text!r}") from None
    if name == "t":
        if not 1 <= len(params) <= 3 or not params[0] > 0 or (
                len(params) == 3 and not params[2] > 0):
            raise ConfigError(f"t sampling law needs t:df,loc,scale with df > 0 and "
                              f"scale > 0, e.g. t:9,0,1, got {text!r}")
        from scipy import stats

        return stats.t(*params)
    raise ConfigError(f"unknown sampling distribution {text!r}; use normal:loc,scale or t:df,loc,scale")


def _cmd_freq_calibrate(run):
    model = _build_model(run)
    theta_star = _theta(run.theta_star, "--theta-star", model)
    if run.sampling is None:
        raise ConfigError("freq-calibrate needs --sampling, e.g. normal:0.0,0.316")
    estimator = _estimator(run.estimator, model)
    sampling = _parse_sampling(run.sampling)

    def execute():
        result = run_frequentist_calibration(model, theta_star, estimator, sampling, s=run.s,
                                             seed=run.seed, alphas=tuple(run.alphas),
                                             bins=run.bins)
        payload = _payload(result, drop=("pvalues", "verdict"),
                           target=_pvalue_block(result.pvalues, result.verdict))
        return payload, _vector_csv("pvalues.csv", result.pvalues.values)
    return execute


def _build_test(run, model):
    """The test's constructor: a simulation test draws its null when built."""
    if run.test == "z":
        if run.sigma is None:
            raise ConfigError("the z test needs --sigma (known sdev of one observation)")
        theta0 = _theta(run.theta0, "--theta0", model)[0] if run.theta0 else 0.0
        return lambda: AnalyticZTest(theta0, run.sigma, side=run.side)
    if run.test == "sim":
        theta0 = _theta(run.theta0, "--theta0", model)
        statistic = _statistic(run.statistic, model)
        return lambda: SimulationTest(model, theta0, statistic, side=run.side, s=run.null_s,
                                      seed=run.seed + 1)
    raise ConfigError(f"unknown test {run.test!r}; known: sim, z")


def _cmd_power(run):
    model = _build_model(run)
    theta_star = _theta(run.theta_star, "--theta-star", model, prior=run.command)
    make_test = _build_test(run, model)
    return lambda: (_payload(power_analysis(model, theta_star, make_test(), alpha=run.alpha,
                                            s=run.s, seed=run.seed), model=model.name), {})


def _cmd_accuracy(run):
    model = _build_model(run)
    estimator = _estimator(run.estimator, model)
    distance = _named("distance", run.distance,
                      {"squared": squared_error, "absolute": absolute_error})
    theta_star = _theta(run.theta_star, "--theta-star", model, prior=run.command)
    return lambda: (_payload(estimator_accuracy(model, theta_star, estimator, distance=distance,
                                                s=run.s, seed=run.seed), model=model.name), {})


def _cmd_test(run):
    model = _build_model(run)
    y = _load_data(run)
    statistic = _statistic(run.statistic, model)
    _defined_on(statistic, y, run.data)
    theta0 = _theta(run.theta0, "--theta0", model)

    def execute():
        test = SimulationTest(model, theta0, statistic, side=run.side, s=run.s,
                              seed=run.seed, n_obs=y.n_obs)
        result = test.report(y)
        payload = _payload(result, kind="test", model=model.name,
                           null_histogram=_histogram_block(test.null.values))
        return payload, _vector_csv("null_samples.csv", test.null.values)
    return execute


def _cmd_ppc(run):
    model = _build_model(run)
    y = _load_data(run)
    statistic = _statistic(run.statistic, model)
    _defined_on(statistic, y, run.data)
    if run.theta_hat is not None:
        theta_hat = _theta(run.theta_hat, "--theta-hat", model)
    else:
        approx = _build_approximator(run, model)

    def execute():
        if run.theta_hat is not None:
            result = frequentist_predictive_check(model, theta_hat, statistic, y, run.s,
                                                  seed=run.seed)
        else:
            result = run_ppc(model, approx, y, statistic, run.s, seed=run.seed)
        payload = _payload(result, drop=("replication_stats",), model=model.name,
                           replication_histogram=_histogram_block(result.replication_stats))
        return payload, _vector_csv("replication_stats.csv", result.replication_stats)
    return execute


def _cmd_prior_check(run):
    model = _build_model(run)
    region = run.region
    if region is None or len(region) != 2 or not region[0] <= region[1]:
        raise ConfigError(f"prior-check needs --region lo,hi with lo <= hi, got {region!r}")
    statistic = _statistic(run.statistic, model)

    def execute():
        result = prior_pushforward_check(model, statistic, (region[0], region[1]), s=run.s,
                                         seed=run.seed)
        payload = _payload(result, drop=("values",), model=model.name,
                           histogram=_histogram_block(result.values))
        return payload, _vector_csv("statistic_values.csv", result.values)
    return execute


def _read_expert_csv(path: str) -> list[float]:
    if not Path(path).is_file():
        raise ConfigError(f"expert stats file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["target", "probe", "value"]:
            raise ConfigError("expert stats CSV needs header: target,probe,value")
        rows = [row for row in reader if row]
    for row in rows:
        if len(row) != 3:
            raise ConfigError(f"expert stats CSV rows need target,probe,value, got {row!r}")
    # target-major, probe order as given per target
    values = [_convert("expert stats CSV value", row[2], float) for row in rows]
    if not values:
        raise ConfigError("expert stats CSV has no rows")
    return values


def _cmd_elicit(run):
    if run.expert_csv is not None:
        expert = _read_expert_csv(run.expert_csv)
    elif run.expert_stats is not None:
        expert = run.expert_stats
    else:
        raise ConfigError("elicit needs --expert-csv or --expert-stats")
    problem = beta_binomial_problem(expert, n_trials=run.n_trials, sims_per_eval=run.sims)
    family = problem.prior_family
    if len(run.lam0) != family.lam_dim or not family.valid(run.lam0):
        raise ConfigError(f"--lam0 needs {family.lam_dim} positive numbers for the "
                          f"{family.name} prior, got {run.lam0!r}")

    def execute():
        result = elicit_prior(problem, run.lam0, seed=run.seed, tolerance=run.tolerance,
                              max_iter=run.max_iter)
        trace = {"loss_trace.csv": (["improvement", "loss"],
                                    [range(len(result.loss_trace)), result.loss_trace])}
        return _payload(result, kind="elicitation", family="beta"), trace
    return execute


def _cmd_abc(run):
    model = _build_model(run)
    y = _load_data(run)
    if (run.tolerance is None) == (run.quantile is None):
        raise ConfigError("abc needs exactly one of --tolerance or --quantile")
    approx = _approximator("abc", distance=run.distance, tolerance=run.tolerance,
                           acceptance_quantile=run.quantile, max_proposals=run.max_proposals)

    def execute():
        draws = approx.approximate(model, y, substream(run.seed, 0), run.m)
        values, info = draws.values, draws.info
        sd = values.std(axis=0, ddof=1) if values.shape[0] > 1 else np.zeros(values.shape[1])
        payload = {"acceptance_rate": info["acceptance_rate"],
                   "proposals_used": info["proposals_used"],
                   "threshold": info.get("threshold", approx.tolerance),
                   "kind": "abc", "model": model.name, "distance": run.distance,
                   "m": int(values.shape[0]), "posterior_mean": values.mean(axis=0),
                   "posterior_sd": sd, "seed": run.seed, "metadata": info}
        header = ["index"] + [f"theta{j}" for j in range(values.shape[1])]
        columns = [range(values.shape[0]), *np.asarray(values, dtype=float).T]
        return payload, {"draws.csv": (header, columns)}
    return execute


def _compare_entries(run) -> list[ModelEntry]:
    comp = _section(run.cfg, "compare")
    unknown = sorted(comp.keys() - {"models"})
    if unknown:
        raise ConfigError(f"unknown [compare] key {unknown[0]!r}; the section takes only models")
    names = [n.strip() for n in str(comp.get("models", "")).split(",") if n.strip()]
    if not names:
        raise ConfigError(
            "compare needs a [compare] section listing models = A, B with "
            "one [model:NAME] section per candidate"
        )
    if len(set(names)) < len(names):
        raise ConfigError(f"[compare] models repeats a label: {', '.join(names)}")
    run.sections["compare"] = comp
    entries = []
    for label in names:
        sect = _section(run.cfg, f"model:{label}")
        if not sect:
            raise ConfigError(f"missing [model:{label}] section")
        name = sect.pop("name", None)
        if name is None:
            raise ConfigError(f"[model:{label}] needs a name key")
        prior_prob = _convert(f"[model:{label}] prior_prob",
                              sect.pop("prior_prob", 1.0 / len(names)), float, "[0, 1]")
        try:
            model = make_model(name, **sect)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[model:{label}]: {exc}") from exc
        _require(model, f"compare of [model:{label}]", *_COMMANDS[run.command].needs)
        run.sections[f"model:{label}"] = {"name": name, "prior_prob": prior_prob, **sect}
        entries.append(ModelEntry(name=label, model=model, prior_prob=prior_prob))
    # the check posterior_model_probs makes, before anything is simulated
    if not np.isclose(sum(e.prior_prob for e in entries), 1.0):
        raise ConfigError("the [model:NAME] prior_prob values must sum to 1, got "
                          + ", ".join(str(e.prior_prob) for e in entries))
    return entries


def _cmd_compare(run):
    y = _load_data(run)
    if not run.cfg.has_section("compare"):
        model = _build_model(run)

        def evidence():
            ev = marginal_likelihood_mc(model, y, s=run.s, seed=run.seed)
            return _payload(ev, kind="evidence", log_evidence=_or_null(ev.log_evidence),
                            mc_se_log=_or_null(ev.mc_se_log)), {}
        return evidence
    entries = _compare_entries(run)

    def execute():
        comparison = posterior_model_probs(entries, y, s=run.s, seed=run.seed)
        models = {name: {"log_evidence": _or_null(ev.log_evidence),
                         "mc_se_log": _or_null(ev.mc_se_log), "all_zero": ev.all_zero,
                         "posterior_prob": comparison.posterior_probs[name]}
                  for name, ev in comparison.evidences.items()}
        lbf = {pair: _or_null(v) for pair, v in comparison.log_bayes_factors.items()}
        payload = _payload(comparison, drop=("entries", "evidences", "posterior_probs"),
                           kind="model-comparison", models=models, log_bayes_factors=lbf,
                           metadata={})
        header = ["model", "log_evidence", "mc_se_log", "posterior_prob"]
        columns = [list(models), *([row[k] for row in models.values()] for k in header[1:])]
        return payload, {"evidence.csv": (header, columns)}
    return execute


def _cmd_sensitivity(run):
    return (_sensitivity_sweep if run.mode == "sweep" else _power_scale)(run)


def _power_scale(run):
    model = _build_model(run)
    approx = _build_approximator(run, model)
    y = _load_data(run)

    def execute():
        draws = approx.approximate(model, y, substream(run.seed, 0), m=run.m)
        qs = (0.05, 0.5, 0.95)
        table = {k: [] for k in ("axis", "alpha", "ess", "mean0", "q05", "q50", "q95")}
        results = {"prior": [], "likelihood": []}
        for axis in ("prior", "likelihood"):
            for alpha in run.alphas:
                kw = {"alpha_prior": alpha} if axis == "prior" else {"alpha_lik": alpha}
                wd = power_scale_weights(model, y, draws, **kw)
                mean = [weighted_mean(wd, d) for d in range(draws.values.shape[1])]
                quantiles = dict(zip(qs, weighted_quantile(wd, qs).tolist()))
                results[axis].append({"alpha": alpha, "ess": wd.ess, "mean": mean,
                                      "quantiles": quantiles})
                for column, v in zip(table.values(),
                                     [axis, alpha, wd.ess, mean[0], *quantiles.values()]):
                    column.append(v)
        payload = {
            "kind": "power-scaling",
            "model": model.name,
            "approximator": approx.name,
            "m": run.m,
            "seed": run.seed,
            "axes": results,
            "metadata": {"alphas": run.alphas},
        }
        return payload, {"powerscale.csv": (list(table), list(table.values()))}
    return execute


def _sbc_cell(model, approx, y, seed, s, m) -> dict:
    result = run_sbc(model, approx, SbcConfig(s=s, m=m, seed=seed))
    v = result.verdicts[result.target_names[0]]
    return {"chi2_pvalue": v.chi2_pvalue, "ks_pvalue": v.ks_pvalue, "ecdf_inside": v.ecdf_inside}


def _evidence_cell(model, approx, y, seed, s) -> dict:
    ev = marginal_likelihood_mc(model, y, s=s, seed=seed)
    return {"log_evidence": _or_null(ev.log_evidence), "mc_se_log": _or_null(ev.mc_se_log)}


def _power_scale_cell(model, approx, y, seed, m, alpha_prior, alpha_lik) -> dict:
    draws = approx.approximate(model, y, substream(seed, 0), m=m)
    wd = power_scale_weights(model, y, draws, alpha_prior=alpha_prior, alpha_lik=alpha_lik)
    return {"ess": wd.ess, "mean0": weighted_mean(wd, 0)}


class Sweep(NamedTuple):  # one [sweep] pipeline
    cell: Callable   # (model, approximator, data, seed, **settings) -> row columns
    # the subcommand whose _COMMANDS row gives the model's needs, whether a
    # cell reads the approximator and --data, and each setting's kind and bound
    command: str
    settings: dict   # [sweep] key -> (default, the subcommand's flag it stands for)


_SWEEPS = {
    "sbc": Sweep(_sbc_cell, "sbc", {"s": (200, "--S"), "m": (99, "--M")}),
    "evidence": Sweep(_evidence_cell, "compare", {"s": (10_000, "--S")}),
    "power-scale": Sweep(_power_scale_cell, "sensitivity",
                         {"m": (2000, "--M"), "alpha_prior": (1.0, "--alphas"),
                          "alpha_lik": (1.0, "--alphas")}),
}


def _sensitivity_sweep(run):
    """Every [sweep] cell resolved and its model built before any cell runs."""
    section = _section(run.cfg, "sweep")
    if not section:
        raise ConfigError("sweep mode needs a [sweep] section in the config")
    run.sections["sweep"] = section
    pipeline = section.get("pipeline")
    sweep = _named("[sweep] pipeline", pipeline, _SWEEPS)
    flags = _COMMANDS[sweep.command].flags
    unread = [what for what, given, option in (
        ("--approximator", run.approximator is not None, "--approximator"),
        ("--approximator-params", run.approximator_params is not None, "--approximator"),
        ("an [approximator] section", run.cfg.has_section("approximator"), "--approximator"),
        ("--data", run.data is not None, "--data")) if given and option not in flags]
    if unread:
        raise ConfigError(f"the {pipeline} sweep does not read {', '.join(unread)}")
    model = _build_model(run, sweep.command, f"the {pipeline} sweep")
    approx = _build_approximator(run, model) if "--approximator" in flags else None
    y = _load_data(run) if "--data" in flags else None

    def setting(key: str, value):
        # a pipeline setting, read as its flag, or a model_<hyperparameter>
        # that overrides the base model's
        name = key.removeprefix("vary_")
        if name.startswith("model_"):
            return value
        if name not in sweep.settings:
            raise ConfigError(f"unknown [sweep] key {key!r}; the {pipeline} sweep takes "
                              f"{', '.join(sweep.settings)} and model_<hyperparameter>, "
                              "each also as vary_<key>")
        option = sweep.settings[name][1]
        kind = FLAGS[option].kind
        return _convert(f"[sweep] {key}", value, float if kind is _floats else kind,
                        flags[option].bound)

    base = {k: setting(k, v) for k, v in section.items()
            if k != "pipeline" and not k.startswith("vary_")}
    vary = {k.removeprefix("vary_"): [setting(k, _parse_scalar(v)) for v in str(text).split("|")]
            for k, text in section.items() if k.startswith("vary_")}
    if not vary:
        raise ConfigError("[sweep] needs at least one vary_<param> = v1|v2|... key")
    keys = sorted(vary)
    grid = [{**base, **dict(zip(keys, combo))}
            for combo in itertools.product(*(vary[k] for k in keys))]
    params = dict(run.sections["model"])
    name = params.pop("name")
    cells = {}
    for config in grid:
        overrides = {k.removeprefix("model_"): v for k, v in config.items()
                     if k.startswith("model_")}
        try:
            built = make_model(name, **{**params, **overrides})
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[sweep] cell {config}: {exc}") from exc
        values = {k: config.get(k, default) for k, (default, _) in sweep.settings.items()}
        cells[tuple(config.items())] = (built, values)

    def cell(config: dict, cell_seed: int) -> dict:
        built, values = cells[tuple(config.items())]
        return sweep.cell(built, approx, y, cell_seed, **values)

    def execute():
        result = sensitivity_sweep(cell, grid, seed=run.seed)
        payload = _payload(result, kind="sensitivity-sweep", pipeline=pipeline,
                           n_cells=len(result.rows), rows=[dict(r) for r in result.rows],
                           metadata={"varied": vary})
        return payload, {"sweep.csv": result.table()}
    return execute


def _cmd_render(run):
    path = Path(run.report)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh)
        results = payload.get("results", payload)
        files = figures.render_figures(results)
    except Exception as exc:
        raise ConfigError(f"cannot render {path}: not a readable report "
                          f"({type(exc).__name__}: {exc})") from exc
    if results.get("kind") not in figures.renderable_kinds():
        print(f"warning: no figure renderer for report kind "
              f"{results.get('kind')!r}; known: {', '.join(figures.renderable_kinds())}",
              file=sys.stderr)
    return lambda: ({"kind": "render", "source": str(path), "rendered": sorted(files)}, files)


# ---------------------------------------------------------------------------
# The subcommand table


class Command(NamedTuple):
    help: str
    handler: Callable     # run -> execute, and execute() -> (results, files)
    plan: list[str]       # the seed plan a dry run prints
    flags: dict           # flag -> Use, besides the common flags
    needs: tuple = ()     # the models.Capabilities its model must have
    # every execute step calls scipy.special, so main imports it before the
    # clock starts unless the run is dry; other runs import it where they
    # call it
    special: bool = False


_NULL_CHUNKS = "null chunk c: stream (root, 0, c); retry a: stream (root, 0, c, a)"
_SBC_FLAGS = {**_MODEL, **_APPROX, "--S": Use(1000, "[10, inf)"), "--M": Use(99, _AT_LEAST_1),
              "--bins": Use(10, "[2, inf)"), "--band-coverage": Use(0.95, "[0.5, 1)"),
              "--targets": Use()}
_ESTIMATOR = {"--estimator": Use("sample-mean")}

_COMMANDS = {
    "sbc": Command("prior-predictive calibration of an approximator", _cmd_sbc,
                   ["replication i: stream (seed, 0, i)"], _SBC_FLAGS, ("can_sample_prior",),
                   special=True),
    "post-sbc": Command(
        "calibration conditional on an observed dataset", _cmd_sbc,
        ["posterior draws at observed data: stream (seed, 1)",
         "replication i: stream (seed, 0, i)"],
        {**_SBC_FLAGS, "--data": Use()}, special=True),
    "freq-calibrate": Command(
        "sampling-distribution calibration of an estimator", _cmd_freq_calibrate,
        ["dataset i: stream (seed, 0, i)"],
        {**_MODEL, "--theta-star": Use(), **_ESTIMATOR, "--sampling": Use(),
         "--alphas": Use("0.9", "(0, 1)"), "--S": Use(1000, "[10, inf)"),
         "--bins": Use(10, "[2, inf)")}, special=True),
    "power": Command(
        "rejection rate of a test at a fixed or prior truth", _cmd_power,
        ["sim test null root: drawn from stream (seed + 1, 0)", _NULL_CHUNKS,
         "dataset i: stream (seed, 0, i)"],
        {**_MODEL, "--test": Use("sim"), "--theta-star": Use(), "--theta0": Use(),
         "--statistic": Use("mean"), "--side": Use("upper"), "--sigma": Use(None, "(0, inf)"),
         "--alpha": Use(0.05, "(0, 1)"), "--S": Use(1000, _AT_LEAST_1),
         "--null-s": Use(10_000, _AT_LEAST_1)}),
    "accuracy": Command(
        "mean estimator error over simulated datasets", _cmd_accuracy,
        ["dataset i: stream (seed, 0, i)"],
        {**_MODEL, "--theta-star": Use(), **_ESTIMATOR, "--distance": Use("squared"),
         "--S": Use(1000, "[2, inf)")}),
    "test": Command(
        "simulation-based hypothesis test on one dataset", _cmd_test,
        ["null root: drawn from stream (seed, 0)", _NULL_CHUNKS,
         "tie-break coin: stream (seed, 1)"],
        {**_MODEL, "--data": Use(), "--theta0": Use(), "--statistic": Use("mean"),
         "--side": Use("two_sided"), "--S": Use(10_000, "[2, inf)")}),
    "ppc": Command(
        "predictive check against replicated datasets", _cmd_ppc,
        ["posterior draws: stream (seed, 1)", "replications: stream (seed, 0)"],
        {**_MODEL, **_APPROX, "--data": Use(), "--statistic": Use("mean"),
         "--theta-hat": Use(), "--S": Use(1000, _AT_LEAST_1)}),
    "prior-check": Command(
        "prior pushforward mass inside a plausible region", _cmd_prior_check,
        ["prior draws and simulation: stream (seed, 0)"],
        {**_MODEL, "--statistic": Use("mean"), "--region": Use(),
         "--S": Use(1000, _AT_LEAST_1)}, ("can_sample_prior",)),
    "elicit": Command(
        "fit prior hyperparameters to expert statistics", _cmd_elicit,
        ["common random numbers: stream (seed, 0), reused every evaluation"],
        {"--expert-csv": Use(), "--expert-stats": Use(), "--n-trials": Use(20, _AT_LEAST_1),
         "--lam0": Use("1,1"), "--sims": Use(10_000, _AT_LEAST_1),
         # the search's loss tolerance is its square, which must be a float
         "--tolerance": Use(1e-4, "[0, 1e154]"), "--max-iter": Use(500, _AT_LEAST_1)},
        special=True),
    "abc": Command(
        "rejection sampling against a simulator", _cmd_abc,
        ["proposals: stream (seed, 0)"],
        {**_MODEL, "--data": Use(), "--distance": Use("mean-distance"),
         "--M": Use(1000, _AT_LEAST_1), "--tolerance": Use(None, "[0, inf)"),
         "--quantile": Use(None, "(0, 1]"), "--max-proposals": Use(100_000, _AT_LEAST_1)},
        AbcRejection.needs),
    "compare": Command(
        "Monte Carlo evidence and model probabilities", _cmd_compare,
        ["one model (no [compare] section), chunk c: stream (seed, 0, c)",
         "[compare] models: model k seed: SeedSequence(seed, spawn_key=(9, k))"
         ".generate_state(1, uint64)[0] mod 2**63",
         "[compare] models: model k, chunk c: stream (model k seed, 0, c)"],
        {**_MODEL, "--data": Use(), "--S": Use(100_000, "[2, inf)")},
        # marginal_likelihood_mc averages the likelihood over prior draws
        ("can_sample_prior", "can_log_likelihood")),
    "sensitivity": Command(
        "power-scaling diagnostics or a hyperparameter sweep", _cmd_sensitivity,
        ["power-scale mode: posterior draws: stream (seed, 0)",
         "sweep mode: cell i seed: SeedSequence(seed, spawn_key=(9, i))"
         ".generate_state(1, uint64)[0] mod 2**63",
         "sweep mode, pipeline sbc: cell i, replication j: stream (cell i seed, 0, j)",
         "sweep mode, pipeline evidence: cell i, chunk c: stream (cell i seed, 0, c)",
         "sweep mode, pipeline power-scale: cell i draws: stream (cell i seed, 0)"],
        {**_MODEL, **_APPROX, "--mode": Use("power-scale"), "--data": Use(),
         "--M": Use(2000, _AT_LEAST_1), "--alphas": Use("0.5,0.8,1.0,1.25,2.0", "(0, inf)")}),
    "render": Command("regenerate SVG figures from a stored report", _cmd_render,
                      ["no randomness"], {"--report": Use(required=True)}),
}


def build_parser() -> argparse.ArgumentParser:
    """argparse for every subcommand, built from _COMMANDS and FLAGS.

    A flag with a config key has no argparse default, so an unset flag
    falls back to the config file; main applies the table's default.
    """
    parser = argparse.ArgumentParser(
        prog="simflow",
        description="Simulation-based calibration, testing, and checking pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, use in {**_COMMON, **command.flags}.items():
            flag = FLAGS[option]
            if flag.kind is bool:
                p.add_argument(option, action="store_true", help=flag.help)
                continue
            p.add_argument(option, dest=_dest(option), help=flag.help, required=use.required,
                           type=flag.kind if flag.kind in (int, float) else None,
                           default=None if flag.key else use.default, choices=flag.choices)
    return parser


# ---------------------------------------------------------------------------
# Output


def _write_outputs(outdir: Path, payload: dict, formats: set[str], files: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    report.write_report(payload, outdir / "report.json")
    if "svg" in formats:
        files = {**files, **figures.render_figures(payload["results"])}
    for filename, content in files.items():
        if isinstance(content, str):
            with open(outdir / filename, "w", newline="\n") as fh:
                fh.write(content)
        elif "csv" in formats:
            report.write_csv(outdir / filename, *content)


# ---------------------------------------------------------------------------
# Entry point


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. Each warning it raises
    prints as one `warning: <message>` line; a caller that records warnings
    still records them."""
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = formatwarning


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if not args.dry_run:  # what execute() loads lazily, loaded before the clock
        import numpy.ma  # noqa: F401  np.quantile and np.unique load it
        if command.special:
            from scipy import special  # noqa: F401
    head = {"schema_version": SCHEMA_VERSION, "command": args.command}
    t0 = time.perf_counter()
    try:  # resolving: whatever fails, nothing was simulated
        cfg = _load_config(args.config)
        settings, sources = _resolve({**_COMMON, **command.flags}, args, cfg)
        run = SimpleNamespace(**settings, command=args.command, cfg=cfg, sections={})
        execute = command.handler(run)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed, outdir = settings["seed"], Path(settings["out"])
    if args.dry_run:
        print(f"seed: {seed} (from {sources['seed']})")
        for line in command.plan:
            print(f"  {line}")
        print("dry run: nothing simulated")
        return 0
    try:  # simulating: whatever fails, a partial report says what
        results, files = execute()
    except Exception as exc:
        diagnostics = getattr(exc, "diagnostics", {})
        payload = {
            **head,
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "diagnostics": diagnostics},
            "timing_seconds": time.perf_counter() - t0,
        }
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            report.write_report(payload, outdir / "report.json")
            print(f"error: {exc} (partial report in {outdir / 'report.json'})",
                  file=sys.stderr)
        except OSError:
            print(f"error: {exc}", file=sys.stderr)
        return 3

    # each setting under its config key, or its dest when it has none
    pipeline = {FLAGS[o].key.split()[-1] if FLAGS[o].key else _dest(o): settings[_dest(o)]
                for o in command.flags if FLAGS[o].echo}
    sections = {name: {k: _echo(v) for k, v in section.items()}
                for name, section in run.sections.items()}
    payload = {
        **head,
        "status": "ok",
        "config": {**sections, "pipeline": pipeline},
        "seed_provenance": {"seed": seed, "source": sources["seed"], "plan": command.plan},
        "results": results,
        "timing_seconds": time.perf_counter() - t0,
    }
    try:
        _write_outputs(outdir, payload, formats=settings["formats"], files=files)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {outdir / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
