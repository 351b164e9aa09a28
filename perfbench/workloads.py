"""Workload definitions: generated inputs, command lists and output checks.

Each workload is a fixed list of `simflow` command lines. Every input file a
command reads (observed-data CSVs, the expert CSV, INI configs) is written
here with plain numpy from the workload seed, so simflow receives only
generated files. Each command carries a check that compares its report with
a closed-form answer, with a tolerance of several Monte Carlo standard
errors, so a correct change of random-stream layout still passes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

PHI = NormalDist()
K_SE = 5.0              # tolerance in Monte Carlo standard errors
P_FLOOR = 1e-6          # uniformity p-value below which SBC counts as detected
PROBES = (0.1, 0.25, 0.5, 0.75, 0.9)

WORKLOADS = ("sbc-loop", "bulk-sim")

# Normal-normal hyperparameters shared by every normal-normal command.
MU0, TAU0, SIGMA, N_OBS = 0.0, 1.0, 1.0, 20
NN = f"mu0={MU0},tau0={TAU0},sigma={SIGMA},n_obs={N_OBS}"


@dataclass(frozen=True)
class Command:
    """One simflow invocation; argv paths are relative to the work dir."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict, Path], list[str]]


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _within(name: str, got, want: float, tol: float) -> list[str]:
    if got is None or not math.isfinite(float(got)) or abs(float(got) - want) > tol:
        return [f"{name}: got {got}, want {want:.6g} +- {tol:.3g}"]
    return []


def _ok(report: dict) -> list[str]:
    if report.get("status") != "ok":
        return [f"status {report.get('status')!r}"]
    return []


# ---------------------------------------------------------------------------
# Closed forms for the normal-normal model


def nn_posterior(ys: np.ndarray, mu0=MU0, tau0=TAU0, sigma=SIGMA, a_prior=1.0, a_lik=1.0):
    """Mean and variance of the (power-scaled) normal-normal posterior."""
    prec = a_prior / tau0**2 + a_lik * ys.size / sigma**2
    mean = (a_prior * mu0 / tau0**2 + a_lik * ys.sum() / sigma**2) / prec
    return mean, 1.0 / prec


def nn_log_marginal(ys: np.ndarray, mu0=MU0, tau0=TAU0, sigma=SIGMA) -> float:
    n = ys.size
    ybar = float(ys.mean())
    within = float(((ys - ybar) ** 2).sum())
    s2 = sigma**2
    return (-0.5 * n * math.log(2 * math.pi * s2) - 0.5 * math.log1p(n * tau0**2 / s2)
            - within / (2 * s2) - (ybar - mu0) ** 2 / (2 * (s2 / n + tau0**2)))


def z_power(delta: float, alpha: float, n: int = N_OBS, sigma: float = SIGMA) -> float:
    """Power of the one-sided upper z-test of mean 0 at true mean delta."""
    return 1.0 - PHI.cdf(PHI.inv_cdf(1 - alpha) - delta * math.sqrt(n) / sigma)


# ---------------------------------------------------------------------------
# Checks


def check_sbc(expect: str, s: int, m: int) -> Callable:
    """expect: 'pass' (exact), 'detect' (sd_scale 0.5) or 'shape' (rwm)."""

    def check(rep, _out):
        errs = _ok(rep)
        if errs:
            return errs
        for name, t in rep["results"]["targets"].items():
            p = np.asarray(t["pvalues"], dtype=float)
            if p.size != s or np.any(np.abs(p * m - np.round(p * m)) > 1e-9):
                errs.append(f"{name}: {p.size} p-values, want {s} on the 1/{m} grid")
            low = min(t["chi2_pvalue"], t["ks_pvalue"])
            if expect == "pass" and low < P_FLOOR:
                errs.append(f"{name}: exact approximator rejected (p={low:.3g})")
            if expect == "detect" and (t["chi2_pvalue"] >= P_FLOOR or t["ecdf_inside"]):
                errs.append(f"{name}: sd_scale=0.5 not detected "
                            f"(chi2 p={t['chi2_pvalue']:.3g}, inside={t['ecdf_inside']})")
        return errs

    return check


def check_freq(s: int, alpha: float) -> Callable:
    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        if r["n_failed"]:
            errs.append(f"{r['n_failed']} estimator failures")
        t = r["target"]
        if min(t["chi2_pvalue"], t["ks_pvalue"]) < P_FLOOR:
            errs.append("exact sampling law rejected")
        cov = r["interval_coverage"][str(alpha)]
        errs += _within("interval coverage", cov, alpha,
                        K_SE * math.sqrt(alpha * (1 - alpha) / s))
        return errs

    return check


def check_power(delta: float, alpha: float, s: int, null_s: int | None) -> Callable:
    """Power against the z-test closed form. A simulated null of null_s draws
    adds the error of its (1 - alpha) quantile, shared by every dataset."""
    want = z_power(delta, alpha)
    var = want * (1 - want) / s
    if null_s:
        z_a = PHI.inv_cdf(1 - alpha)
        shift = PHI.pdf(z_a - delta * math.sqrt(N_OBS) / SIGMA) / PHI.pdf(z_a)
        var += shift**2 * alpha * (1 - alpha) / null_s

    def check(rep, _out):
        return _ok(rep) + _within("power", rep["results"]["power"], want,
                                  K_SE * math.sqrt(var) + 1.0 / s)

    return check


def check_accuracy(rep, _out):
    r = rep["results"]
    errs = _ok(rep) + (["estimator failures"] if r["n_failed"] else [])
    return errs + _within("risk", r["value"], SIGMA**2 / N_OBS, K_SE * r["mc_se"])


def check_test(ys: np.ndarray, theta0: float, s: int) -> Callable:
    sd = SIGMA / math.sqrt(ys.size)
    z = (float(ys.mean()) - theta0) / sd
    half = 1.0 - PHI.cdf(abs(z))

    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        errs += _within("p-value", r["pvalue"], min(1.0, 2 * half),
                        2 * K_SE * math.sqrt(half * (1 - half) / s) + 2.0 / s)
        errs += _within("null mean", r["null_mean"], theta0, K_SE * sd / math.sqrt(s))
        errs += _within("null sd", r["null_sd"], sd, K_SE * sd / math.sqrt(2 * s))
        return errs

    return check


def check_abc(ys: np.ndarray, proposals: int, m: int) -> Callable:
    mean, var = nn_posterior(ys)

    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        eps2 = r["threshold"] ** 2 / 3.0
        # the acceptance window widens the posterior by eps^2/3 and tilts its
        # mean by at most eps^2/3 times the slope of the log prior predictive
        bias = eps2 * abs(float(ys.mean()) - MU0) / (SIGMA**2 / ys.size + TAU0**2)
        errs += _within("ABC posterior mean", r["posterior_mean"][0], mean,
                        K_SE * math.sqrt((var + eps2) / m) + bias)
        if r["proposals_used"] != proposals or r["m"] != m:
            errs.append(f"used {r['proposals_used']} proposals for {r['m']} draws")
        return errs

    return check


def check_evidence(ys: np.ndarray, models: dict[str, dict]) -> Callable:
    """models: report model label -> normal-normal hyperparameters."""
    want = {k: nn_log_marginal(ys, **hp) for k, hp in models.items()}

    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        got = r["models"] if r["kind"] == "model-comparison" else {r["model"]: r}
        for k, w in want.items():
            ev = got[k]
            errs += _within(f"log evidence {k}", ev["log_evidence"], w,
                            K_SE * ev["mc_se_log"] + 1e-9)
        if r["kind"] == "model-comparison":
            total = sum(v["posterior_prob"] for v in got.values())
            errs += _within("sum of model probabilities", total, 1.0, 1e-9)
        return errs

    return check


def check_prior(lo: float, hi: float, s: int) -> Callable:
    sd = math.sqrt(TAU0**2 + SIGMA**2 / N_OBS)
    want = PHI.cdf((hi - MU0) / sd) - PHI.cdf((lo - MU0) / sd)

    def check(rep, _out):
        return _ok(rep) + _within("prior mass in region", rep["results"]["fraction_in_region"],
                                  want, K_SE * math.sqrt(want * (1 - want) / s) + 1.0 / s)

    return check


def check_elicit(expert: np.ndarray) -> Callable:
    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        tr = r["loss_trace"]
        if any(b > a for a, b in zip(tr, tr[1:])) or r["loss"] > tr[0]:
            errs.append("loss trace increases")
        if not all(v > 0 for v in r["lam"]):
            errs.append(f"invalid hyperparameters {r['lam']}")
        # below one count of RMS error per probe quantile
        if not r["loss"] <= expert.size:
            errs.append(f"loss {r['loss']:.4g} does not fit the expert statistics")
        return errs

    return check


def check_ppc(ys: np.ndarray, s: int) -> Callable:
    mean, var = nn_posterior(ys)
    want = PHI.cdf((float(ys.mean()) - mean) / math.sqrt(var + SIGMA**2 / ys.size))

    def check(rep, _out):
        r = rep["results"]
        return _ok(rep) + _within("posterior predictive p", r["ppp"], want,
                                  K_SE * math.sqrt(want * (1 - want) / s) + 1.0 / s)

    return check


def check_power_scale(ys: np.ndarray, m: int) -> Callable:
    def check(rep, _out):
        errs = _ok(rep)
        for axis, entries in rep["results"]["axes"].items():
            for e in entries:
                a = e["alpha"]
                kw = {"a_prior": a} if axis == "prior" else {"a_lik": a}
                mean, var = nn_posterior(ys, **kw)
                if a == 1.0:
                    errs += _within(f"{axis} ESS at alpha 1", e["ess"], m, 1e-6 * m)
                elif not 0 < e["ess"] <= m * (1 + 1e-12):
                    errs.append(f"{axis} ESS {e['ess']} outside (0, {m}]")
                errs += _within(f"{axis} mean at alpha {a}", e["mean"][0], mean,
                                K_SE * math.sqrt(var / e["ess"]))
        return errs

    return check


def check_sweep(ys: np.ndarray, tau0s: list[float]) -> Callable:
    def check(rep, _out):
        r = rep["results"]
        errs = _ok(rep)
        if r["n_failed"] or r["n_cells"] != len(tau0s):
            errs.append(f"{r['n_failed']} of {r['n_cells']} cells failed")
        for row in r["rows"]:
            want = nn_log_marginal(ys, tau0=row["model_tau0"])
            errs += _within(f"log evidence at tau0={row['model_tau0']}",
                            row.get("log_evidence"), want, K_SE * row["mc_se_log"] + 1e-9)
        return errs

    return check


def check_render(source: str) -> Callable:
    """The re-rendered SVGs must equal, byte for byte, those of the source run."""

    def check(rep, out):
        errs = _ok(rep)
        src = out.parent / source
        want = sorted(p.name for p in src.glob("*.svg"))
        if not want or rep["results"]["rendered"] != want:
            return errs + [f"rendered {rep['results']['rendered']}, source has {want}"]
        for name in want:
            if (out / name).read_bytes() != (src / name).read_bytes():
                errs.append(f"{name} differs from the source run")
        return errs

    return check


# ---------------------------------------------------------------------------
# Input generation


def _write_data(path: Path, ys: np.ndarray) -> None:
    path.write_text("y0\n" + "".join(_f(v) + "\n" for v in ys))


def _write_expert(path: Path, rng: np.random.Generator, n_trials: int) -> np.ndarray:
    """Probe quantiles of a dithered beta-binomial count under a seeded Beta."""
    a, b = rng.uniform(1.5, 4.0, size=2)
    theta = rng.beta(a, b, size=200_000)
    counts = rng.binomial(n_trials, theta) + rng.random(theta.size)
    qs = np.quantile(counts, PROBES)
    path.write_text("target,probe,value\n"
                    + "".join(f"count,{p},{_f(q)}\n" for p, q in zip(PROBES, qs)))
    return qs


def _write_ini(path: Path, sections: dict[str, dict]) -> None:
    text = ""
    for name, items in sections.items():
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()) + "\n"
    path.write_text(text)


def _normal_data(rng: np.random.Generator, n: int = N_OBS) -> np.ndarray:
    theta = rng.normal(MU0, TAU0)
    return rng.normal(theta, SIGMA, size=n)


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs into workdir and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    ys = _normal_data(rng)
    _write_data(workdir / "obs.csv", ys)
    return {"sbc-loop": _sbc_loop, "bulk-sim": _bulk_sim}[workload](seed, workdir, rng, ys)


def _sbc(label, model, params, approx, s, m, seed, expect, extra=()):
    argv = ("sbc", "--model", model, "--model-params", params, "--approximator", approx,
            "--S", str(s), "--M", str(m), "--seed", str(seed), "--out", label) + tuple(extra)
    return Command(label, argv, check_sbc(expect, s, m))


def _sbc_loop(seed, workdir, rng, ys):
    s, m, s_freq, s_pow, s_acc, null_s = 400, 99, 2000, 2000, 2000, 10_000
    common = ("--seed", str(seed))
    nn = ("--model", "normal-normal", "--model-params", NN)
    models = {"normal-normal": NN, "beta-binomial": "a=2,b=3,n_trials=10,n_obs=5",
              "poisson-gamma": "a=3,b=1,n_obs=5"}
    cmds = []
    for model, params in models.items():
        cmds.append(_sbc(f"sbc-{model}-exact", model, params, "exact", s, m, seed, "pass"))
        cmds.append(_sbc(f"sbc-{model}-perturbed", model, params, "perturbed", s, m, seed,
                         "detect", ("--approximator-params", "sd_scale=0.5")))
    theta = float(rng.normal(MU0, TAU0))
    w = TAU0**2 / (TAU0**2 + SIGMA**2 / N_OBS)
    law = f"normal:{_f(w * theta + (1 - w) * MU0)},{_f(w * SIGMA / math.sqrt(N_OBS))}"
    delta = SIGMA / math.sqrt(N_OBS) * float(PHI.inv_cdf(0.95) + rng.uniform(-1, 1))
    return cmds + [
        Command("post-sbc", ("post-sbc",) + nn + (
            "--approximator", "exact", "--data", "obs.csv", "--S", str(s), "--M", str(m),
            "--out", "post-sbc") + common, check_sbc("pass", s, m)),
        Command("freq-calibrate", ("freq-calibrate",) + nn + (
            "--estimator", "posterior-mean", f"--theta-star={_f(theta)}", "--sampling", law,
            "--alphas", "0.9", "--S", str(s_freq), "--out", "freq-calibrate") + common,
            check_freq(s_freq, 0.9)),
        Command("power-sim", ("power",) + nn + (
            "--test", "sim", "--theta0", "0", f"--theta-star={_f(delta)}", "--side", "upper",
            "--alpha", "0.05", "--S", str(s_pow), "--null-s", str(null_s),
            "--out", "power-sim") + common, check_power(delta, 0.05, s_pow, null_s)),
        Command("accuracy", ("accuracy",) + nn + (
            "--theta-star", "prior", "--S", str(s_acc), "--out", "accuracy") + common,
            check_accuracy),
        _sbc("sbc-rwm", "normal-normal", NN, "rwm", 50, 19, seed, "shape",
             ("--approximator-params", "chains=2,warmup=150,step_sd=0.3")),
        Command("ppc", ("ppc",) + nn + (
            "--approximator", "exact", "--data", "obs.csv", "--S", "1000",
            "--out", "ppc") + common, check_ppc(ys, 1000)),
        Command("sensitivity", ("sensitivity",) + nn + (
            "--approximator", "exact", "--data", "obs.csv", "--M", "2000",
            "--out", "sensitivity") + common, check_power_scale(ys, 2000)),
        Command("render", ("render", "--report", "sbc-normal-normal-exact/report.json",
                           "--out", "render"), check_render("sbc-normal-normal-exact")),
    ]


def _bulk_sim(seed, workdir, rng, ys):
    s_test = 1_000_000
    theta0 = float(ys.mean()) - SIGMA / math.sqrt(N_OBS) * rng.uniform(0.7, 2.3)
    proposals, q, m_abc = 500_000, 0.001, 250
    near = {"mu0": round(float(ys.mean()), 3), "tau0": 0.5, "sigma": SIGMA}
    far = {"mu0": round(float(ys.mean()) + 1.5, 3), "tau0": 0.5, "sigma": SIGMA}
    _write_ini(workdir / "compare.ini", {
        "compare": {"models": "near, far"},
        "model:near": {"name": "normal-normal", **near},
        "model:far": {"name": "normal-normal", **far}})
    lo, hi = -float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
    expert = _write_expert(workdir / "expert.csv", rng, 20)
    tau0s = [0.5, 1.0, 2.0]
    _write_ini(workdir / "sweep.ini", {
        "model": {"name": "normal-normal", "mu0": MU0, "tau0": TAU0, "sigma": SIGMA,
                  "n_obs": N_OBS},
        "sweep": {"pipeline": "evidence", "s": 200_000,
                  "vary_model_tau0": "|".join(str(t) for t in tau0s)}})
    common = ("--seed", str(seed))
    return [
        Command("test", ("test", "--model", "normal-normal", "--model-params", NN,
                         "--data", "obs.csv", f"--theta0={_f(theta0)}", "--S", str(s_test),
                         "--out", "test") + common, check_test(ys, theta0, s_test)),
        Command("abc", ("abc", "--model", "normal-normal", "--model-params", NN,
                        "--data", "obs.csv", "--quantile", str(q), "--max-proposals",
                        str(proposals), "--M", str(m_abc), "--out", "abc") + common,
                check_abc(ys, proposals, m_abc)),
        Command("compare", ("compare", "--config", "compare.ini", "--data", "obs.csv",
                            "--S", "1000000", "--out", "compare") + common,
                check_evidence(ys, {"near": near, "far": far})),
        Command("prior-check", ("prior-check", "--model", "normal-normal", "--model-params",
                                NN, f"--region={_f(lo)},{_f(hi)}", "--S", "1000000",
                                "--out", "prior-check") + common,
                check_prior(lo, hi, 1_000_000)),
        Command("elicit", ("elicit", "--expert-csv", "expert.csv", "--n-trials", "20",
                           "--tolerance", "0", "--max-iter", "30", "--out", "elicit")
                + common, check_elicit(expert)),
        Command("sweep", ("sensitivity", "--mode", "sweep", "--config", "sweep.ini",
                          "--data", "obs.csv", "--out", "sweep") + common,
                check_sweep(ys, tau0s)),
    ]
