"""In-memory span recorder wrapped around simflow's public functions.

The benchmark's traced run executes the CLI in-process and patches each
public function where it is looked up: `substream` in every module that
imported it, model methods on their classes, CLI handlers in the handler
table. A span records name, start, end, parent and thread, plus a few
counts taken from the call's arguments or result. Spans stay in memory
until the run ends. Per-layer self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, name, start, end, parent, thread, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, attrs=None, propagate: bool = False):
        """Return fn recording one span per call.

        attrs(args, kwargs, result) -> dict adds counts to the span. With
        propagate, fn's first argument is a task function whose calls, on
        whatever thread, become children of this span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.spans)
                span = [sid, name, 0.0, 0.0, stack[-1] if stack else None,
                        threading.get_ident(), None]
                self.spans.append(span)
            if propagate and args:
                args = (self._adopt(sid, args[0]),) + args[1:]
            stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def _adopt(self, parent: int, task):
        def adopted(*args, **kwargs):
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent]
            try:
                return task(*args, **kwargs)
            finally:
                stack[:] = saved

        return adopted

    def swap(self, owner, attr: str, new) -> None:
        """Put new at owner.attr (owner[attr] for a dict) until restore()."""
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, attrs=None, propagate=False) -> None:
        """Trace owner.attr (module global or own class attribute) if present."""
        if owner is None:
            return
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if callable(fn):
            self.swap(owner, attr, self.wrap(name, fn, attrs, propagate))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# What is traced


def _rows(result) -> int:
    values = getattr(result, "values", None)
    return int(values.shape[0]) if hasattr(values, "shape") else 0


def install(tracer: Tracer, mods: dict) -> None:
    """Patch the public functions of the simflow modules in mods (name -> module)."""
    m = mods.get
    for mod in ("rng", "calibration", "predictive", "simtest", "compare", "elicitation",
                "diagnostics"):
        tracer.patch(m(mod), "substream", "rng.substream")
    for mod in ("calibration", "predictive"):
        tracer.patch(m(mod), "map_indexed", "parallel.map_indexed", propagate=True,
                     attrs=lambda a, k, r: {"n": int(a[1]), "threads":
                                            int(a[2] if len(a) > 2 else k.get("threads", 1))})

    models = m("models")
    if models is not None:
        classes = [models.Model, *getattr(models, "MODEL_REGISTRY", {}).values()]
        for cls in classes:
            tracer.patch(cls, "analytic_posterior", "models.analytic_posterior")
            tracer.patch(cls, "sample_prior", "models.sample_prior")
            tracer.patch(cls, "simulate_batch", "models.simulate_batch",
                         attrs=lambda a, k, r: {"values": int(getattr(r, "size", 0))})
        tracer.patch(getattr(models, "AnalyticPosterior", None), "sample",
                     "models.posterior_sample")

    approx = m("approximators")
    if approx is not None:
        for cls in ("ExactConjugate", "PerturbedConjugate", "RandomWalkMetropolis",
                    "AbcRejection"):
            tracer.patch(getattr(approx, cls, None), "approximate", "approximators.approximate",
                         attrs=lambda a, k, r: {"kind": a[0].name, "draws": _rows(r)})
        tracer.patch(approx, "rwm_sample", "approximators.rwm_sample",
                     attrs=lambda a, k, r: {"accept": float(r.acceptance_rate),
                                            "steps": int(r.chains * r.iterations)})
    abc_attrs = lambda a, k, r: {"proposals": int(r.proposals_used),  # noqa: E731
                                 "accepted": float(r.acceptance_rate * r.proposals_used)}
    for owner in (approx, m("cli")):
        tracer.patch(owner, "abc_rejection", "approximators.abc_rejection", attrs=abc_attrs)

    cli = m("cli")
    for fn in ("run_sbc", "run_frequentist_calibration", "power_analysis",
               "estimator_accuracy"):
        tracer.patch(cli, fn, f"calibration.{fn}")
    for fn in ("run_posterior_sbc", "run_ppc", "prior_pushforward_check",
               "frequentist_predictive_check"):
        tracer.patch(cli, fn, f"predictive.{fn}")

    for mod in ("calibration", "predictive", "simtest"):
        tracer.patch(m(mod), "simulation_pvalue", "simtest.simulation_pvalue")
    tracer.patch(m("simtest"), "simulate_null", "simtest.simulate_null",
                 attrs=lambda a, k, r: {"draws": int(r.s), "resampled": int(r.n_resampled)})

    for mod in ("calibration", "predictive"):
        tracer.patch(m(mod), "uniformity_test", "diagnostics.uniformity_test")
    diag = m("diagnostics")
    band = getattr(diag, "_calibrated_band", None)
    if band is not None and hasattr(band, "cache_info"):
        misses = [0]   # cache misses before the current call; a miss means a cold build
        traced = tracer.wrap("diagnostics.band", band,
                             lambda a, k, r: {"cold": band.cache_info().misses > misses[0]})

        @functools.wraps(band)
        def band_call(*args, **kwargs):
            misses[0] = band.cache_info().misses
            return traced(*args, **kwargs)

        tracer.swap(diag, "_calibrated_band", band_call)

    for owner in (cli, m("compare")):
        tracer.patch(owner, "marginal_likelihood_mc", "compare.marginal_likelihood_mc")
    for fn in ("power_scale_weights", "posterior_model_probs", "sensitivity_sweep"):
        tracer.patch(cli, fn, f"compare.{fn}")

    elic = m("elicitation")
    tracer.patch(elic, "model_implied_stats", "elicitation.model_implied_stats")
    tracer.patch(elic, "elicitation_loss", "elicitation.loss")
    tracer.patch(cli, "elicit_prior", "elicitation.elicit_prior")

    handlers = getattr(cli, "_HANDLERS", None)
    if isinstance(handlers, dict):
        for key, fn in list(handlers.items()):
            tracer.swap(handlers, key, tracer.wrap("cli.handler", fn))

    tracer.patch(m("report"), "dumps", "report.dumps",
                 attrs=lambda a, k, r: {"bytes": len(r.encode())})
    tracer.patch(m("figures"), "render_figures", "figures.render",
                 attrs=lambda a, k, r: {"bytes": sum(len(v.encode()) for v in r.values())})


# ---------------------------------------------------------------------------
# Per-layer metrics


PER_LAYER = {  # name -> unit; the benchmark reports every one of them
    "rng.substream_calls": "count", "rng.substream_s": "s",
    "parallel.map_indexed_self_s": "s", "parallel.threads": "count",
    "models.analytic_posterior_calls": "count", "models.analytic_posterior_s": "s",
    "models.posterior_sample_s": "s", "models.simulate_batch_calls": "count",
    "models.simulate_batch_s": "s", "models.simulated_values": "count",
    "models.sample_prior_s": "s",
    "approximators.approximate_s.exact": "s", "approximators.approximate_s.perturbed": "s",
    "approximators.approximate_s.rwm": "s", "approximators.draws": "count",
    "approximators.rwm_accept_ratio": "ratio", "approximators.abc_proposals": "count",
    "approximators.abc_accept_ratio": "ratio",
    "calibration.replications": "count", "calibration.self_s": "s", "predictive.self_s": "s",
    "simtest.simulation_pvalue_calls": "count", "simtest.simulation_pvalue_s": "s",
    "simtest.simulate_null_s": "s", "simtest.null_draws": "count",
    "simtest.n_resampled": "count",
    "diagnostics.uniformity_test_s": "s", "diagnostics.band_cold_s": "s",
    "diagnostics.band_hit_ratio": "ratio",
    "compare.marginal_likelihood_mc_s": "s", "compare.power_scale_weights_s": "s",
    "elicitation.loss_evals": "count", "elicitation.model_implied_stats_s": "s",
    "cli.import_s": "s", "cli.import_scipy_stats_s": "s", "cli.handler_self_s": "s",
    "report.dumps_s": "s", "report.bytes": "bytes", "figures.render_s": "s",
    "figures.svg_bytes": "bytes", "trace.overhead_s": "s", "report.digest_changed": "count",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp[4] is not None:
            children[sp[4]].append(sp)
    out = []
    for sid, _name, start, end, *_ in spans:
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into the PER_LAYER metrics that spans can give."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attr = defaultdict(float)
    threads = 0
    band_calls = band_hits = 0
    for sp, s in zip(spans, own):
        name, dur, a = sp[1], sp[3] - sp[2], sp[6] or {}
        layer = name.split(".", 1)[0]
        total[name] += dur
        calls[name] += 1
        self_s[layer] += s
        if name == "cli.handler":
            attr["handler_self"] += s
        if name == "parallel.map_indexed":
            attr["map_self"] += s
            attr["replications"] += a["n"]
            threads = max(threads, a["threads"])
        elif name == "approximators.approximate":
            total[f"approximate.{a['kind']}"] += dur
            attr["draws"] += a["draws"]
        elif name == "diagnostics.band":
            band_calls += 1
            band_hits += not a["cold"]
            if a["cold"]:
                attr["band_cold"] += dur
        for key, val in a.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                attr[f"{name}.{key}"] += val
    rwm_steps = attr["approximators.rwm_sample.steps"]
    rwm_accepted = sum(sp[6]["accept"] * sp[6]["steps"] for sp in spans
                       if sp[1] == "approximators.rwm_sample")
    proposals = attr["approximators.abc_rejection.proposals"]
    return {
        "rng.substream_calls": calls["rng.substream"],
        "rng.substream_s": total["rng.substream"],
        "parallel.map_indexed_self_s": attr["map_self"],
        "parallel.threads": threads,
        "models.analytic_posterior_calls": calls["models.analytic_posterior"],
        "models.analytic_posterior_s": total["models.analytic_posterior"],
        "models.posterior_sample_s": total["models.posterior_sample"],
        "models.simulate_batch_calls": calls["models.simulate_batch"],
        "models.simulate_batch_s": total["models.simulate_batch"],
        "models.simulated_values": attr["models.simulate_batch.values"],
        "models.sample_prior_s": total["models.sample_prior"],
        "approximators.approximate_s.exact": total["approximate.exact"],
        "approximators.approximate_s.perturbed": total["approximate.perturbed"],
        "approximators.approximate_s.rwm": total["approximate.rwm"],
        "approximators.draws": attr["draws"],
        "approximators.rwm_accept_ratio": rwm_accepted / rwm_steps if rwm_steps else 0.0,
        "approximators.abc_proposals": proposals,
        "approximators.abc_accept_ratio":
            attr["approximators.abc_rejection.accepted"] / proposals if proposals else 0.0,
        "calibration.replications": attr["replications"],
        "calibration.self_s": self_s["calibration"],
        "predictive.self_s": self_s["predictive"],
        "simtest.simulation_pvalue_calls": calls["simtest.simulation_pvalue"],
        "simtest.simulation_pvalue_s": total["simtest.simulation_pvalue"],
        "simtest.simulate_null_s": total["simtest.simulate_null"],
        "simtest.null_draws": attr["simtest.simulate_null.draws"],
        "simtest.n_resampled": attr["simtest.simulate_null.resampled"],
        "diagnostics.uniformity_test_s": total["diagnostics.uniformity_test"],
        "diagnostics.band_cold_s": attr["band_cold"],
        "diagnostics.band_hit_ratio": band_hits / band_calls if band_calls else 0.0,
        "compare.marginal_likelihood_mc_s": total["compare.marginal_likelihood_mc"],
        "compare.power_scale_weights_s": total["compare.power_scale_weights"],
        "elicitation.loss_evals": calls["elicitation.loss"],
        "elicitation.model_implied_stats_s": total["elicitation.model_implied_stats"],
        "cli.handler_self_s": attr["handler_self"],
        "report.dumps_s": total["report.dumps"],
        "report.bytes": attr["report.dumps.bytes"],
        "figures.render_s": total["figures.render"],
        "figures.svg_bytes": attr["figures.render.bytes"],
    }
