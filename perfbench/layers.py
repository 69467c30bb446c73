"""Per-layer instrumentation of emsdeploy: which public functions the traced
run wraps, and how its spans and counters become per-layer metrics.

A layer is one emsdeploy module. A metric of a layer the workload never
reaches reads 0 (a count or time of no work; a ratio over no calls).
"""

from __future__ import annotations

import numpy as np

from tracing import Tracer
from workloads import StationLadder

LAYERS = (
    "cli", "ingest", "geogrid", "demand", "dispatchflow", "stochastic",
    "robust", "simcore", "calibrate", "analysis", "synth",
)
STAGES = (
    "grid", "preprocess", "fit", "optimize", "simulate",
    "verify", "alpha-cv", "fleet-sweep", "analyze", "plotdata",
)
RUNGS = StationLadder.RUNGS

# name -> unit; the traced run reports exactly these
PER_LAYER = {
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "ingest.parse_calls.calls": "count",
    "ingest.parse_calls.rows": "count",
    "ingest.parse_calls_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.build_demand_matrix_s": "s",
    "ingest.serialize_calls_s": "s",
    "ingest.calibration_pairs_s": "s",
    "geogrid.assign_cell.calls": "count",
    "geogrid.load_grid_s": "s",
    "demand.fit_rates_s": "s",
    "demand.build_uncertainty_set_s": "s",
    "demand.enumerate_set.calls": "count",
    "dispatchflow.totals.calls": "count",
    "dispatchflow.totals_s": "s",
    "dispatchflow.evaluator_init.calls": "count",
    "dispatchflow.evaluator_init_s": "s",
    "dispatchflow.min_shortfall.calls": "count",
    **{f"stochastic.I{i}.solve_s": "s" for i in RUNGS},
    **{f"stochastic.I{i}.nodes": "count" for i in RUNGS},
    "stochastic.nodes_per_s": "1/s",
    "stochastic.minimize_deployment.calls": "count",
    **{f"robust.I{i}.solve_s": "s" for i in RUNGS},
    "robust.ccg_iterations": "count",
    "robust.master_s": "s",
    "robust.worst_case_demand.calls": "count",
    "robust.worst_case_demand_s": "s",
    "robust.exact_certificate_ratio": "ratio",
    "robust.converged_ratio": "ratio",
    "simcore.simulate.calls": "count",
    "simcore.simulate_s": "s",
    "simcore.calls_simulated": "count",
    "simcore.calls_per_s": "1/s",
    "simcore.events": "count",
    "simcore.queued_call_ratio": "ratio",
    "simcore.repeat_simulation_ratio": "ratio",
    "calibrate.apply.calls": "count",
    "calibrate.fit_loglog_s": "s",
    "calibrate.verify_s": "s",
    "analysis.assemble_tracts_s": "s",
    "analysis.compare_models_s": "s",
    "analysis.fit_lasso.calls": "count",
    "analysis.fit_lasso_s": "s",
    "synth.synth_calls_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "error_rate": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _SimulateAttrs:
    """Per-call outcome counts, and whether the same inputs ran before."""

    def __init__(self):
        self.seen: set = set()

    def __call__(self, args, kwargs, outcome):
        x, calls = args[:2]
        params = args[3] if len(args) > 3 else kwargs.get("params")
        seed = args[4] if len(args) > 4 else kwargs.get("seed", 0)
        key = (
            np.asarray(x, dtype=np.int64).tobytes(),
            hash(tuple(c if isinstance(c, tuple) else (c.timestamp, c.lat, c.lon) for c in calls)),
            seed,
            repr(params),
        )
        repeat = key in self.seen
        self.seen.add(key)
        return {
            "calls": outcome.n_calls,
            "events": len(outcome.event_log),
            "queued": sum(1 for c in outcome.calls if c.dispatch_wait_s > 0),
            "repeat": repeat,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer."""
    from emsdeploy import analysis, calibrate, demand, dispatchflow, geogrid, ingest, robust, simcore, stochastic, synth

    tracer.wrap_span(ingest, "parse_calls", "ingest.parse_calls",
                     lambda a, k, r: {"rows": r[1].n_rows})
    for fn in ("build_demand_matrix", "serialize_calls", "calibration_pairs"):
        tracer.wrap_span(ingest, fn, f"ingest.{fn}")
    tracer.wrap_count(geogrid, "assign_cell", "geogrid.assign_cell")
    tracer.wrap_span(geogrid, "load_grid", "geogrid.load_grid")
    tracer.wrap_span(demand, "fit_rates", "demand.fit_rates")
    tracer.wrap_span(demand, "build_uncertainty_set", "demand.build_uncertainty_set")
    tracer.wrap_count(demand, "enumerate_set", "demand.enumerate_set")
    tracer.wrap_count(dispatchflow.ScenarioEvaluator, "totals", "dispatchflow.totals", timed=True)
    tracer.wrap_count(dispatchflow.ScenarioEvaluator, "__init__", "dispatchflow.evaluator_init", timed=True)
    tracer.wrap_count(dispatchflow, "min_shortfall", "dispatchflow.min_shortfall")
    tracer.wrap_span(stochastic, "minimize_deployment", "stochastic.minimize_deployment",
                     lambda a, k, r: {"nodes": r.nodes})
    tracer.wrap_span(stochastic, "solve_stochastic", "stochastic.solve_stochastic")
    tracer.wrap_span(robust, "worst_case_demand", "robust.worst_case_demand",
                     lambda a, k, r: {"exact": r.exact})
    tracer.wrap_span(robust, "solve_robust_ccg", "robust.solve_robust_ccg",
                     lambda a, k, r: {"iterations": r.state.iterations, "converged": r.converged})
    tracer.wrap_span(simcore, "simulate", "simcore.simulate", _SimulateAttrs())
    tracer.wrap_span(simcore, "compare_policies", "simcore.compare_policies")
    tracer.wrap_count(calibrate, "apply", "calibrate.apply")
    tracer.wrap_span(calibrate, "fit_loglog", "calibrate.fit_loglog")
    tracer.wrap_span(calibrate, "verify", "calibrate.verify")
    tracer.wrap_span(analysis, "assemble_tracts", "analysis.assemble_tracts")
    tracer.wrap_span(analysis, "compare_models", "analysis.compare_models")
    tracer.wrap_span(analysis, "fit_lasso", "analysis.fit_lasso")
    tracer.wrap_span(synth, "synth_calls", "synth.synth_calls")


def metrics(tracer: Tracer, attempted: int, failed: int, synth_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced unit of work; ``synth_s`` is timed in its set-up."""
    spans = tracer.spans
    counts, seconds = tracer.counts, tracer.seconds

    def attrs(name: str, key: str) -> list:
        return [s[4][key] for s in spans if s[0] == name and s[4]]

    def under(name: str, ancestor: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and tracer.has_ancestor(i, ancestor)]

    out: dict[str, float] = {f"cli.{stage}_s": tracer.total(f"cli.{stage}") for stage in STAGES}

    parse_s = tracer.total("ingest.parse_calls")
    rows = sum(attrs("ingest.parse_calls", "rows"))
    out.update({
        "ingest.parse_calls.calls": len(tracer.durations("ingest.parse_calls")),
        "ingest.parse_calls.rows": rows,
        "ingest.parse_calls_s": parse_s,
        "ingest.rows_per_s": _ratio(rows, parse_s),
        "ingest.build_demand_matrix_s": tracer.total("ingest.build_demand_matrix"),
        "ingest.serialize_calls_s": tracer.total("ingest.serialize_calls"),
        "ingest.calibration_pairs_s": tracer.total("ingest.calibration_pairs"),
        "geogrid.assign_cell.calls": counts["geogrid.assign_cell"],
        "geogrid.load_grid_s": tracer.total("geogrid.load_grid"),
        "demand.fit_rates_s": tracer.total("demand.fit_rates"),
        "demand.build_uncertainty_set_s": tracer.total("demand.build_uncertainty_set"),
        "demand.enumerate_set.calls": counts["demand.enumerate_set"],
        "dispatchflow.totals.calls": counts["dispatchflow.totals"],
        "dispatchflow.totals_s": seconds["dispatchflow.totals"],
        "dispatchflow.evaluator_init.calls": counts["dispatchflow.evaluator_init"],
        "dispatchflow.evaluator_init_s": seconds["dispatchflow.evaluator_init"],
        "dispatchflow.min_shortfall.calls": counts["dispatchflow.min_shortfall"],
    })

    md = "stochastic.minimize_deployment"
    for i in RUNGS:
        rung_sto, rung_rob = f"station-ladder.I{i}.stochastic", f"station-ladder.I{i}.robust"
        out[f"stochastic.I{i}.solve_s"] = tracer.total(rung_sto)
        out[f"stochastic.I{i}.nodes"] = sum(spans[k][4]["nodes"] for k in under(md, rung_sto))
        out[f"robust.I{i}.solve_s"] = tracer.total(rung_rob)
    nodes = sum(attrs(md, "nodes"))
    out["stochastic.nodes_per_s"] = _ratio(nodes, tracer.total(md))
    out["stochastic.minimize_deployment.calls"] = len(tracer.durations(md))

    ccg = "robust.solve_robust_ccg"
    exact = attrs("robust.worst_case_demand", "exact")
    converged = attrs(ccg, "converged")
    masters = [i for i, s in enumerate(spans) if s[0] == md and s[3] >= 0 and spans[s[3]][0] == ccg]
    out.update({
        "robust.ccg_iterations": sum(attrs(ccg, "iterations")),
        "robust.master_s": sum(spans[i][2] - spans[i][1] for i in masters),
        "robust.worst_case_demand.calls": len(exact),
        "robust.worst_case_demand_s": tracer.total("robust.worst_case_demand"),
        "robust.exact_certificate_ratio": _ratio(sum(exact), len(exact)),
        "robust.converged_ratio": _ratio(sum(converged), len(converged)),
    })

    sim = "simcore.simulate"
    sim_s = tracer.total(sim)
    sim_calls = sum(attrs(sim, "calls"))
    repeats = attrs(sim, "repeat")
    out.update({
        "simcore.simulate.calls": len(repeats),
        "simcore.simulate_s": sim_s,
        "simcore.calls_simulated": sim_calls,
        "simcore.calls_per_s": _ratio(sim_calls, sim_s),
        "simcore.events": sum(attrs(sim, "events")),
        "simcore.queued_call_ratio": _ratio(sum(attrs(sim, "queued")), sim_calls),
        "simcore.repeat_simulation_ratio": _ratio(sum(repeats), len(repeats)),
        "calibrate.apply.calls": counts["calibrate.apply"],
        "calibrate.fit_loglog_s": tracer.total("calibrate.fit_loglog"),
        "calibrate.verify_s": tracer.total("calibrate.verify"),
        "analysis.assemble_tracts_s": tracer.total("analysis.assemble_tracts"),
        "analysis.compare_models_s": tracer.total("analysis.compare_models"),
        "analysis.fit_lasso.calls": len(tracer.durations("analysis.fit_lasso")),
        "analysis.fit_lasso_s": tracer.total("analysis.fit_lasso"),
        "synth.synth_calls_s": synth_s,
    })

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, tracer.self_times()):
        layer = s[0].split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += own
    out.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    out["error_rate"] = _ratio(failed, attempted)
    out["trace.overhead_s"] = overhead_s
    assert set(out) == set(PER_LAYER), set(out) ^ set(PER_LAYER)
    return {name: float(v) for name, v in out.items()}
