"""Metric names, units and the arithmetic that turns runs into metrics.

Names, units, `better` and bounds are read from BENCHMARK.json at the
repository root. END_TO_END metrics come from untraced runs, one value
per run of the CLI, reported as the median over the runs in one
benchmark invocation. PER_LAYER metrics come from traced runs, and
FEEDS names the end-to-end metric and workloads each one should move.
Every per-layer metric is printed on every workload, so a layer that a
workload never calls reads 0 there. `failed_share` is printed for every
invocation but is not an end-to-end metric of BENCHMARK.json, whose
end-to-end metrics must never read 0; the result line carries it as
`failed` / `attempted`.
"""

import json
import os
import statistics

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["failed_share"] = "ratio"

EJECT = "eject-kicks, eject-smooth"
ALL = "all workloads"
FIG1 = "run_s, cpu_s, peak_rss_mb on fig1-oracle"
EMISSION = "run_s, cpu_s, peak_rss_mb on emission-grid"
OPTICS = "run_s, items_per_s on " + EJECT

LAYERS = ["cli", "config", "ensemble", "blockade", "optics", "ejection",
          "emission"]

# per-layer metric -> the end-to-end metric and workloads it should move
FEEDS = {
    "cli.import_s": "setup_s on " + ALL,
    "cli.import_scipy_integrate_s": "setup_s on " + ALL,
    "cli.self_s": "run_s on emission-grid, eject-kicks",
    "cli.output_bytes": "run_s on emission-grid, eject-kicks",
    "config.load_config.calls": "setup_s on " + ALL,
    "config.load_config.s": "setup_s on " + ALL,
    "ensemble.sample_cloud.calls": "run_s on fig1-oracle",
    "ensemble.sample_cloud.s": "run_s on fig1-oracle",
    "ensemble.atoms_sampled": "run_s on fig1-oracle",
    "ensemble.mean_blockade_shift.calls": "run_s on fig1-oracle",
    "ensemble.mean_blockade_shift.s": "run_s on fig1-oracle",
    "ensemble.pairs": "run_s on fig1-oracle",
    "blockade.build_hamiltonian.calls": FIG1,
    "blockade.build_hamiltonian.s": FIG1,
    "blockade.evolve.calls": FIG1,
    "blockade.evolve.s": FIG1,
    "blockade.basis_dim_max": FIG1,
    "blockade.basis_dim_sum": FIG1,
    "blockade.self_s": FIG1,
    "blockade.oracle_p_zero_rel_dev_max": "correctness of fig1-oracle",
    "optics.force.calls": OPTICS,
    "optics.force.s": OPTICS,
    "optics.total_scattering_rate.calls": OPTICS,
    "optics.total_scattering_rate.s": OPTICS,
    "optics.potential.calls": OPTICS,
    "optics.potential.s": OPTICS,
    "optics.points": OPTICS,
    "ejection.simulate_trajectory.calls": "run_s on " + EJECT,
    "ejection.simulate_trajectory.s": "run_s on " + EJECT,
    "ejection.segments": "run_s on " + EJECT,
    "ejection.integrator_self_s": "run_s on " + EJECT,
    "ejection.rhs_evals_per_trajectory": "run_s on " + EJECT,
    "ejection.kicks": "run_s on eject-kicks",
    "ejection.kick_acceptance": "run_s on eject-kicks",
    "ejection.truncated_fraction": "run_s on " + EJECT,
    "ejection.escape_fraction_b": "correctness of " + EJECT,
    "emission.single_photon_pattern.calls": EMISSION,
    "emission.single_photon_pattern.s": EMISSION,
    "emission.double_excitation_pattern.calls": EMISSION,
    "emission.double_excitation_pattern.s": EMISSION,
    "emission.pattern_metrics.calls": EMISSION,
    "emission.pattern_metrics.s": EMISSION,
    "emission.phase_terms": EMISSION,
    "emission.bytes_computed": EMISSION,
    "emission.double_useful_ratio": EMISSION,
    "trace.overhead_s": "none: traced minus untraced run_s",
    "trace.spans": "none: spans recorded in one run",
}
FEEDS.update(("%s.self_share" % layer,
              "run_s: the layer's self time over the traced run_s")
             for layer in LAYERS)

# function spans reported as <name>.calls and <name>.s
TIMED_CALLS = [
    "config.load_config", "ensemble.sample_cloud",
    "ensemble.mean_blockade_shift", "blockade.build_hamiltonian",
    "blockade.evolve", "optics.force", "optics.total_scattering_rate",
    "optics.potential", "ejection.simulate_trajectory",
    "emission.single_photon_pattern", "emission.double_excitation_pattern",
    "emission.pattern_metrics",
]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value
    stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(results, items):
    """Median end-to-end metrics over the successful runs' results."""
    def med(key):
        return statistics.median(r[key] for r in results)
    return {
        "setup_s": med("setup_s"),
        "run_s": med("run_s"),
        "items_per_s": statistics.median(items / r["run_s"]
                                         for r in results),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(spans, counters, run_s):
    """Per-layer metrics of one traced run from its spans and counters.

    A span is (name, start, end, parent index); its self time is its
    duration minus the durations of its direct children.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls, total, self_by_name = {}, {}, {}
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]

    def layer_self(layer):
        return sum(v for k, v in self_by_name.items()
                   if k.split(".")[0] == layer)

    out = {}
    for name in TIMED_CALLS:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = total.get(name, 0.0)
    for layer in LAYERS:
        out[layer + ".self_share"] = _ratio(layer_self(layer), run_s)
    out["cli.self_s"] = layer_self("cli")
    out["blockade.self_s"] = layer_self("blockade")
    for key in ("ensemble.atoms_sampled", "ensemble.pairs",
                "blockade.basis_dim_max", "blockade.basis_dim_sum",
                "optics.points", "ejection.kicks", "emission.phase_terms",
                "emission.bytes_computed"):
        out[key] = counters.get(key, 0)
    trajectories = counters.get("ejection.trajectories", 0)
    candidates = sum(
        1 for name, _, _, parent in spans
        if name == "optics.total_scattering_rate" and parent >= 0
        and spans[parent][0] == "ejection.simulate_trajectory")
    out["ejection.segments"] = calls.get("ejection.segment", 0)
    out["ejection.integrator_self_s"] = self_by_name.get("ejection.segment",
                                                         0.0)
    out["ejection.rhs_evals_per_trajectory"] = _ratio(
        counters.get("ejection.rhs_evals", 0), trajectories)
    out["ejection.kick_acceptance"] = _ratio(counters.get("ejection.kicks", 0),
                                             candidates)
    out["ejection.truncated_fraction"] = _ratio(
        counters.get("ejection.truncated", 0), trajectories)
    out["emission.double_useful_ratio"] = _ratio(
        counters.get("emission.double_directions_read", 0),
        counters.get("emission.double_directions_computed", 0))
    out["trace.spans"] = len(spans)
    return out


def output_metrics(subcommand, summary):
    """Per-layer metrics read from a run's summary output."""
    out = {"ejection.escape_fraction_b": 0.0,
           "blockade.oracle_p_zero_rel_dev_max": 0.0}
    if subcommand == "eject":
        out["ejection.escape_fraction_b"] = (
            summary["states"]["b"]["escape_fraction"])
    elif subcommand == "fig1":
        out["blockade.oracle_p_zero_rel_dev_max"] = max(
            (abs(c["P_zero_integrator"] - c["P_zero_closed_form"])
             / c["P_zero_closed_form"]
             for c in summary["closed_form_vs_integrator"]), default=0.0)
    return out


def parse_importtime(stderr):
    """Cumulative import seconds of rydsources.cli and scipy.integrate
    from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"cli.import_s": cumulative["rydsources.cli"],
            "cli.import_scipy_integrate_s": cumulative["scipy.integrate"]}
