"""Output checks, one per CLI subcommand.

Each check reads the files a run wrote and returns a list of failure
messages (empty when the outputs are correct). The bounds come from the
acceptance criteria and use statistics, never bytes, so they survive a
change of RNG stream. Criterion 7's lambda/D gate is left out: it fails
by construction for a uniform ball, whose lobe is 1.156 lambda/D, and
that lobe is what the emission check compares against.
"""

import json
import os

UNIFORM_BALL_FWHM = 1.156        # lobe width in units of lambda/D
# One cloud's FWHM scatters about the lobe by about 0.5/sqrt(N) relative
# (0.51, 0.45 and 0.38 times 1/sqrt(N) over 30 clouds at N = 10, 20, 50),
# and small clouds sit above it (+16% at N = 10, +1% at N = 50). So the
# largest N is compared, within four standard errors of its trial mean.
FWHM_SPREAD = 0.5

# files each subcommand must write; the summary JSON comes last
OUTPUTS = {
    "eject": ["eject_profile.csv", "trajectories.csv", "eject_summary.json"],
    "emission": ["emission_metrics.json"],
    "fig1": ["fig1.csv", "fig1_summary.json"],
}


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _data_rows(path):
    """Rows of a CLI CSV, not counting the provenance and header lines."""
    with open(path) as fh:
        return sum(1 for _ in fh) - 2


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def check_eject(out_dir, cfg):
    s = _load(out_dir, "eject_summary.json")
    fails = []
    t1 = s["t1_estimate"]
    if not 20e-6 <= t1 <= 60e-6:
        fails.append("t1 %.3g s outside [20, 60] us" % t1)
    b, a = s["states"]["b"], s["states"]["a"]
    if b["trajectories"] != cfg["trajectories"]:
        fails.append("b trajectories %d != %d"
                     % (b["trajectories"], cfg["trajectories"]))
    if a["trajectories"] != cfg["trajectories_a"]:
        fails.append("a trajectories %d != %d"
                     % (a["trajectories"], cfg["trajectories_a"]))
    if b["escape_fraction"] < 0.9:
        fails.append("b escape fraction %.3f < 0.9" % b["escape_fraction"])
    if a["escape_fraction"] > 0.1:
        fails.append("a escape fraction %.3f > 0.1" % a["escape_fraction"])
    n_scat = s["n_scat_over_t1_at_peak_intensity"]
    if not _within(n_scat["b"], 21.0, 0.3):
        fails.append("n_scat(b) %.3f not 21 +- 30%%" % n_scat["b"])
    if not _within(n_scat["a"], 0.6, 0.3):
        fails.append("n_scat(a) %.3f not 0.6 +- 30%%" % n_scat["a"])
    ratio = b.get("collimation", {}).get("recoil_to_coherent_impulse_ratio")
    if ratio is None or not 0.05 <= ratio <= 0.15:
        fails.append("impulse ratio %r outside [0.05, 0.15]" % (ratio,))
    if _data_rows(os.path.join(out_dir, "trajectories.csv")) < 1:
        fails.append("trajectories.csv has no rows")
    return fails


def check_emission(out_dir, cfg):
    m = _load(out_dir, "emission_metrics.json")
    fails = []
    blocks = m["patterns"]
    if [blk["N"] for blk in blocks] != cfg["N_values"]:
        fails.append("pattern N values %r != %r"
                     % ([blk["N"] for blk in blocks], cfg["N_values"]))
    grid_rows = cfg["grid_points"] * 2 * cfg["grid_points"]
    for blk in blocks:
        N = blk["N"]
        if not _within(blk["peak_mean"], N, 1e-9):
            fails.append("N=%d: peak_mean %.12g != N" % (N, blk["peak_mean"]))
        if not _within(blk["background_mean"], 1.0, 0.2):
            fails.append("N=%d: background_mean %.4f not 1 +- 0.2"
                         % (N, blk["background_mean"]))
        if N == max(cfg["N_values"]):
            lobe = UNIFORM_BALL_FWHM * blk["lambda_over_D"]
            tol = 4 * FWHM_SPREAD / (N * blk["trials"]) ** 0.5
            if not _within(blk["fwhm_mean"], lobe, tol):
                fails.append("N=%d: FWHM %.4f rad not within %.0f%% of the "
                             "uniform-ball lobe %.4f rad"
                             % (N, blk["fwhm_mean"], 100 * tol, lobe))
        path = os.path.join(out_dir, "pattern_N%d.csv" % N)
        if not os.path.exists(path):
            fails.append("missing pattern_N%d.csv" % N)
        elif _data_rows(path) != grid_rows:
            fails.append("pattern_N%d.csv: %d rows, want %d"
                         % (N, _data_rows(path), grid_rows))
    # One cloud's double-channel value at the peak scatters like a
    # unit-mean exponential, so, as criterion 10 does with ten clouds, the
    # bound applies to the mean over every cloud of the run.
    clouds = sum(blk["trials"] for blk in blocks)
    double = sum(blk["double_channel_at_peak_mean"] * blk["trials"]
                 for blk in blocks) / max(clouds, 1)
    if not double <= 3.0:
        fails.append("double channel at peak, mean over %d clouds, %.4f > 3"
                     % (clouds, double))
    return fails


def check_fig1(out_dir, cfg):
    s = _load(out_dir, "fig1_summary.json")
    fails = []
    if [r["N"] for r in s["rows"]] != cfg["N_values"]:
        fails.append("fig1 rows do not cover N_values")
    fit = s["linear_fit_N_10_to_100"]
    if fit is None or not (fit["r_squared"] > 0.9
                           and fit["slope_per_atom"] > 0):
        fails.append("linear fit %r: need R^2 > 0.9, slope > 0" % (fit,))
    oracle_ns = [n for n in cfg["N_values"]
                 if n <= cfg["full_integrator_cap"]]
    comparison = s["closed_form_vs_integrator"]
    if [c["N"] for c in comparison] != oracle_ns:
        fails.append("integrator compared at N=%r, want %r"
                     % ([c["N"] for c in comparison], oracle_ns))
    for c in comparison:
        if not _within(c["P_zero_integrator"], c["P_zero_closed_form"],
                       1e-3):
            fails.append("N=%d: P_zero integrator %.6g vs closed form %.6g"
                         % (c["N"], c["P_zero_integrator"],
                            c["P_zero_closed_form"]))
        p_int, p_cf = c["P_double_integrator"], c["P_double_closed_form"]
        if not (p_int > 0 and p_cf > 0
                and max(p_int / p_cf, p_cf / p_int) <= 3.0):
            fails.append("N=%d: P_double integrator %.4g vs estimate %.4g "
                         "beyond a factor 3" % (c["N"], p_int, p_cf))
    if _data_rows(os.path.join(out_dir, "fig1.csv")) != len(cfg["N_values"]):
        fails.append("fig1.csv row count != len(N_values)")
    return fails


CHECKS = {"eject": check_eject, "emission": check_emission,
          "fig1": check_fig1}


def check_outputs(subcommand, out_dir, cfg):
    """Failure messages for one run's outputs; [] when all checks pass."""
    missing = [name for name in OUTPUTS[subcommand]
               if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        return ["missing output %s" % name for name in missing]
    try:
        return CHECKS[subcommand](out_dir, cfg)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %r" % (exc,)]
