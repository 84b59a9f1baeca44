"""Command-line orchestration: fig1 | eject | emission | schedule.

Each subcommand reads a strict JSON config (all defaults bundled, so
--config is optional), runs the corresponding scan, and writes CSV/JSON
outputs that embed the fully resolved config, artifact version, and
master seed. Reruns with identical provenance are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .blockade import (fig1_scan, m_excitation_schedule, trial_seed,
                       IntegrationError, TruncationError)
from .config import (SCHEMAS, ConfigError, load_config, read_config_json,
                     species_from_config)
from .ejection import (EjectConfig, NoEscapeError, NotEjectedError,
                       ToleranceFloorError, characteristic_eject_time,
                       collimation_stats, sample_thermal_initial,
                       scan_fig2, simulate_ensemble)
from .emission import (EmissionGeometry, GridResolutionError,
                       double_excitation_at, jittered_pattern,
                       pattern_metrics, single_photon_pattern)
from .ensemble import RydbergCoupling, SamplingError, sample_cloud
from .optics import (GaussianBeam, ResonantLightError, StateDetunings,
                     scattering_rate, state_potentials)

_NUMERICAL_ERRORS = (IntegrationError, TruncationError, NotEjectedError,
                     NoEscapeError, GridResolutionError, SamplingError,
                     FloatingPointError)


def _provenance(subcommand, cfg):
    return {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "master_seed": cfg["seed"],
        "config": cfg,
    }


def _json_value(value):
    """`value` with null for every undefined (non-finite) float, which
    JSON cannot hold; the CSV outputs keep nan."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _write_csv(path, provenance, header, rows):
    """One "%.12g" field per number; each row is formatted in one go."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    _write_lines(path, provenance, header,
                 (line % tuple(row) for row in rows))


def _write_lines(path, provenance, header, lines):
    with open(path, "w") as fh:
        fh.write("# provenance: %s\n"
                 % json.dumps(provenance, sort_keys=True))
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_pattern_csv(path, provenance, pattern):
    """One (theta, phi_az, P) row per grid point, theta-major.

    Each angle is formatted once: the rows of one theta share a template
    "theta,phi_j,%.12g" that takes all their P values in a single %.
    """
    thetas = ["%.12g" % t for t in pattern.theta.tolist()]
    phis = [",%.12g," % p for p in pattern.phi_az.tolist()]
    _write_lines(path, provenance, ["theta", "phi_az", "P"], (
        "".join([theta + phi + "%.12g\n" for phi in phis]) % tuple(values)
        for theta, values in zip(thetas, pattern.values.tolist())))


def run_fig1(cfg, out_dir):
    species = species_from_config(cfg)
    coupling = RydbergCoupling.calibrated(cfg["principal_n"],
                                          cfg["anchor_separation"],
                                          cfg["anchor_shift"])
    rows = fig1_scan(cfg["N_values"], cfg["trials"], cfg["diameter"],
                     coupling, cfg["rabi"], cfg["seed"], species=species,
                     full_integrator_cap=cfg["full_integrator_cap"])
    prov = _provenance("fig1", cfg)
    header = ["N", "P_zero_mean", "P_zero_stderr", "P_double_mean",
              "P_double_stderr", "Delta_bar_mean"]
    csv_rows = [[r["N"], r["P_zero_mean"], r["P_zero_stderr"],
                 r["P_double_mean"], r["P_double_stderr"],
                 r["Delta_bar_mean"]] for r in rows]
    _write_csv(os.path.join(out_dir, "fig1.csv"), prov, header, csv_rows)

    fit_rows = [r for r in rows if 10 <= r["N"] <= 100]
    fit = None
    # a repeated N adds a row but no abscissa; one N alone has no slope
    if len({r["N"] for r in fit_rows}) >= 3:
        n = np.array([r["N"] for r in fit_rows], dtype=float)
        y = np.array([r["P_zero_mean"] + r["P_double_mean"]
                      for r in fit_rows])
        slope, intercept = np.polyfit(n, y, 1)
        resid = y - (slope * n + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
        fit = {"slope_per_atom": float(slope), "intercept": float(intercept),
               "r_squared": r2}

    last = rows[-1]
    total_last = last["P_zero_mean"] + last["P_double_mean"]
    comparison = []
    for r in rows:
        if "P_zero_full_mean" in r:
            comparison.append({
                "N": r["N"],
                "P_zero_closed_form": r["P_zero_mean"],
                "P_zero_integrator": r["P_zero_full_mean"],
                "P_double_closed_form": r["P_double_mean"],
                "P_double_integrator": r["P_double_full_mean"],
            })
    summary = {
        "provenance": _provenance("fig1", cfg),
        "rows": rows,
        "linear_fit_N_10_to_100": fit,
        "closed_form_vs_integrator": comparison,
        "level_discrepancy_note": {
            "computed_P_zero_plus_P_double_at_N=%d" % last["N"]: total_last,
            "reference_level": 3e-5,
            "ratio_to_reference": total_last / 3e-5,
            "comment": ("computed with the uniform-sphere cloud model and "
                        "the calibrated n^6 pair-shift scaling; the "
                        "reference inputs cannot be fully reconstructed, "
                        "so the absolute level is reported, not gated"),
        },
    }
    _write_json(os.path.join(out_dir, "fig1_summary.json"), summary)
    return 0


def _eject_field(cfg, species):
    fort = GaussianBeam(power=cfg["fort_power"], waist=cfg["fort_waist"],
                        wavelength=cfg["fort_wavelength"],
                        axis=(0, 0, 1), focus_position=(0, 0, 0))
    eject = GaussianBeam(power=cfg["eject_power"], waist=cfg["eject_waist"],
                         wavelength=cfg["eject_wavelength"],
                         axis=(0, 0, 1),
                         focus_position=(cfg["eject_offset"], 0, 0))
    fort_det = StateDetunings.far_off_resonance(cfg["fort_wavelength"],
                                                species)
    eject_det = StateDetunings.from_detuning_b(cfg["eject_detuning_b"],
                                               species)
    field = state_potentials([(fort, fort_det), (eject, eject_det)],
                             species=species)
    return field, fort, eject, eject_det


def run_eject(cfg, out_dir):
    species = species_from_config(cfg)
    field, fort, eject, eject_det = _eject_field(cfg, species)
    center = np.zeros(3)
    # escape direction: away from the eject-beam center (none if centred)
    direction = np.array([-np.sign(cfg["eject_offset"]), 0.0, 0.0])
    accel_b = float(field.acceleration(center, "b") @ direction)
    t1 = characteristic_eject_time(accel_b, cfg["fort_waist"])

    n_scat = {
        state: float(scattering_rate(eject.peak_intensity,
                                     eject_det.for_state(state), species)
                     * t1)
        for state in ("a", "b")
    }

    econf = EjectConfig(duration=cfg["duration"],
                        tolerance=cfg["tolerance"],
                        include_recoil_kicks=cfg["include_recoil_kicks"],
                        gravity=cfg["gravity"],
                        fort_waist=cfg["fort_waist"])
    counts = {"b": cfg["trajectories"], "a": cfg["trajectories_a"]}
    # |b> draws its initial states from stream 1 and kicks from 3, |a>
    # from 2 and 4; both states go in one call, |b> first
    streams = (("b", 1), ("a", 2))
    initial = [sample_thermal_initial(
                   cfg["temperature"], counts[state],
                   trial_seed(cfg["seed"], stream, 0), cfg["cloud_diameter"],
                   species=species)
               for state, stream in streams]
    everyone = simulate_ensemble(
        *(np.concatenate(part) for part in zip(*initial)), field,
        ["b"] * counts["b"] + ["a"] * counts["a"], econf,
        seeds=[trial_seed(cfg["seed"], stream + 2, i)
               for state, stream in streams for i in range(counts[state])])
    results = {}
    traj_rows = []
    for state, trajs in (("b", everyone[:counts["b"]]),
                         ("a", everyone[counts["b"]:])):
        if state == "b":
            for i, tr in enumerate(trajs):
                for t, p, v, ph in zip(tr.times, tr.positions,
                                       tr.velocities, tr.photons_expected):
                    traj_rows.append([i, t, p[0], p[1], p[2],
                                      v[0], v[1], v[2], ph])
        escaped = [tr for tr in trajs if tr.escaped]
        entry = {
            "trajectories": len(trajs),
            "escape_fraction": len(escaped) / len(trajs),
            "median_escape_time": (float(np.median(
                [tr.escape_time for tr in escaped])) if escaped else None),
            "median_sweep_time": (float(np.median(
                [tr.sweep_time for tr in trajs
                 if tr.sweep_time is not None]))
                if any(tr.sweep_time is not None for tr in trajs) else None),
            "mean_photons_expected": float(np.mean(
                [tr.total_photons_expected for tr in trajs])),
        }
        if state == "b" and escaped:
            mean_dir, rms_tv, ratio = collimation_stats(
                trajs, accel_b, t1, cfg["eject_wavelength"], species)
            entry["collimation"] = {
                "mean_exit_direction": [float(x) for x in mean_dir],
                "rms_transverse_velocity": rms_tv,
                "recoil_to_coherent_impulse_ratio": ratio,
            }
        results[state] = entry

    prov = _provenance("eject", cfg)
    halfw = cfg["profile_halfwidth"]
    profile = scan_fig2(field, (-halfw, 0, 0), (halfw, 0, 0),
                        cfg["profile_samples"])
    profile["x"] = profile["x"] - halfw   # signed about the FORT center
    _write_csv(os.path.join(out_dir, "eject_profile.csv"), prov,
               ["x", "U_a_over_kB_uK", "U_b_over_kB_uK", "a_a", "a_b"],
               zip(profile["x"], profile["U_a_over_kB_uK"],
                   profile["U_b_over_kB_uK"], profile["a_a"],
                   profile["a_b"]))
    _write_csv(os.path.join(out_dir, "trajectories.csv"), prov,
               ["traj", "t", "x", "y", "z", "vx", "vy", "vz",
                "photons_expected"], traj_rows)
    summary = {
        "provenance": prov,
        "net_acceleration_b_at_center": accel_b,
        "t1_estimate": float(t1),
        "n_scat_over_t1_at_peak_intensity": n_scat,
        "states": results,
    }
    _write_json(os.path.join(out_dir, "eject_summary.json"), summary)
    return 0


def run_emission(cfg, out_dir):
    species = species_from_config(cfg)
    lam4 = cfg["lambda4"]
    geometry = EmissionGeometry.tilted(cfg["tilt_angle"], lam4)
    prov = _provenance("emission", cfg)
    grid_points = cfg["grid_points"]
    spacing = np.pi / (grid_points - 1)
    blocks, patterns = [], []
    for N in cfg["N_values"]:
        fwhms, peaks, bgs, doubles = [], [], [], []
        for t in range(cfg["trials"]):
            cloud = sample_cloud(N, cfg["diameter"],
                                 trial_seed(cfg["seed"], N, t),
                                 species=species)
            # only trial 0's grid is exported; the others need a grid
            # only to seed the peak, and one at twice the spacing does
            pattern = single_photon_pattern(
                cloud, geometry, grid_points if t == 0
                else (grid_points + 1) // 2)
            if t == 0:
                first_pattern = pattern
            metrics = pattern_metrics(pattern, spacing)
            fwhms.append(metrics.fwhm)
            peaks.append(metrics.peak_value)
            bgs.append(metrics.mean_background)
            doubles.append(float(double_excitation_at(
                cloud, geometry, metrics.peak_direction[None, :])[0]))
        patterns.append(("pattern_N%d.csv" % N, first_pattern))
        lam_over_d = lam4 / cfg["diameter"]
        blocks.append({
            "N": int(N),
            "trials": cfg["trials"],
            "fwhm_mean": float(np.mean(fwhms)),
            "fwhm_std": float(np.std(fwhms)),
            "lambda_over_D": lam_over_d,
            "fwhm_over_lambda_over_D": float(np.mean(fwhms)) / lam_over_d,
            "peak_mean": float(np.mean(peaks)),
            "background_mean": float(np.mean(bgs)),
            "peak_to_background_mean": float(np.mean(peaks)
                                             / np.mean(bgs)),
            "double_channel_at_peak_mean": float(np.mean(doubles)),
        })
        if cfg["jitter_sigma"] > 0:
            patterns.append(("pattern_N%d_jittered.csv" % N,
                             jittered_pattern(first_pattern,
                                              cfg["jitter_sigma"])))
    # nothing is written until every trial has passed the gates, so a
    # numerical failure leaves no partial outputs
    for name, pattern in patterns:
        _write_pattern_csv(os.path.join(out_dir, name), prov, pattern)
    _write_json(os.path.join(out_dir, "emission_metrics.json"),
                {"provenance": prov, "patterns": blocks})
    return 0


def run_schedule(cfg, out_dir):
    report = m_excitation_schedule(cfg["N"], cfg["m"], cfg["rabi"],
                                   cfg["eject_time"])
    report["provenance"] = _provenance("schedule", cfg)
    _write_json(os.path.join(out_dir, "schedule.json"), report)
    return 0


_RUNNERS = {"fig1": run_fig1, "eject": run_eject, "emission": run_emission,
            "schedule": run_schedule}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rydsources",
        description="Dipole-blockade single atom and single photon source "
                    "simulations")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config (bundled defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", default=".", help="output directory")
        # read by nothing; kept because perfbench passes --workers 1
        p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
        p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="reject unknown config keys (default)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = read_config_json(args.config) if args.config else {}
        if isinstance(raw, dict):           # load_config rejects the rest
            if not args.strict:
                raw = {k: v for k, v in raw.items()
                       if k in SCHEMAS[args.subcommand]}
            if args.seed is not None:
                # checked by the same rule as a seed in the config file
                raw = {**raw, "seed": args.seed}
        cfg = load_config(args.subcommand, raw)
        created = not os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return _RUNNERS[args.subcommand](cfg, args.out)
    except (ResonantLightError, ToleranceFloorError) as exc:
        # a zero detuning or a tolerance below the floor: config errors
        status, message = 2, "config error: %s" % exc
    except _NUMERICAL_ERRORS as exc:
        status, message = 3, "numerical failure: %s" % exc
    # no subcommand writes before its run has passed; an --out directory
    # this run made goes if it is still empty
    if created and not os.listdir(args.out):
        os.rmdir(args.out)
    print(message, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
