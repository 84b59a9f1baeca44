import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.constants import k as k_B

from rydsources import ejection, emission
from rydsources.cli import _write_csv, _write_pattern_csv, main
from rydsources.config import (_AT_LEAST, SCHEMAS, ConfigError, load_config,
                               load_config_file, species_from_config)
from rydsources.emission import EmissionGeometry, single_photon_pattern
from rydsources.ensemble import sample_cloud
from test_ejection import failed_step

TWO_PI = 2 * np.pi

# JSON values for the config fuzz, non-finite numbers included
FUZZ_NUMBERS = st.one_of(st.floats(), st.integers(), st.just(10 ** 400),
                         st.sampled_from(["inf", "-inf", "nan", "1e400"]))
FUZZ_UNITS = {"length": "um", "time": "us", "frequency": "MHz",
              "power": "mW", "temperature": "uK", "angle": "deg",
              "mass": "kg", "intensity": "W/m^2"}
FUZZ_QUANTITIES = st.builds("{} {}".format, FUZZ_NUMBERS, st.sampled_from(
    sorted(FUZZ_UNITS.values()) + ["nm", "GHz", "K", "rad", "parsec"]))
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), FUZZ_NUMBERS, FUZZ_QUANTITIES),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


def _fuzz_value(kind):
    """Any JSON value, or one of the right shape for `kind`, so that
    some payloads get past the type checks to the range checks."""
    if isinstance(kind, dict):
        typed = st.fixed_dictionaries({}, optional={
            k: _fuzz_value(sub_kind) for k, (sub_kind, _) in kind.items()})
    elif kind in FUZZ_UNITS:
        typed = st.builds("{} {}".format, FUZZ_NUMBERS,
                          st.just(FUZZ_UNITS[kind]))
    else:
        typed = {"int": st.integers(), "float": FUZZ_NUMBERS,
                 "bool": st.booleans(),
                 "int_list": st.lists(st.integers(), max_size=3)}[kind]
    return st.one_of(typed, FUZZ_VALUES)


def _floats(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _floats(v)
    elif isinstance(value, float):
        yield value


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config("eject", {})
        assert cfg["fort_power"] == pytest.approx(0.1)
        assert cfg["eject_detuning_b"] == pytest.approx(TWO_PI * 1e9)
        assert cfg["eject_offset"] == pytest.approx(-3e-6)
        assert cfg["include_recoil_kicks"] is True
        assert cfg["seed"] == 12345

    def test_overrides(self):
        cfg = load_config("schedule", {"N": 200, "rabi": "2 MHz",
                                       "eject_time": "50 us"})
        assert cfg["N"] == 200
        assert cfg["rabi"] == pytest.approx(TWO_PI * 2e6)
        assert cfg["eject_time"] == pytest.approx(50e-6)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("fig1", {"trails": 5})

    def test_nested_species_unknown_key(self):
        with pytest.raises(ConfigError, match="species.linewdith"):
            load_config("fig1", {"species": {"linewdith": "6 MHz"}})

    def test_missing_unit_rejected(self):
        with pytest.raises(ConfigError):
            load_config("fig1", {"diameter": 5e-6})

    def test_wrong_unit_kind_rejected(self):
        with pytest.raises(ConfigError):
            load_config("fig1", {"diameter": "5 MHz"})

    def test_type_validation(self):
        with pytest.raises(ConfigError):
            load_config("schedule", {"N": "100"})
        with pytest.raises(ConfigError):
            load_config("schedule", {"N": True})
        with pytest.raises(ConfigError):
            load_config("fig1", {"N_values": []})
        with pytest.raises(ConfigError):
            load_config("eject", {"gravity": 1})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       10 ** 400],
                             ids=["inf", "-inf", "nan", "int-1e400"])
    def test_non_finite_float_rejected(self, value):
        # a CLI run with "tolerance": Infinity hung in the integrator
        with pytest.raises(ConfigError, match="finite"):
            load_config("eject", {"tolerance": value})

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            load_config("fig3", {})

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file("fig1", p)

    def test_species_override(self):
        cfg = load_config("fig1", {"species": {"linewidth": "6.07 MHz"}})
        sp = species_from_config(cfg)
        assert sp.linewidth_Gamma == pytest.approx(TWO_PI * 6.07e6)
        # untouched fields keep their defaults
        assert sp.mass == pytest.approx(1.443e-25, rel=1e-3)

    def test_provenance_json_safe(self):
        # raises if anything non-serializable remains
        for subcommand in SCHEMAS:
            json.dumps(load_config(subcommand, {}))

    def test_every_count_key_has_a_floor(self):
        counts = {key for schema in SCHEMAS.values()
                  for key, (kind, _) in schema.items()
                  if kind in ("int", "int_list")}
        assert counts - set(_AT_LEAST) == set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_config_rejected_or_finite(self, data):
        subcommand = data.draw(st.sampled_from(sorted(SCHEMAS)))
        schema = SCHEMAS[subcommand]
        keys = data.draw(st.lists(st.sampled_from(sorted(schema)),
                                  max_size=4, unique=True))
        payload = {k: data.draw(_fuzz_value(schema[k][0])) for k in keys}
        try:
            cfg = load_config(subcommand, payload)
        except ConfigError:
            return
        assert all(math.isfinite(v) for v in _floats(cfg))


SMALL_FIG1 = {"N_values": [1, 2, 5, 10], "trials": 3,
              "full_integrator_cap": 5, "seed": 7}
SMALL_EJECT = {"trajectories": 3, "trajectories_a": 2, "duration": "120 us",
               "include_recoil_kicks": False, "tolerance": 1e-8,
               "profile_samples": 21, "seed": 7}
SMALL_EMISSION = {"N_values": [25], "trials": 2, "grid_points": 181,
                  "seed": 7}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestCliRuns:
    def test_schedule(self, tmp_path):
        rc = main(["schedule", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "schedule.json").read_text())
        assert report["pulse_rate"] == pytest.approx(24969, rel=1e-3)
        assert report["repetitions"] == 100
        assert report["provenance"]["subcommand"] == "schedule"
        assert report["provenance"]["master_seed"] == 12345

    def test_fig1(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_FIG1)
        rc = main(["fig1", "--config", cfg, "--out", str(tmp_path),
                   "--workers", "1"])
        assert rc == 0
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0].startswith("# provenance:")
        assert lines[1].split(",")[0] == "N"
        assert len(lines) == 2 + len(SMALL_FIG1["N_values"])
        summary = json.loads((tmp_path / "fig1_summary.json").read_text())
        comp = summary["closed_form_vs_integrator"]
        assert [c["N"] for c in comp] == [1, 2, 5]
        for c in comp[1:]:
            assert c["P_zero_integrator"] == pytest.approx(
                c["P_zero_closed_form"], rel=1.0)
        assert "level_discrepancy_note" in summary

    def test_eject(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EJECT)
        rc = main(["eject", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "eject_summary.json").read_text())
        assert summary["t1_estimate"] == pytest.approx(37.6e-6, rel=0.02)
        n_scat = summary["n_scat_over_t1_at_peak_intensity"]
        assert n_scat["b"] > 10 * n_scat["a"]
        assert summary["states"]["b"]["escape_fraction"] > 0.5
        assert summary["states"]["a"]["escape_fraction"] == 0.0
        assert "collimation" in summary["states"]["b"]
        profile = (tmp_path / "eject_profile.csv").read_text().splitlines()
        assert len(profile) == 2 + 21
        assert (tmp_path / "trajectories.csv").exists()

    def test_emission(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EMISSION)
        rc = main(["emission", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        metrics = json.loads(
            (tmp_path / "emission_metrics.json").read_text())
        block = metrics["patterns"][0]
        assert block["N"] == 25
        assert block["peak_mean"] == pytest.approx(25, rel=1e-3)
        assert abs(block["background_mean"] - 1.0) < 0.5
        assert block["double_channel_at_peak_mean"] < 5
        assert (tmp_path / "pattern_N25.csv").exists()

    def test_jittered_emission_builds_one_grid_per_n(self, tmp_path,
                                                      monkeypatch):
        # the jittered mean damps trial 0's exported grid; the other
        # trials take half-resolution grids
        rows = []
        grid_values = emission._grid_values

        def spy(positions, q_offset, k4, theta, phi):
            rows.append(len(theta))
            return grid_values(positions, q_offset, k4, theta, phi)
        monkeypatch.setattr(emission, "_grid_values", spy)
        cfg = write_config(tmp_path, {**SMALL_EMISSION, "N_values": [10, 25],
                                      "jitter_sigma": "0.1 um"})
        assert main(["emission", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
        assert rows.count(SMALL_EMISSION["grid_points"]) == 2
        assert (tmp_path / "pattern_N25_jittered.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        fig1_cfg = write_config(tmp_path, SMALL_FIG1, name="fig1.json")
        # --workers is accepted and changes nothing
        for out, workers in ((a, "1"), (b, "2")):
            out.mkdir()
            assert main(["schedule", "--out", str(out)]) == 0
            cfg = write_config(tmp_path, SMALL_EMISSION)
            assert main(["emission", "--config", cfg,
                         "--out", str(out)]) == 0
            assert main(["fig1", "--config", fig1_cfg, "--out", str(out),
                         "--workers", workers]) == 0
        for name in ("schedule.json", "emission_metrics.json",
                     "pattern_N25.csv", "fig1.csv", "fig1_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_FIG1)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(["fig1", "--config", cfg, "--out", str(a),
                     "--workers", "1"]) == 0
        assert main(["fig1", "--config", cfg, "--out", str(b),
                     "--workers", "1", "--seed", "99"]) == 0
        assert (a / "fig1.csv").read_bytes() != (b / "fig1.csv").read_bytes()


# the eject-smooth benchmark workload: 30 |b> + 6 |a> atoms, no kicks
SMOOTH_EJECT = {"trajectories": 30, "trajectories_a": 6,
                "include_recoil_kicks": False}


class TestEjectEnergy:
    @pytest.mark.parametrize("seed, unbound_a", [(7, {}), (10025, {5: 29.8})])
    def test_kick_free_escapes_were_drawn_unbound(self, tmp_path,
                                                  monkeypatch, seed,
                                                  unbound_a):
        # Without kicks the fields are static, so E = m v^2 / 2 + U (the
        # escape test's energy; gravity is off) is conserved up to the
        # integrator's error, and only an atom drawn unbound can escape.
        # Seed 10025 draws |a> atom 5 unbound: the one |a> escape that
        # fails the benchmark's "a escape fraction <= 0.1" check there
        # is the thermal tail, not a program fault.
        runs = []

        def spy(*args, **kwargs):
            runs.append((args, ejection.simulate_ensemble(*args, **kwargs)))
            return runs[-1][1]
        monkeypatch.setattr("rydsources.cli.simulate_ensemble", spy)
        cfg = write_config(tmp_path, SMOOTH_EJECT)
        assert main(["eject", "--config", cfg, "--seed", str(seed),
                     "--out", str(tmp_path / "out")]) == 0
        ((_, _, field, states, config), trajs), = runs
        assert not config.gravity
        mass = field.species.mass
        depth = -field.potential(np.zeros(3), "a")

        def energy(tr, state, row):
            v = tr.velocities[row]
            return 0.5 * mass * v @ v + field.potential(tr.positions[row],
                                                        state)
        escaped_a = {}
        a_index = states.index("a")
        for i, (state, tr) in enumerate(zip(states, trajs)):
            e0, e1 = energy(tr, state, 0), energy(tr, state, -1)
            # DOP853 bounds each step's local error by the tolerance; over
            # a run the energy moved by at most 3.3e-10 of the trap depth
            # at tolerance 1e-9 (seeds 1, 2, 3, 7, 10025)
            assert abs(e1 - e0) <= 10 * config.tolerance * depth
            if tr.escaped:
                assert e0 > 0
                if state == "a":
                    escaped_a[i - a_index] = e0
        assert escaped_a.keys() == unbound_a.keys()
        for i, e0_uK in unbound_a.items():
            assert escaped_a[i] / k_B * 1e6 == pytest.approx(e0_uK, abs=0.1)


class TestCliErrors:
    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"trails": 5})
        assert main(["fig1", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_strict_drops_unknown_keys(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_FIG1, "comment": "ignored"})
        assert main(["fig1", "--config", cfg, "--out", str(tmp_path),
                     "--no-strict", "--workers", "1"]) == 0

    def test_missing_config_file(self, tmp_path):
        assert main(["fig1", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_unit_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"diameter": "five microns"})
        assert main(["fig1", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("subcommand, payload", [
        ("fig1", {"N_values": [0]}),
        ("fig1", {"diameter": "-1 um"}),
        ("emission", {"N_values": [0]}),
        ("emission", {"trials": 0}),
        ("emission", {"diameter": "-1 um"}),
        ("schedule", {"m": 0}),
        ("schedule", {"m": 101}),
        ("schedule", {"rabi": "0 MHz"}),
        ("eject", {"trajectories": 0}),
        ("eject", {"duration": "-1 us"}),
        ("emission", {"grid_points": 1}),
        ("eject", {"eject_detuning_b": "0 GHz"}),
        ("eject", {"fort_wavelength": "780 nm"}),
        ("fig1", {"species": {"mass": "-1 kg"}}),
        ("emission", {"seed": -5}),
        ("eject", {"cloud_diameter": "inf um"}),
        ("eject", {"temperature": "inf K"}),
        ("fig1", {"anchor_shift": "1e400 MHz"}),
        ("emission", {"tilt_angle": "nan deg"}),
        ("eject", {"profile_samples": -1}),
        ("eject", {"profile_samples": 1}),
        ("fig1", {"full_integrator_cap": -1}),
    ])
    def test_out_of_range_exit_code(self, tmp_path, capsys, subcommand,
                                    payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out),
                     "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, flags", [
        ("emission", ["--seed", "-5"]),
        ("eject", ["--seed", "-5"]),
        ("schedule", ["--out", "taken"]),
        ("schedule", ["--config", "root.json", "--no-strict"]),
    ] + [("schedule", ["--config", name] + strict)
         for name in ("latin1.json", "deep.json", "long.json")
         for strict in ([], ["--no-strict"])]
      + [("eject", ["--config", name])
         for name in ("tight.json", "tiny.json", "joint.json")])
    def test_bad_argument_exit_code(self, tmp_path, monkeypatch, capsys,
                                    subcommand, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        (tmp_path / "root.json").write_text("[1]")
        # not UTF-8, nested past the recursion limit, and an integer past
        # the 4300 digits Python converts
        (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xff"}')
        (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
        (tmp_path / "long.json").write_text('{"seed": %s}' % ("1" * 5000))
        # tolerances below solve_ivp's rtol floor of 100 eps, the last
        # as 3e-14 / sqrt(120) for the default 120 atoms run kick-free
        # as one system
        (tmp_path / "tight.json").write_text('{"tolerance": 1e-14}')
        (tmp_path / "tiny.json").write_text('{"tolerance": 1e-300}')
        (tmp_path / "joint.json").write_text(
            '{"tolerance": 3e-14, "include_recoil_kicks": false}')
        # a later --out overrides the first one
        assert main([subcommand, "--out", "out", "--workers", "1"]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.filterwarnings("error")
    def test_centred_eject_beam_exit_code(self, tmp_path, capsys):
        # no offset, so no gradient at the trap center and no direction
        cfg = write_config(tmp_path, {"eject_offset": "0 um"})
        out = tmp_path / "out"
        assert main(["eject", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: net acceleration 0")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_lobe_too_wide_for_background_exit_code(self, tmp_path, capsys):
        # a 0.9 um cloud at N = 10: the lobe is wider than pi / 3
        cfg = write_config(tmp_path, {"diameter": "0.9 um",
                                      "N_values": [10], "trials": 2})
        out = tmp_path / "out"
        assert main(["emission", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "lobe" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # eject beam off: |b> is never ejected -> exit 3
        cfg = write_config(tmp_path, {**SMALL_EJECT, "eject_power": "0 uW"})
        assert main(["eject", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_failed_trajectory_step_exit_code(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(ejection, "solve_ivp", failed_step)
        cfg = write_config(tmp_path, SMALL_EJECT)
        assert main(["eject", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: trajectory integration failed")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def per_value_csv_rows(rows):
    """The per-value formatting _write_csv replaced: its reference."""
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)


class TestCsvWriter:
    def test_matches_per_value_format(self, tmp_path):
        special = [-0.0, 1e-300, 1e300, float("nan"), 7]
        array = np.array([special, [1 / 3, -2.5e-7, float("inf"),
                                    -float("inf"), 0.0]])
        rows = [special, [np.float64(v) for v in special[:4]] + [np.int64(7)],
                [1, -2, 3, 2 ** 40, -0.0]] + array.tolist() + list(zip(*[
                    array[:, i] for i in range(5)]))
        path = tmp_path / "rows.csv"
        _write_csv(str(path), {"seed": 7}, list("abcde"), rows)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[:2] == ['# provenance: {"seed": 7}\n', "a,b,c,d,e\n"]
        assert "".join(lines[2:]) == per_value_csv_rows(rows)

    def test_pattern_matches_row_writer(self, tmp_path):
        # the row-by-row form the per-theta templates replaced
        cloud = sample_cloud(12, 2e-6, 5)
        pattern = single_photon_pattern(
            cloud, EmissionGeometry.tilted(0.3, 0.78e-6), 41)
        theta, phi = np.meshgrid(pattern.theta, pattern.phi_az,
                                 indexing="ij")
        rows = np.column_stack((theta.ravel(), phi.ravel(),
                                pattern.values.ravel())).tolist()
        _write_csv(str(tmp_path / "rows.csv"), {"seed": 7},
                   ["theta", "phi_az", "P"], rows)
        _write_pattern_csv(str(tmp_path / "pattern.csv"), {"seed": 7},
                           pattern)
        assert ((tmp_path / "pattern.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())


def emission_exit(N_values, trials, grid_points, diameter, tilt, jitter):
    """Exit code of a tiny emission run, checked against the contract:
    0, 2 or 3, at most one stderr line, and no --out directory left
    behind on a failure."""
    cfg = {"N_values": N_values, "trials": trials,
           "grid_points": grid_points, "diameter": "%r um" % diameter,
           "tilt_angle": "%r deg" % tilt, "jitter_sigma": "%r um" % jitter}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["emission", "--config", path, "--out", out])
        assert rc in (0, 2, 3)
        # a warning prints two stderr lines in a real run: its message
        # and the source line
        assert len(err.getvalue().splitlines()) + 2 * len(caught) <= 1, (
            err.getvalue(), [str(w.message) for w in caught])
        if rc == 0:
            assert os.path.exists(os.path.join(out, "emission_metrics.json"))
        else:
            assert not os.path.exists(out)
    return rc


# the widest cap the gate admits: this 0.968 um cloud puts 3 FWHM
# within 3e-4 rad of pi
WIDEST_CAP = dict(N_values=[8], trials=1, grid_points=61, diameter=0.968,
                  tilt=0.0, jitter=0.0)
PAST_WIDEST_CAP = dict(WIDEST_CAP, diameter=0.9679)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(N_values=st.lists(st.integers(1, 12), min_size=1, max_size=2),
       trials=st.integers(1, 3), grid_points=st.integers(2, 61),
       diameter=st.floats(0.2, 4.0), tilt=st.floats(-360.0, 360.0),
       jitter=st.sampled_from([0.0, 0.05]))
# one run that passes, and one whose second N fails after the first
# passed, so the success path and the no-partial-output rule both run
@example(N_values=[8], trials=2, grid_points=61, diameter=1.0, tilt=0.0,
         jitter=0.05)
@example(N_values=[8, 1], trials=2, grid_points=61, diameter=1.0,
         tilt=0.0, jitter=0.0)
@example(**WIDEST_CAP)
@example(**PAST_WIDEST_CAP)
def test_emission_cli_fuzz(N_values, trials, grid_points, diameter, tilt,
                           jitter):
    """Tiny emission runs past the config phase keep the exit-code
    contract (`emission_exit`)."""
    emission_exit(N_values, trials, grid_points, diameter, tilt, jitter)


def test_emission_widest_cap():
    # the background of the widest admitted cap is computed (exit 0); a
    # hair smaller a cloud leaves no background direction (exit 3)
    assert emission_exit(**WIDEST_CAP) == 0
    assert emission_exit(**PAST_WIDEST_CAP) == 3


@settings(derandomize=True, max_examples=80, deadline=None)
@given(N_values=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       trials=st.integers(1, 3), cap=st.integers(0, 6),
       diameter=st.floats(0.05, 50.0), rabi=st.floats(0.001, 100.0))
# one run that passes with the integrator on, and one whose drive is too
# strong for the truncated basis once the integrator starts
@example(N_values=[1, 2, 5], trials=2, cap=5, diameter=5.0, rabi=1.0)
@example(N_values=[2, 5], trials=2, cap=5, diameter=50.0, rabi=100.0)
# repeated N values in the 10..100 fit range, which once made polyfit warn
@example(N_values=[10, 10, 10], trials=1, cap=0, diameter=5.0, rabi=1.0)
def test_fig1_cli_fuzz(N_values, trials, cap, diameter, rabi):
    """Tiny fig1 runs past the config phase keep the exit-code contract:
    0, 2 or 3, at most one stderr line, and no --out directory left
    behind on a failure."""
    cfg = {"N_values": N_values, "trials": trials,
           "full_integrator_cap": cap, "diameter": "%r um" % diameter,
           "rabi": "%r MHz" % rabi}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fig1", "--config", path, "--out", out])
        assert rc in (0, 2, 3)
        # a warning prints two stderr lines in a real run: its message
        # and the source line
        assert len(err.getvalue().splitlines()) + 2 * len(caught) <= 1, (
            err.getvalue(), [str(w.message) for w in caught])
        if rc == 0:
            assert os.path.exists(os.path.join(out, "fig1_summary.json"))
        else:
            assert not os.path.exists(out)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(trajectories=st.integers(1, 3), trajectories_a=st.integers(1, 2),
       duration=st.floats(5.0, 30.0), kicks=st.booleans(),
       gravity=st.booleans(), diameter=st.floats(0.5, 150.0),
       offset=st.sampled_from(["-3 um", "0 um", "2 um"]),
       detuning=st.sampled_from(["1 GHz", "0 GHz", "-0.5 GHz"]))
# one run that passes, with atoms starting outside the 60 um region and
# enough |b> atoms to run as one system
@example(trajectories=6, trajectories_a=2, duration=30.0, kicks=False,
         gravity=True, diameter=150.0, offset="-3 um", detuning="1 GHz")
# a centred eject beam exits 3, a resonant one 2
@example(trajectories=2, trajectories_a=1, duration=10.0, kicks=True,
         gravity=False, diameter=5.0, offset="0 um", detuning="1 GHz")
@example(trajectories=2, trajectories_a=1, duration=10.0, kicks=True,
         gravity=False, diameter=5.0, offset="-3 um", detuning="0 GHz")
def test_eject_cli_fuzz(trajectories, trajectories_a, duration, kicks,
                        gravity, diameter, offset, detuning):
    """Tiny eject runs past the config phase keep the exit-code contract:
    0, 2 or 3, at most one stderr line, and no --out directory left
    behind on a failure."""
    cfg = {"trajectories": trajectories, "trajectories_a": trajectories_a,
           "duration": "%r us" % duration, "include_recoil_kicks": kicks,
           "gravity": gravity, "cloud_diameter": "%r um" % diameter,
           "eject_offset": offset, "eject_detuning_b": detuning,
           "profile_samples": 11}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eject", "--config", path, "--out", out])
        assert rc in (0, 2, 3)
        # a warning prints two stderr lines in a real run
        assert len(err.getvalue().splitlines()) + 2 * len(caught) <= 1, (
            err.getvalue(), [str(w.message) for w in caught])
        if offset == "0 um" or detuning == "0 GHz":
            assert rc == (2 if detuning == "0 GHz" else 3)
        if rc == 0:
            assert os.path.exists(os.path.join(out, "eject_summary.json"))
        else:
            assert not os.path.exists(out)
