from types import SimpleNamespace

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from rydsources import ejection
from rydsources.blockade import IntegrationError
from rydsources.ejection import (EjectConfig, NoEscapeError, NotEjectedError,
                                 ToleranceFloorError, TrajectoryResult,
                                 characteristic_eject_time,
                                 collimation_stats, sample_thermal_initial,
                                 scan_fig2, simulate_ensemble,
                                 simulate_trajectory)
from rydsources.optics import (GaussianBeam, StateDetunings,
                               StatePotentialField, state_potentials)
from rydsources.species import RB87

TWO_PI = 2 * np.pi

FORT = GaussianBeam(power=0.1, waist=5e-6, wavelength=1.06e-6)
EJECT = GaussianBeam(power=9e-6, waist=10e-6, wavelength=780e-9,
                     focus_position=(-3e-6, 0, 0))
FORT_DET = StateDetunings.far_off_resonance(1.06e-6)
EJECT_DET = StateDetunings.from_detuning_b(TWO_PI * 1e9)


def failed_step(*args, **kwargs):
    """A DOP853 result whose step failed at 1 us (status -1)."""
    return SimpleNamespace(
        status=-1, success=False, t=np.array([0.0, 1e-6]),
        message="Required step size is less than spacing between numbers.")


def eject_field():
    return state_potentials([(FORT, FORT_DET), (EJECT, EJECT_DET)])


def dark_field():
    return state_potentials([(GaussianBeam(power=0.0, waist=5e-6,
                                           wavelength=1.06e-6), FORT_DET)])


def fort_only_field():
    return state_potentials([(FORT, FORT_DET)])


class TestCharacteristicTime:
    def test_hand_value(self):
        # (1/2) a t^2 = w: a = 1 m/s^2, w = 0.5 m -> t = 1 s
        assert characteristic_eject_time(1.0, 0.5) == pytest.approx(1.0)

    def test_paper_scale(self):
        field = eject_field()
        a = field.acceleration(np.zeros(3), "b")[0]
        t1 = characteristic_eject_time(a, 5e-6)
        assert t1 == pytest.approx(37.6e-6, rel=0.02)

    def test_not_ejected(self):
        with pytest.raises(NotEjectedError):
            characteristic_eject_time(0.0, 5e-6)
        with pytest.raises(NotEjectedError):
            characteristic_eject_time(-100.0, 5e-6)


class TestThermalSampling:
    def test_determinism(self):
        a = sample_thermal_initial(30e-6, 50, 9, 5e-6)
        b = sample_thermal_initial(30e-6, 50, 9, 5e-6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_temperature(self):
        _, vel = sample_thermal_initial(0.0, 10, 1, 5e-6)
        assert np.all(vel == 0)

    def test_positions_in_cloud(self):
        pos, _ = sample_thermal_initial(30e-6, 200, 2, 5e-6,
                                        center=(1e-6, 0, 0))
        r = np.linalg.norm(pos - np.array([1e-6, 0, 0]), axis=1)
        assert np.all(r <= 2.5e-6)

    def test_velocity_statistics(self):
        n = 4000
        _, vel = sample_thermal_initial(30e-6, n, 3, 5e-6)
        sigma2 = k_B * 30e-6 / RB87.mass
        # per-component variance within 4 sigma of the chi^2 spread
        for i in range(3):
            var = np.var(vel[:, i])
            assert abs(var - sigma2) < 4 * sigma2 * np.sqrt(2 / n)
        assert abs(np.mean(vel)) < 4 * np.sqrt(sigma2 / (3 * n))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            sample_thermal_initial(-1e-6, 10, 1, 5e-6)


class TestTrajectories:
    def test_free_flight_with_dark_beam(self):
        config = EjectConfig(duration=50e-6)
        v0 = np.array([0.1, -0.05, 0.02])
        tr = simulate_trajectory((np.zeros(3), v0), dark_field(), "b",
                                 config)
        expect = tr.times[:, None] * v0[None, :]
        np.testing.assert_allclose(tr.positions, expect, atol=1e-12)
        assert tr.total_photons_expected == 0.0

    def test_energy_conservation_in_fort(self):
        # |a>-like bound motion in the FORT for 100 us
        field = fort_only_field()
        config = EjectConfig(duration=100e-6, tolerance=1e-11)
        r0 = np.array([1e-6, 0.5e-6, 2e-6])
        v0 = np.array([0.02, -0.01, 0.0])
        tr = simulate_trajectory((r0, v0), field, "a", config)
        E = (0.5 * RB87.mass * np.sum(tr.velocities ** 2, axis=1)
             + np.array([field.potential(p, "a") for p in tr.positions]))
        depth = abs(field.potential(np.zeros(3), "a"))
        assert np.max(np.abs(E - E[0])) <= 1e-6 * depth
        assert not tr.escaped

    def test_state_b_escapes(self):
        field = eject_field()
        config = EjectConfig(duration=300e-6)
        tr = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                 config)
        assert tr.escaped
        assert tr.exit_direction[0] > 0.99     # pushed along +x
        assert np.linalg.norm(tr.exit_direction) == pytest.approx(1.0)
        assert tr.sweep_time is not None
        assert tr.sweep_time < tr.escape_time
        # ballistic estimate: one waist in ~t1; the FORT pull-back on the
        # way out stretches the cold-start sweep to a modest multiple
        t1 = characteristic_eject_time(
            field.acceleration(np.zeros(3), "b")[0], 5e-6)
        assert t1 <= tr.sweep_time <= 2 * t1

    def test_state_a_stays_trapped(self):
        field = eject_field()
        config = EjectConfig(duration=150e-6)
        tr = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "a",
                                 config)
        assert not tr.escaped
        radii = np.linalg.norm(tr.positions, axis=1)
        assert np.max(radii) < 5e-6

    def test_photon_integral_monotone(self):
        field = eject_field()
        tr = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                 EjectConfig(duration=200e-6))
        assert np.all(np.diff(tr.photons_expected) >= -1e-12)
        t1 = 37.6e-6
        n1 = tr.photons_expected_at(t1)
        assert 10 < n1 < 40
        assert tr.total_photons_expected >= n1

    def test_region_truncation(self, monkeypatch):
        monkeypatch.setattr(ejection, "_REGION_RADIUS", 20e-6)
        field = eject_field()
        config = EjectConfig(duration=300e-6)
        tr = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                 config)
        assert tr.truncated
        assert np.linalg.norm(tr.positions[-1]) == pytest.approx(
            20e-6, rel=1e-6)

    def test_failed_step_raises(self, monkeypatch):
        monkeypatch.setattr(ejection, "solve_ivp", failed_step)
        with pytest.raises(IntegrationError, match="Required step size"):
            simulate_trajectory((np.zeros(3), np.zeros(3)), eject_field(),
                                "b", EjectConfig(duration=50e-6))

    @pytest.mark.parametrize("m, tolerance", [(1, 1e-14), (1, 1e-300),
                                              (11, 7e-14)])
    def test_tolerance_below_the_floor_rejected(self, monkeypatch, m,
                                                tolerance):
        # solve_ivp would raise rtol = tolerance / sqrt(m) to 100 eps
        monkeypatch.setattr(ejection, "solve_ivp", failed_step)
        pos, vel = sample_thermal_initial(30e-6, m, 1, 5e-6)
        with pytest.raises(ToleranceFloorError, match="below the integrator"):
            simulate_ensemble(pos, vel, eject_field(), "b",
                              EjectConfig(tolerance=tolerance))

    @pytest.mark.parametrize("kicks, n_b, n_a, accepted", [
        (True, 100, 20, True), (False, 100, 20, False), (False, 4, 1, True),
    ], ids=["kicks-120", "kick-free-120", "kick-free-5"])
    def test_tolerance_floor_of_the_integrated_system(self, monkeypatch,
                                                      kicks, n_b, n_a,
                                                      accepted):
        # A kick-free group of 120 atoms is one system at 3e-14 /
        # sqrt(120), below the floor; kicked atoms and a group of 5 run
        # one by one at 3e-14 itself, so they reach the integrator
        monkeypatch.setattr(ejection, "solve_ivp", failed_step)
        pos, vel = sample_thermal_initial(30e-6, n_b + n_a, 1, 5e-6)
        config = EjectConfig(tolerance=3e-14, include_recoil_kicks=kicks)
        with pytest.raises(IntegrationError if accepted
                           else ToleranceFloorError):
            simulate_ensemble(pos, vel, eject_field(),
                              ["b"] * n_b + ["a"] * n_a, config,
                              seeds=list(range(n_b + n_a)))

    def test_output_resampled(self, monkeypatch):
        monkeypatch.setattr(ejection, "_EXPORT_POINTS", 50)
        field = eject_field()
        tr = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                 EjectConfig(duration=300e-6))
        assert len(tr.times) <= 50
        assert tr.times[0] == 0.0


class TestRecoilKicks:
    def config(self):
        return EjectConfig(duration=150e-6, include_recoil_kicks=True)

    def test_seed_required(self):
        with pytest.raises(ValueError):
            simulate_trajectory((np.zeros(3), np.zeros(3)), eject_field(),
                                "b", self.config())

    def test_determinism(self):
        field = eject_field()
        a = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                self.config(), seed=5)
        b = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                self.config(), seed=5)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.photons_sampled == b.photons_sampled

    def test_sampled_counts_track_expectation(self):
        field = eject_field()
        trs = [simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                   self.config(), seed=s)
               for s in range(12)]
        sampled = np.array([tr.photons_sampled for tr in trs])
        expected = np.array([tr.total_photons_expected for tr in trs])
        mu = expected.mean()
        # Poisson mean check, 3 sigma
        assert abs(sampled.mean() - mu) < 3 * np.sqrt(mu / len(trs))

    def test_dark_field_matches_smooth_run(self):
        # no scattering: the photon integral never reaches its Exp(1) draw,
        # so the kicked run takes exactly the smooth run's steps
        initial = (np.zeros(3), np.array([0.1, -0.05, 0.02]))
        smooth = simulate_trajectory(initial, dark_field(), "b",
                                     EjectConfig(duration=50e-6))
        kicked = simulate_trajectory(
            initial, dark_field(), "b",
            EjectConfig(duration=50e-6, include_recoil_kicks=True), seed=0)
        assert kicked.photons_sampled == 0
        np.testing.assert_array_equal(kicked.times, smooth.times)
        np.testing.assert_array_equal(kicked.positions, smooth.positions)

    def test_restarts_reuse_the_step(self, monkeypatch):
        # 30 thermal |b> atoms, ~21 kicks each: restarting every segment
        # from scratch cost 983.5 field evaluations per trajectory (mean
        # kicks 21.0 +- 1.22, photons 20.15 +- 0.92, standard errors);
        # resuming at the last full step must cut that and move neither.
        # Every single-point evaluation, the right-hand side's included,
        # goes through `_point`
        calls = []
        point = StatePotentialField._point

        def counted(self, *args, **kwargs):
            calls.append(1)
            return point(self, *args, **kwargs)
        monkeypatch.setattr(StatePotentialField, "_point", counted)
        field = eject_field()
        config = EjectConfig(duration=300e-6, tolerance=1e-9,
                             include_recoil_kicks=True)
        pos, vel = sample_thermal_initial(30e-6, 30, 1, 5e-6)
        trs = [simulate_trajectory((pos[i], vel[i]), field, "b", config,
                                   seed=i) for i in range(30)]
        assert len(calls) / 30 <= 750
        kicks = np.mean([tr.photons_sampled for tr in trs])
        photons = np.mean([tr.total_photons_expected for tr in trs])
        assert abs(kicks - 21.0) <= 2 * 1.22
        assert abs(photons - 20.15) <= 2 * 0.92

    def test_kicks_perturb_trajectory(self):
        field = eject_field()
        smooth = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                     EjectConfig(duration=150e-6))
        kicked = simulate_trajectory((np.zeros(3), np.zeros(3)), field, "b",
                                     self.config(), seed=1)
        assert kicked.photons_sampled > 0
        # transverse velocity is picked up only through kicks
        assert np.linalg.norm(smooth.velocities[-1][1:]) < 1e-6
        assert np.linalg.norm(kicked.velocities[-1][1:]) > 1e-4


class TestCrossings:
    @pytest.mark.parametrize("kicks", [False, True])
    def test_independent_of_the_tolerance(self, kicks):
        # read at the first output point past the condition, escape and
        # sweep times of this atom moved by 5% and 1.4% between these two
        # tolerances; at the interpolated crossing they agree within
        # about 2e-6. With kicks, seed 0's sweep step ends at a kick: on
        # the post-kick velocity the sweep times differ by 1.2e-4
        field = eject_field()
        runs = [simulate_trajectory(
                    (np.zeros(3), np.zeros(3)), field, "b",
                    EjectConfig(duration=300e-6, tolerance=tol,
                                include_recoil_kicks=kicks), seed=0)
                for tol in (1e-9, 1e-12)]
        assert runs[0].photons_sampled == runs[1].photons_sampled
        for name in ("escape_time", "sweep_time"):
            coarse, fine = (getattr(tr, name) for tr in runs)
            assert coarse == pytest.approx(fine, rel=1e-5), name
        np.testing.assert_allclose(runs[0].exit_direction,
                                   runs[1].exit_direction, atol=1e-5)

    def test_escape_read_at_the_start(self):
        # already outside the escape radius with E > 0: escaped at t = 0
        tr = simulate_trajectory((np.array([20e-6, 0.0, 0.0]),
                                  np.array([0.5, 0.0, 0.0])), eject_field(),
                                 "b", EjectConfig(duration=20e-6))
        assert tr.escaped and tr.escape_time == 0.0
        np.testing.assert_allclose(tr.exit_direction, [1.0, 0.0, 0.0])


class TestKickRows:
    """A kick is two rows at one time: before the kick, then after it."""

    @staticmethod
    def result(rows):
        """_trajectory_result on (t, r, v) rows in the dark field, where
        U, F and the rate are 0 and free motion is the exact path."""
        times = np.array([row[0] for row in rows])
        states = np.array([np.concatenate((row[1], row[2], [0.0]))
                           for row in rows])
        config = EjectConfig(duration=30e-6, include_recoil_kicks=True)
        return ejection._trajectory_result(times, states, dark_field(), "b",
                                           config)

    def test_escape_made_by_a_kick(self):
        # at rest outside the escape radius (E = 0), then kicked along y
        r, v = np.array([20e-6, 0.0, 0.0]), np.array([0.0, 0.01, 0.0])
        tr = self.result([(0.0, r, np.zeros(3)), (1e-6, r, np.zeros(3)),
                          (1e-6, r, v), (2e-6, r + 1e-6 * v, v)])
        assert tr.escaped and tr.escape_time == 1e-6
        np.testing.assert_array_equal(tr.exit_direction, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(tr.times, [0.0, 1e-6, 2e-6])
        np.testing.assert_array_equal(tr.velocities[1], v)
        assert tr.photons_sampled == 1

    def test_crossing_before_a_kick(self):
        # out along x at 1 m/s, reversed at 10 us and stopped at 20 us:
        # the sweep past 5 um is at 5 us on the pre-kick slope, and at
        # 3.4 us if the post-kick velocity were the step's end slope
        x = np.array([1.0, 0.0, 0.0])
        tr = self.result([(0.0, 0 * x, x), (10e-6, 10e-6 * x, x),
                          (10e-6, 10e-6 * x, -x), (20e-6, 0 * x, -x),
                          (20e-6, 0 * x, 0 * x)])
        assert tr.sweep_time == pytest.approx(5e-6, rel=1e-6)
        assert not tr.escaped
        assert tr.photons_sampled == 2
        assert np.all(np.diff(tr.times) > 0)
        np.testing.assert_array_equal(tr.velocities, [x, -x, 0 * x])


class TestEnsemble:
    @pytest.fixture
    def batch_from_two(self, monkeypatch):
        """Stack groups of any size, so small groups test the system."""
        monkeypatch.setattr(ejection, "_MIN_BATCH", 2)

    @staticmethod
    def members(n_b=11, n_a=3):
        pos, vel = sample_thermal_initial(30e-6, n_b + n_a, 3, 5e-6)
        # on the beam axis but outside the field region, so its exit
        # event never fires and it runs to the end
        pos[n_b - 1] = (0.0, 0.0, 65e-6)
        return {"b": (pos[:n_b], vel[:n_b]), "a": (pos[n_b:], vel[n_b:])}

    def test_members_match_single_runs(self, batch_from_two):
        # each state as its own system, and both states as one
        field = eject_field()
        config = EjectConfig(duration=300e-6, tolerance=1e-9)
        groups = self.members()
        pos, vel = (np.concatenate(parts) for parts in zip(*groups.values()))
        states = [s for s, (p, _) in groups.items() for _ in p]
        alone = [simulate_trajectory((p, v), field, s, config)
                 for p, v, s in zip(pos, vel, states)]
        together = [tr for s, (p, v) in groups.items()
                    for tr in simulate_ensemble(p, v, field, s, config)]
        mixed = simulate_ensemble(pos, vel, field, states, config)
        assert len(together) == len(mixed) == len(pos)
        for tr, ref in zip(together + mixed, alone + alone):
            assert abs(tr.times[-1] - ref.times[-1]) <= 1e-12
            assert tr.total_photons_expected == pytest.approx(
                ref.total_photons_expected, rel=1e-8)
            assert tr.truncated == ref.truncated
            assert tr.escaped == ref.escaped
            for name in ("escape_time", "sweep_time"):
                value, reference = getattr(tr, name), getattr(ref, name)
                assert (value is None) == (reference is None), name
                if reference is not None:
                    assert value == pytest.approx(reference, rel=1e-4)
            if ref.escaped:
                np.testing.assert_allclose(tr.exit_direction,
                                           ref.exit_direction, atol=1e-4)
        # members left the region mid-run, and others ran to the end
        ends = [tr.times[-1] < config.duration for tr in alone]
        assert any(ends) and not all(ends)

    def test_tolerance_per_member(self, monkeypatch):
        # the joint error norm squared sums the members' own, so the one
        # run over all m atoms, from 0 to the end, is at tolerance /
        # sqrt(m); an atom that left the region ends its record there
        calls = []
        solve_ivp = ejection.solve_ivp

        def spy(fun, t_span, y0, **kwargs):
            calls.append((t_span, len(y0) // 7, kwargs["rtol"],
                          kwargs["atol"]))
            return solve_ivp(fun, t_span, y0, **kwargs)
        monkeypatch.setattr(ejection, "solve_ivp", spy)
        groups = self.members()
        pos, vel = (np.concatenate(parts) for parts in zip(*groups.values()))
        states = [s for s, (p, _) in groups.items() for _ in p]
        config = EjectConfig(duration=300e-6, tolerance=1e-9)
        m = len(pos)
        assert m >= ejection._MIN_BATCH
        trs = simulate_ensemble(pos, vel, eject_field(), states, config)
        assert len(calls) == 1
        (t_span, members, rtol, atol), = calls
        assert t_span == (0.0, config.duration) and members == m
        assert rtol == pytest.approx(1e-9 / np.sqrt(m), rel=1e-15)
        assert atol == pytest.approx(1e-12 / np.sqrt(m), rel=1e-15)
        exited = [tr for tr in trs if tr.times[-1] < config.duration]
        assert exited
        for tr in exited:
            assert np.linalg.norm(tr.positions[-1]) == pytest.approx(
                ejection._REGION_RADIUS, rel=1e-9)

    def test_small_groups_and_kicks_run_alone(self, monkeypatch):
        # below `_MIN_BATCH` atoms, where batching was measured slower, or
        # with kicks, the group is the per-atom loop, bit for bit; from
        # `_MIN_BATCH` atoms up it is one system
        field = eject_field()
        n = ejection._MIN_BATCH
        pos, vel = sample_thermal_initial(30e-6, n, 3, 5e-6)
        states = ["b"] * (n - 2) + ["a"] * 2
        sizes = []
        solve_ivp = ejection.solve_ivp

        def spy(fun, t_span, y0, **kwargs):
            sizes.append(len(y0) // 7)
            return solve_ivp(fun, t_span, y0, **kwargs)
        monkeypatch.setattr(ejection, "solve_ivp", spy)
        for config, count, seeds in (
                (EjectConfig(duration=60e-6, include_recoil_kicks=True), n,
                 list(range(11, 11 + n))),
                (EjectConfig(duration=60e-6), n - 1, None)):
            together = simulate_ensemble(pos[:count], vel[:count], field,
                                         states[:count], config, seeds=seeds)
            assert set(sizes) == {1}
            for i, tr in enumerate(together):
                alone = simulate_trajectory(
                    (pos[i], vel[i]), field, states[i], config,
                    seed=None if seeds is None else seeds[i])
                np.testing.assert_array_equal(tr.times, alone.times)
                np.testing.assert_array_equal(tr.positions, alone.positions)
                assert tr.photons_sampled == alone.photons_sampled
        sizes.clear()
        simulate_ensemble(pos, vel, field, states, EjectConfig(duration=60e-6))
        assert sizes == [n]

    def test_failed_step_raises(self, monkeypatch, batch_from_two):
        monkeypatch.setattr(ejection, "solve_ivp", failed_step)
        pos, vel = self.members(n_b=2, n_a=0)["b"]
        with pytest.raises(IntegrationError, match="Required step size"):
            simulate_ensemble(pos, vel, eject_field(), "b",
                              EjectConfig(duration=50e-6))


class TestRightHandSide:
    """The derivatives handed to DOP853, against `evaluate`."""

    @staticmethod
    def rhs(monkeypatch, y, states, gravity):
        """The right-hand side simulate_ensemble builds for the atoms of
        the (m, 7) states y; nothing is integrated."""
        funs = []

        def spy(fun, t_span, y0, **kwargs):
            funs.append(fun)
            return failed_step()
        monkeypatch.setattr(ejection, "solve_ivp", spy)
        with pytest.raises(IntegrationError):
            simulate_ensemble(y[:, :3], y[:, 3:6], eject_field(), states,
                              EjectConfig(gravity=gravity))
        fun, = funs
        return lambda: np.asarray(fun(0.0, y.ravel()), dtype=float)

    @pytest.mark.parametrize("gravity", [False, True])
    @pytest.mark.parametrize("state", ["a", "b", "mixed"])
    def test_equals_evaluate_bit_for_bit(self, monkeypatch, state, gravity):
        # one atom on the float point path, and a stacked system on the
        # label constants bound when it is built, both without U
        field = eject_field()
        rng = np.random.default_rng(4)
        m = ejection._MIN_BATCH + 3
        labels = (rng.choice(["a", "b"], m) if state == "mixed"
                  else np.full(m, state))
        y = np.column_stack((rng.uniform(-15e-6, 15e-6, (m, 3)),
                             rng.normal(0.0, 0.1, (m, 3)),
                             rng.uniform(0.0, 20.0, m)))
        g = np.array([0.0, 0.0, -ejection._G if gravity else 0.0])

        def derivatives(U_F_R, v):
            _, F, R = U_F_R
            return np.column_stack((v, F / field.species.mass + g, R))
        stacked = self.rhs(monkeypatch, y, list(labels), gravity)()
        reference = derivatives(field.evaluate(y[:, :3], labels), y[:, 3:6])
        assert stacked.tobytes() == reference.ravel().tobytes()
        for i, label in enumerate(labels):
            one = self.rhs(monkeypatch, y[i:i + 1], str(label), gravity)()
            U, F, R = field.evaluate(y[i, :3], str(label))
            reference = derivatives((U, F[None], np.array([R])),
                                    y[i:i + 1, 3:6])
            assert one.tobytes() == reference.ravel().tobytes()

    @pytest.mark.parametrize("kicks, states", [
        (False, ["c"]),
        (False, ["b"] * ejection._MIN_BATCH + ["c"]),
        (False, ["b", "c"]),
        (True, ["b", "b", "c"]),
    ], ids=["one-atom", "stacked", "per-atom", "kicked"])
    def test_unknown_label_rejected_before_integrating(self, monkeypatch,
                                                       kicks, states):
        calls = []
        monkeypatch.setattr(ejection, "solve_ivp",
                            lambda *args, **kwargs: calls.append(1))
        pos, vel = sample_thermal_initial(30e-6, len(states), 1, 5e-6)
        with pytest.raises(ValueError, match="must be 'a' or 'b'"):
            simulate_ensemble(pos, vel, eject_field(), states,
                              EjectConfig(include_recoil_kicks=kicks),
                              seeds=list(range(len(states))))
        assert not calls


class TestCollimationStats:
    def synthetic(self, n_scat):
        times = np.linspace(0.0, 100e-6, 11)
        return TrajectoryResult(
            times=times,
            positions=np.zeros((11, 3)),
            velocities=np.tile([1.0, 0.0, 0.0], (11, 1)),
            photons_expected=n_scat * times / times[-1],
            photon_rates=np.full(11, n_scat / times[-1]),
            escaped=True, escape_time=50e-6,
            exit_direction=np.array([1.0, 0.0, 0.0]))

    def test_hand_computed_ratio(self):
        tr = self.synthetic(n_scat=16.0)
        a, t1, lam = 7000.0, 50e-6, 780e-9
        _, rms, ratio = collimation_stats([tr], a, t1, lam)
        # n_scat(t1) = 8, impulse ratio = sqrt(8) hbar k / (m a t1)
        expect = (np.sqrt(8.0) * TWO_PI * hbar / lam
                  / (RB87.mass * a * t1))
        assert ratio == pytest.approx(expect, rel=1e-12)
        assert rms == 0.0

    def test_photons_at_t1_independent_of_the_tolerance(self):
        # n_scat(t1) is read between output points on the Hermite
        # interpolant with the rate as its slope; read linearly, it moved
        # by up to 2.6e-3 between these two tolerances
        field = eject_field()
        t1 = characteristic_eject_time(
            field.acceleration(np.zeros(3), "b")[0], 5e-6)
        pos, vel = sample_thermal_initial(30e-6, 12, 5, 5e-6)
        photons = []
        for tol in (1e-9, 1e-12):
            config = EjectConfig(duration=60e-6, tolerance=tol,
                                 include_recoil_kicks=False)
            photons.append([
                tr.photons_expected_at(t1)
                for tr in simulate_ensemble(pos, vel, field,
                                            ["b"] * 6 + ["a"] * 6, config)])
        np.testing.assert_allclose(photons[0], photons[1], rtol=1e-5)

    def test_photons_held_past_the_record(self):
        tr = self.synthetic(n_scat=16.0)
        assert tr.photons_expected_at(-1.0) == 0.0
        assert tr.photons_expected_at(1.0) == 16.0
        assert tr.photons_expected_at(25e-6) == pytest.approx(4.0,
                                                              rel=1e-12)

    def test_no_escape(self):
        tr = self.synthetic(1.0)
        tr.escaped = False
        with pytest.raises(NoEscapeError):
            collimation_stats([tr], 7000.0, 40e-6, 780e-9)

    def test_ensemble_scale(self):
        field = eject_field()
        accel = field.acceleration(np.zeros(3), "b")[0]
        t1 = characteristic_eject_time(accel, 5e-6)
        config = EjectConfig(duration=250e-6)
        pos, vel = sample_thermal_initial(30e-6, 8, 21, 5e-6)
        trs = [simulate_trajectory((pos[i], vel[i]), field, "b", config)
               for i in range(8)]
        mean_dir, rms, ratio = collimation_stats(trs, accel, t1, 780e-9)
        assert mean_dir[0] > 0.9
        assert 0.05 < ratio < 0.2      # recoil well below the coherent push


class TestScanFig2:
    def test_profile_shapes_and_signs(self):
        field = eject_field()
        out = scan_fig2(field, (-15e-6, 0, 0), (15e-6, 0, 0), 61)
        assert set(out) == {"x", "U_a_over_kB_uK", "U_b_over_kB_uK",
                            "a_a", "a_b"}
        assert len(out["x"]) == 61
        i0 = 30                       # FORT center
        # |a>: 0.33 mK FORT well deepened by the red-detuned eject beam
        assert out["U_a_over_kB_uK"][i0] == pytest.approx(-440, rel=0.05)
        # |b>: FORT well partially filled by the repulsive eject beam
        assert out["U_b_over_kB_uK"][i0] > out["U_a_over_kB_uK"][i0]
        # |b> acceleration away from the eject beam at the trap center
        assert out["a_b"][i0] == pytest.approx(7.09e3, rel=0.02)
        assert out["a_a"][i0] < 0

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            scan_fig2(eject_field(), (0, 0, 0), (0, 0, 0), 5)
