import numpy as np
import pytest
from scipy.constants import hbar, k as k_B
from scipy.integrate import dblquad

from rydsources.optics import (GaussianBeam, ResonantLightError,
                               StateDetunings, dipole_potential, intensity,
                               scattering_rate, state_potentials)
from rydsources.species import RB87

TWO_PI = 2 * np.pi


# The vector form the field kernel replaced, kept as the slow reference.
def _beam_coords(beam, r):
    rel = np.asarray(r, dtype=float) - beam.focus_position
    z = rel @ beam.axis
    rho2 = np.maximum(np.sum(rel * rel, axis=-1) - z * z, 0.0)
    return rel, z, rho2


def intensity_and_gradient(beam, r):
    """Intensity I (W/m^2) and analytic grad I (W/m^3) at r, shape (..., 3)."""
    rel, z, rho2 = _beam_coords(beam, r)
    zR = beam.rayleigh_range
    w2 = beam.waist ** 2 * (1 + (z / zR) ** 2)
    I = 2 * beam.power / (np.pi * w2) * np.exp(-2 * rho2 / w2)
    dw2_dz = 2 * z * beam.waist ** 2 / zR ** 2
    dI_drho2 = (-2 * I / w2)[..., None]
    dI_dz = (I * dw2_dz * (2 * rho2 - w2) / w2 ** 2)[..., None]
    grad_rho2 = 2 * (rel - z[..., None] * beam.axis)
    return I, dI_drho2 * grad_rho2 + dI_dz * beam.axis


def reference_evaluate(field, r, state):
    """(U, F, R) summed beam by beam from the reference formulas."""
    r = np.asarray(r, dtype=float)
    isat = field.species.saturation_intensity
    gamma = field.species.linewidth_Gamma
    U, F, R = 0.0, np.zeros(r.shape), 0.0
    for beam, det in field.beams:
        delta = det.for_state(state)
        I, grad = intensity_and_gradient(beam, r)
        U = U + hbar * delta / 2 * np.log1p(
            I / isat / (1 + (2 * delta / gamma) ** 2))
        dU_dI = hbar * delta / 2 / (isat * (1 + (2 * delta / gamma) ** 2) + I)
        F = F - dU_dI[..., None] * grad
        s = I / isat
        R = R + gamma / 2 * s / (1 + s + (2 * delta / gamma) ** 2)
    return U, F, R


FORT = GaussianBeam(power=0.1, waist=5e-6, wavelength=1.06e-6)
EJECT = GaussianBeam(power=9e-6, waist=10e-6, wavelength=780e-9,
                     focus_position=(-3e-6, 0, 0))


class TestBeamGeometry:
    def test_peak_intensities(self):
        # I0 = 2P / (pi w^2)
        assert FORT.peak_intensity == pytest.approx(2.546e9, rel=1e-3)
        assert EJECT.peak_intensity == pytest.approx(5.73e4, rel=1e-3)

    def test_rayleigh_range(self):
        assert FORT.rayleigh_range == pytest.approx(
            np.pi * 25e-12 / 1.06e-6, rel=1e-12)

    def test_axis_normalized(self):
        beam = GaussianBeam(power=1.0, waist=1e-6, wavelength=1e-6,
                            axis=(0, 3, 4))
        np.testing.assert_allclose(beam.axis, [0, 0.6, 0.8])

    def test_on_axis_falloff(self):
        zR = FORT.rayleigh_range
        assert intensity(FORT, [0, 0, zR]) == pytest.approx(
            FORT.peak_intensity / 2, rel=1e-12)

    def test_radial_falloff_at_waist(self):
        assert intensity(FORT, [5e-6, 0, 0]) == pytest.approx(
            FORT.peak_intensity * np.exp(-2), rel=1e-12)

    def test_vectorized_positions(self):
        pts = np.array([[0, 0, 0], [5e-6, 0, 0], [0, 0, FORT.rayleigh_range]])
        vals = intensity(FORT, pts)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(FORT.peak_intensity)

    def test_focus_offset(self):
        assert intensity(EJECT, [-3e-6, 0, 0]) == pytest.approx(
            EJECT.peak_intensity, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 7e-6])
    def test_transverse_power_integral(self, z):
        # integrating I over any transverse plane recovers the power
        def integrand(y, x):
            return intensity(FORT, np.array([x, y, z]))

        lim = 12 * FORT.waist
        total, _ = dblquad(integrand, -lim, lim, -lim, lim,
                           epsrel=1e-6)
        assert total == pytest.approx(FORT.power, rel=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-10
        for beam in (FORT, EJECT,
                     GaussianBeam(power=1e-3, waist=3e-6, wavelength=1e-6,
                                  axis=(1, 1, 0.3), focus_position=(1e-6, 0, -2e-6))):
            for _ in range(34):
                r = rng.uniform(-8e-6, 8e-6, 3)
                grad = intensity_and_gradient(beam, r)[1]
                fd = np.empty(3)
                for i in range(3):
                    dp = np.zeros(3)
                    dp[i] = h
                    fd[i] = (intensity(beam, r + dp)
                             - intensity(beam, r - dp)) / (2 * h)
                scale = max(np.linalg.norm(grad),
                            beam.peak_intensity / beam.waist)
                np.testing.assert_allclose(grad, fd, atol=1e-5 * scale)

    def test_invalid_beams(self):
        with pytest.raises(ValueError):
            GaussianBeam(power=-1, waist=1e-6, wavelength=1e-6)
        with pytest.raises(ValueError):
            GaussianBeam(power=1, waist=0, wavelength=1e-6)
        with pytest.raises(ValueError):
            GaussianBeam(power=1, waist=1e-6, wavelength=1e-6, axis=(0, 0, 0))


class TestDipolePotential:
    def test_sign_follows_detuning(self):
        I = 1e5
        assert dipole_potential(I, -TWO_PI * 1e9) < 0
        assert dipole_potential(I, +TWO_PI * 1e9) > 0

    def test_resonant_rejected(self):
        with pytest.raises(ResonantLightError):
            dipole_potential(1e5, 0.0)

    def test_far_detuned_limit(self):
        # U -> hbar Gamma^2 I / (8 Delta I_sat) for |Delta| >> Gamma, s_eff << 1
        I = 1e5
        det = -TWO_PI * 1e13
        gamma = RB87.linewidth_Gamma
        limit = hbar * gamma ** 2 * I / (8 * det * RB87.saturation_intensity)
        assert dipole_potential(I, det) == pytest.approx(limit, rel=1e-3)

    def test_fort_depth_milli_kelvin(self):
        det = StateDetunings.far_off_resonance(1.06e-6).detuning_a
        assert det < 0
        U = dipole_potential(FORT.peak_intensity, det)
        assert U / k_B == pytest.approx(-0.33e-3, rel=0.03)

    def test_hand_value_log_form(self):
        # s_eff = 1 by construction: U = (hbar Delta / 2) ln 2
        gamma = RB87.linewidth_Gamma
        det = gamma          # 2 det / gamma = 2 -> denominator 5
        I = 5 * RB87.saturation_intensity
        assert dipole_potential(I, det) == pytest.approx(
            hbar * det / 2 * np.log(2), rel=1e-12)

    def test_monotone_in_intensity(self):
        det = TWO_PI * 1e9
        I = np.linspace(0, 1e6, 50)
        U = dipole_potential(I, det)
        assert U[0] == 0.0
        assert np.all(np.diff(U) > 0)


class TestScatteringRate:
    def test_hand_value(self):
        # s = 1, detuning 0 -> R = Gamma / 4
        gamma = RB87.linewidth_Gamma
        with np.errstate(all="raise"):
            R = scattering_rate(RB87.saturation_intensity, 1e-30)
        assert R == pytest.approx(gamma / 4, rel=1e-6)

    def test_saturation_limit(self):
        gamma = RB87.linewidth_Gamma
        R = scattering_rate(1e12 * RB87.saturation_intensity, TWO_PI * 1e6)
        assert R == pytest.approx(gamma / 2, rel=1e-3)

    def test_far_detuned_quadratic_suppression(self):
        # with s << (2 Delta / Gamma)^2 the rate falls as 1/Delta^2
        I = 1.0
        r1 = scattering_rate(I, TWO_PI * 1e9)
        r2 = scattering_rate(I, TWO_PI * 2e9)
        assert r1 / r2 == pytest.approx(4.0, rel=1e-3)

    def test_state_ratio_at_eject_detuning(self):
        # |b> at +1 GHz scatters ~(5.8)^2 times faster than |a> at -5.8 GHz
        det = StateDetunings.from_detuning_b(TWO_PI * 1e9)
        I = EJECT.peak_intensity
        ratio = (scattering_rate(I, det.detuning_b)
                 / scattering_rate(I, det.detuning_a))
        assert ratio == pytest.approx(5.8 ** 2, rel=0.05)
        s = I / RB87.saturation_intensity
        gamma = RB87.linewidth_Gamma
        exact = ((1 + s + (2 * det.detuning_a / gamma) ** 2)
                 / (1 + s + (2 * det.detuning_b / gamma) ** 2))
        assert ratio == pytest.approx(exact, rel=1e-12)


class TestStateDetunings:
    def test_hyperfine_offset(self):
        det = StateDetunings.from_detuning_b(TWO_PI * 1e9)
        assert det.detuning_b == TWO_PI * 1e9
        assert det.detuning_a == pytest.approx(-TWO_PI * 5.8e9)

    def test_far_off_resonance_shared(self):
        det = StateDetunings.far_off_resonance(1.06e-6)
        assert det.detuning_a == det.detuning_b
        assert StateDetunings.far_off_resonance(0.5e-6).detuning_a > 0

    def test_for_state_validation(self):
        det = StateDetunings(detuning_a=1.0, detuning_b=2.0)
        assert det.for_state("a") == 1.0
        assert det.for_state("b") == 2.0
        with pytest.raises(ValueError):
            det.for_state("c")


class TestStatePotentialField:
    def field(self):
        fort_det = StateDetunings.far_off_resonance(1.06e-6)
        eject_det = StateDetunings.from_detuning_b(TWO_PI * 1e9)
        return state_potentials([(FORT, fort_det), (EJECT, eject_det)])

    def test_potential_additivity(self):
        f = self.field()
        fort_only = state_potentials(
            [(FORT, StateDetunings.far_off_resonance(1.06e-6))])
        eject_only = state_potentials(
            [(EJECT, StateDetunings.from_detuning_b(TWO_PI * 1e9))])
        r = np.array([1e-6, -2e-6, 0.5e-6])
        assert f.potential(r, "b") == pytest.approx(
            fort_only.potential(r, "b") + eject_only.potential(r, "b"),
            rel=1e-12)

    def test_state_b_repelled_at_trap_center(self):
        # the blue-detuned (for |b>) eject beam sits at -3 um; |b> is pushed +x
        f = self.field()
        force_b = f.force(np.zeros(3), "b")
        assert force_b[0] > 0
        # |a> sees both beams red detuned: net pull toward the eject beam
        force_a = f.force(np.zeros(3), "a")
        assert force_a[0] < 0

    def test_force_is_minus_grad_U(self):
        f = self.field()
        rng = np.random.default_rng(1)
        h = 1e-10
        for _ in range(100):
            r = rng.uniform(-8e-6, 8e-6, 3)
            state = "b" if rng.uniform() < 0.5 else "a"
            force = f.force(r, state)
            fd = np.empty(3)
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fd[i] = -(f.potential(r + dp, state)
                          - f.potential(r - dp, state)) / (2 * h)
            scale = max(np.linalg.norm(force), 1e-22)
            np.testing.assert_allclose(force, fd, atol=1e-5 * scale)

    def test_acceleration_scale_at_center(self):
        # coherent |b> push at the trap center, ~7e3 m/s^2 for the
        # 9 uW / 10 um / +1 GHz eject beam against the 100 mW FORT
        a = self.field().acceleration(np.zeros(3), "b")
        assert a[0] == pytest.approx(7.09e3, rel=0.02)

    def test_total_scattering_rate_sums(self):
        f = self.field()
        r = np.zeros(3)
        total = f.total_scattering_rate(r, "b")
        parts = 0.0
        for beam, det in f.beams:
            parts += scattering_rate(intensity(beam, r), det.for_state("b"))
        assert total == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("state", ["a", "b", "mixed"])
    def test_batched_evaluate_matches_per_point(self, state):
        # one pass over (n, 3) points, with one label for all or one per
        # point, gives the per-point values exactly
        f = self.field()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-15e-6, 15e-6, (200, 3))
        labels = (rng.choice(["a", "b"], 200) if state == "mixed"
                  else np.full(200, state))
        U, F, R = f.evaluate(pts, labels if state == "mixed" else state)
        assert U.shape == R.shape == (200,) and F.shape == (200, 3)
        for i, p in enumerate(pts):
            assert U[i] == f.potential(p, labels[i])
            assert np.array_equal(F[i], f.force(p, labels[i]))
            assert R[i] == f.total_scattering_rate(p, labels[i])
        U2, F2, R2 = f.evaluate(pts.reshape(10, 20, 3),
                                labels.reshape(10, 20))
        assert np.array_equal(U2.ravel(), U)
        assert np.array_equal(F2.reshape(200, 3), F)
        assert np.array_equal(R2.ravel(), R)
        # and the one-state batches' values on its points of each state
        for s in ("a", "b"):
            mask = labels == s
            for part, whole in zip(f.evaluate(pts[mask], s), (U, F, R)):
                assert np.array_equal(part, whole[mask])

    @pytest.mark.parametrize("state", ["a", "b", "mixed"])
    def test_kernel_matches_reference(self, state):
        # tilted axis and off-origin focus; points on every beam's axis
        # (rho^2 = 0), in its focal plane (z = 0) and at its focus
        tilted = GaussianBeam(power=1e-3, waist=3e-6, wavelength=1e-6,
                              axis=(1, 1, 0.3),
                              focus_position=(1e-6, 0, -2e-6))
        f = state_potentials(
            [(FORT, StateDetunings.far_off_resonance(1.06e-6)),
             (EJECT, StateDetunings.from_detuning_b(TWO_PI * 1e9)),
             (tilted, StateDetunings.from_detuning_b(-TWO_PI * 3e9))])
        rng = np.random.default_rng(3)
        pts = [rng.uniform(-15e-6, 15e-6, (2000, 3))]
        for beam, _ in f.beams:
            t = rng.uniform(-15e-6, 15e-6, (20, 1))
            v = rng.uniform(-15e-6, 15e-6, (20, 3))
            v -= (v @ beam.axis)[:, None] * beam.axis
            pts += [beam.focus_position + t * beam.axis,
                    beam.focus_position + v, beam.focus_position[None]]
        pts = np.concatenate(pts)
        labels = (rng.choice(["a", "b"], len(pts)) if state == "mixed"
                  else np.full(len(pts), state))

        def reference(field, r, labels):
            """reference_evaluate, point by point on its own label."""
            r = np.atleast_2d(r)
            out = [np.empty(len(r)), np.empty(r.shape), np.empty(len(r))]
            for s in ("a", "b"):
                mask = np.broadcast_to(labels, len(r)) == s
                for full, part in zip(out, reference_evaluate(field, r[mask],
                                                              s)):
                    full[mask] = part
            return out

        def check(r, labels):
            U, F, R = f.evaluate(r, labels)
            U0, F0, R0 = reference(f, r, labels)
            assert F.shape == np.shape(r)
            # red and blue shifts can cancel: U relative to sum |U_beam|
            scale = sum(np.abs(reference(state_potentials([b]), r,
                                         labels)[0]) for b in f.beams)
            assert np.all(np.abs(U - U0) <= 1e-12 * scale)
            np.testing.assert_allclose(R, R0, rtol=1e-12, atol=0)
            err = np.linalg.norm(F - F0, axis=-1)
            assert np.all(err <= 1e-12 * np.linalg.norm(F0, axis=-1))
        check(pts, labels if state == "mixed" else state)
        for p, s in zip(pts[::50], labels[::50]):
            check(p, str(s))                # a single (3,) point
        check(pts[-1], str(labels[-1]))     # the tilted beam's focus

    def test_resonant_field_rejected(self):
        # a zero detuning for either state fails when the field is built
        for det in (StateDetunings(detuning_a=0.0, detuning_b=1e9),
                    StateDetunings.from_detuning_b(0.0)):
            with pytest.raises(ResonantLightError):
                state_potentials([(FORT, det)])

    def test_unknown_state_rejected(self):
        f = self.field()
        for r, state in ((np.zeros(3), "c"), (np.zeros(3), ["a"]),
                         (np.zeros((2, 3)), "c"),
                         (np.zeros((2, 3)), ["a", "c"])):
            with pytest.raises(ValueError):
                f.evaluate(r, state)

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            state_potentials([])
