from types import SimpleNamespace

import numpy as np
import pytest

from rydsources.emission import (AngularPattern, EmissionGeometry,
                                 GridResolutionError,
                                 double_excitation_pattern,
                                 expected_peak_direction, jittered_pattern,
                                 motional_blur, pattern_metrics,
                                 single_photon_pattern)
from rydsources.ensemble import sample_cloud, sample_directions
from rydsources.species import RB87

TWO_PI = 2 * np.pi
LAMBDA4 = 0.78e-6


def grid_directions(pattern):
    tt, pp = np.meshgrid(pattern.theta, pattern.phi_az, indexing="ij")
    return np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=-1)


def monte_carlo_jitter(cloud, geometry, sigma, trials, seed, n_theta):
    """Mean and standard error of the pattern over `trials` jittered
    copies of the cloud: the reference for the closed form."""
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(trials):
        jitter = rng.normal(0.0, sigma, size=cloud.positions.shape)
        moved = SimpleNamespace(positions=cloud.positions + jitter,
                                n_atoms=cloud.n_atoms)
        grids.append(single_photon_pattern(moved, geometry, n_theta).values)
    grids = np.array(grids)
    return grids.mean(axis=0), grids.std(axis=0, ddof=1) / np.sqrt(trials)


class TestGeometry:
    def test_collinear_zero_mismatch(self):
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        direction, mismatch = expected_peak_direction(geo)
        np.testing.assert_allclose(direction, [0, 0, 1])
        assert mismatch == pytest.approx(0.0, abs=1e-6 * geo.k4_magnitude)

    def test_tilted_transverse_matching(self):
        # k1 + k2 - k3 has transverse component -k sin(phi): the peak
        # tilts to the other side of the z axis
        phi = np.radians(10)
        geo = EmissionGeometry.tilted(phi, LAMBDA4)
        direction, _ = expected_peak_direction(geo)
        k = geo.k4_magnitude
        norm = np.linalg.norm(geo.matching_vector)
        assert direction[0] == pytest.approx(-k * np.sin(phi) / norm)
        assert direction[1] == 0.0

    def test_counterpropagating_conjugate(self):
        geo = EmissionGeometry.counterpropagating(LAMBDA4, (0, 0, 1))
        direction, mismatch = expected_peak_direction(geo)
        np.testing.assert_allclose(direction, [0, 0, -1], atol=1e-15)
        assert mismatch == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_matching_vector_rejected(self):
        k = TWO_PI / LAMBDA4
        geo = EmissionGeometry(k1=[k, 0, 0], k2=[-k, 0, 0], k3=[0, 0, 0],
                               lambda4=LAMBDA4)
        with pytest.raises(ValueError):
            expected_peak_direction(geo)


class TestSinglePhotonPattern:
    def test_single_atom_isotropic(self):
        cloud = sample_cloud(1, 5e-6, seed=0)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        pattern = single_photon_pattern(cloud, geo, n_theta=41)
        np.testing.assert_allclose(pattern.values, 1.0, atol=1e-12)

    def test_peak_equals_n_when_phase_matched(self):
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        for N in (10, 100):
            cloud = sample_cloud(N, 5e-6, seed=N)
            pattern = single_photon_pattern(cloud, geo)
            val = pattern.evaluator(np.array([[0.0, 0.0, 1.0]]))[0]
            assert val == pytest.approx(N, rel=1e-12)

    def test_bounded_by_n(self):
        cloud = sample_cloud(50, 5e-6, seed=3)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        pattern = single_photon_pattern(cloud, geo, n_theta=91)
        assert np.max(pattern.values) <= 50 * (1 + 1e-12)
        assert np.min(pattern.values) >= 0.0

    def test_k1_k2_swap_invariance(self):
        cloud = sample_cloud(30, 5e-6, seed=4)
        phi = np.radians(15)
        geo = EmissionGeometry.tilted(phi, LAMBDA4)
        swapped = EmissionGeometry(k1=geo.k2, k2=geo.k1, k3=geo.k3,
                                   lambda4=LAMBDA4)
        a = single_photon_pattern(cloud, geo, n_theta=61)
        b = single_photon_pattern(cloud, swapped, n_theta=61)
        np.testing.assert_array_equal(a.values, b.values)

    def test_argmax_matches_expected_direction(self):
        cloud = sample_cloud(200, 5e-6, seed=5)
        for geo in (EmissionGeometry.collinear_degenerate(LAMBDA4),
                    EmissionGeometry.tilted(np.radians(12), LAMBDA4),
                    EmissionGeometry.counterpropagating(LAMBDA4, (0, 0, 1))):
            pattern = single_photon_pattern(cloud, geo)
            expected, _ = expected_peak_direction(geo)
            got = pattern.argmax_direction()
            assert got @ expected > np.cos(2 * pattern.grid_spacing)

    def test_sphere_average_near_unity(self):
        cloud = sample_cloud(100, 5e-6, seed=6)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        pattern = single_photon_pattern(cloud, geo)
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, 4000)
        az = rng.uniform(0, TWO_PI, 4000)
        s = np.sqrt(1 - z * z)
        dirs = np.stack([s * np.cos(az), s * np.sin(az), z], axis=-1)
        mean = float(np.mean(pattern.evaluator(dirs)))
        assert 0.9 < mean < 1.5


class TestPatternMetrics:
    def test_peak_and_width_uniform_ball(self):
        cloud = sample_cloud(200, 5e-6, seed=7)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        metrics = pattern_metrics(single_photon_pattern(cloud, geo))
        assert metrics.peak_value == pytest.approx(200, rel=1e-6)
        assert metrics.peak_direction @ np.array([0, 0, 1]) > 0.9999
        # uniform-ball lobe: FWHM ~ 1.16 lambda / D
        ratio = metrics.fwhm / (LAMBDA4 / 5e-6)
        assert 1.0 < ratio < 1.35
        assert metrics.mean_background == pytest.approx(1.0, abs=0.25)
        assert metrics.peak_to_background > 100
        assert metrics.fwhm == pytest.approx(np.mean(metrics.fwhm_cuts))

    def test_fwhm_scales_inversely_with_diameter(self):
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        widths = {}
        for D in (5e-6, 10e-6):
            fw = [pattern_metrics(single_photon_pattern(
                      sample_cloud(150, D, seed=s), geo, n_theta=361)).fwhm
                  for s in range(3)]
            widths[D] = np.mean(fw)
        assert widths[5e-6] / widths[10e-6] == pytest.approx(2.0, rel=0.1)

    def test_coarse_grid_rejected(self):
        cloud = sample_cloud(100, 5e-6, seed=8)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        pattern = single_photon_pattern(cloud, geo, n_theta=15)
        with pytest.raises(GridResolutionError):
            pattern_metrics(pattern)

    @pytest.mark.parametrize("N", [20, 50])
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_grid_background_matches_sampled(self, N, tilt):
        geo = (EmissionGeometry.tilted(tilt, LAMBDA4) if tilt
               else EmissionGeometry.collinear_degenerate(LAMBDA4))
        pattern = single_photon_pattern(sample_cloud(N, 5e-6, seed=N), geo)
        metrics = pattern_metrics(pattern)
        dirs = sample_directions(np.random.default_rng(N), 200_000)
        dirs = dirs[dirs @ metrics.peak_direction < np.cos(3 * metrics.fwhm)]
        sampled = np.mean(np.concatenate(
            [pattern.evaluator(d) for d in np.array_split(dirs, 20)]))
        assert metrics.mean_background == pytest.approx(sampled, rel=0.01)

    def test_missing_evaluator_rejected(self):
        pattern = AngularPattern(theta=np.linspace(0, np.pi, 5),
                                 phi_az=np.linspace(0, TWO_PI, 10,
                                                    endpoint=False),
                                 values=np.ones((5, 10)), n_atoms=1)
        with pytest.raises(ValueError):
            pattern_metrics(pattern)


class TestDoubleChannel:
    def test_suppressed_at_single_photon_peak(self):
        cloud = sample_cloud(150, 5e-6, seed=9)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        dpat = double_excitation_pattern(cloud, geo)
        # mismatch 2k along z: random-phase level, far below N
        val = dpat.evaluator(np.array([[0.0, 0.0, 1.0]]))[0]
        assert val < 10

    def test_phase_matched_double_warns(self):
        cloud = sample_cloud(20, 5e-6, seed=10)
        k = TWO_PI / LAMBDA4
        # 2(k1+k2) - k3 has magnitude k: pathological phase matching
        geo = EmissionGeometry(k1=[0, 0, k / 4], k2=[0, 0, k / 4],
                               k3=[0, 0, 0], lambda4=LAMBDA4)
        with pytest.warns(UserWarning):
            dpat = double_excitation_pattern(cloud, geo)
        val = dpat.evaluator(np.array([[0.0, 0.0, 1.0]]))[0]
        assert val == pytest.approx(20, rel=1e-12)


class TestMotionalBlur:
    def test_paper_scale(self):
        dx, frac = motional_blur(30e-6, 3e-6, RB87, LAMBDA4)
        assert dx == pytest.approx(0.1607e-6, rel=1e-3)
        assert frac == pytest.approx(dx / LAMBDA4)

    def test_linear_in_time_sqrt_in_temperature(self):
        dx1, _ = motional_blur(30e-6, 1e-6, RB87)
        dx2, _ = motional_blur(30e-6, 2e-6, RB87)
        assert dx2 == pytest.approx(2 * dx1)
        dx4, _ = motional_blur(120e-6, 1e-6, RB87)
        assert dx4 == pytest.approx(2 * dx1)

    def test_zero_cases_and_validation(self):
        assert motional_blur(0.0, 3e-6, RB87)[0] == 0.0
        assert motional_blur(30e-6, 0.0, RB87)[0] == 0.0
        with pytest.raises(ValueError):
            motional_blur(-1e-6, 3e-6, RB87)


class TestJitteredPattern:
    def test_zero_sigma_returns_base(self):
        cloud = sample_cloud(30, 5e-6, seed=11)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        base = single_photon_pattern(cloud, geo, n_theta=41)
        jp = jittered_pattern(cloud, geo, 0.0, n_theta=41)
        np.testing.assert_array_equal(jp.values, base.values)

    def test_determinism(self):
        cloud = sample_cloud(20, 5e-6, seed=12)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        a = jittered_pattern(cloud, geo, 0.1e-6, n_theta=31)
        b = jittered_pattern(cloud, geo, 0.1e-6, n_theta=31)
        np.testing.assert_array_equal(a.values, b.values)

    def test_closed_form_at_every_grid_point(self):
        cloud = sample_cloud(20, 5e-6, seed=15)
        geo = EmissionGeometry.tilted(0.3, LAMBDA4)
        sigma = 0.1e-6
        base = single_photon_pattern(cloud, geo, n_theta=41)
        jp = jittered_pattern(cloud, geo, sigma, n_theta=41)
        dirs = grid_directions(base)
        q = geo.k4_magnitude * dirs - geo.matching_vector
        expected = 1 + np.exp(-np.sum(q ** 2, axis=-1) * sigma ** 2) * (
            base.values - 1)
        np.testing.assert_allclose(jp.values, expected, rtol=1e-12,
                                   atol=1e-12)
        # the evaluator behind metrics gives the grid values
        np.testing.assert_array_equal(jp.evaluator(dirs), jp.values)

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_monte_carlo_converges_to_closed_form(self, tilt):
        cloud = sample_cloud(20, 5e-6, seed=16)
        geo = (EmissionGeometry.tilted(tilt, LAMBDA4) if tilt
               else EmissionGeometry.collinear_degenerate(LAMBDA4))
        jp = jittered_pattern(cloud, geo, 0.1e-6, n_theta=31)
        mean, stderr = monte_carlo_jitter(cloud, geo, 0.1e-6, 400, seed=5,
                                          n_theta=31)
        assert np.all(np.abs(jp.values - mean) <= 5 * stderr + 1e-9)

    def test_debye_waller_suppression(self):
        cloud = sample_cloud(50, 5e-6, seed=13)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        base = single_photon_pattern(cloud, geo, n_theta=41)
        sigma = 2e-6
        jp = jittered_pattern(cloud, geo, sigma, n_theta=41)
        # the exactly phase-matched direction has q = 0 and stays at N
        # for any jitter
        np.testing.assert_allclose(jp.values[0], 50.0, rtol=1e-12)
        # one ring off axis, q = 2 k sin(theta/2): Gaussian jitter
        # suppresses the coherent part by exp(-q^2 sigma^2)
        theta = base.theta[1]
        q = 2 * geo.k4_magnitude * np.sin(theta / 2)
        dw = np.exp(-q ** 2 * sigma ** 2)
        predicted = dw * (np.mean(base.values[1]) - 1) + 1
        assert np.mean(jp.values[1]) == pytest.approx(predicted, rel=0.3)
        assert np.mean(jp.values[1]) < np.mean(base.values[1])

    def test_negative_sigma_rejected(self):
        cloud = sample_cloud(5, 5e-6, seed=14)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        with pytest.raises(ValueError):
            jittered_pattern(cloud, geo, -1e-9)
