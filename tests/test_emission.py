from types import SimpleNamespace

import numpy as np
import pytest

from rydsources.emission import (AngularPattern, EmissionGeometry,
                                 GridResolutionError, _cap_background,
                                 _cross, _dir_from_angles,
                                 _orthonormal_frame, _pattern_values,
                                 double_excitation_pattern,
                                 expected_peak_direction, jittered_pattern,
                                 motional_blur, pattern_metrics,
                                 single_photon_pattern)
from rydsources.blockade import trial_seed
from rydsources.ensemble import sample_cloud, sample_directions
from rydsources.species import RB87

TWO_PI = 2 * np.pi
LAMBDA4 = 0.78e-6


def grid_directions(pattern):
    tt, pp = np.meshgrid(pattern.theta, pattern.phi_az, indexing="ij")
    return np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=-1)


def geometry_for(tilt):
    return (EmissionGeometry.tilted(tilt, LAMBDA4) if tilt
            else EmissionGeometry.collinear_degenerate(LAMBDA4))


def complex_pattern_values(positions, q_offset, k4, directions):
    """The direct complex phase sum, the reference for _pattern_values."""
    q = k4 * np.asarray(directions, dtype=float) - q_offset
    phases = q @ positions.T
    return np.abs(np.exp(1j * phases).sum(axis=-1)) ** 2 / len(positions)


def dense_cut_fwhm(evaluator, peak_dir, tangent, half_level, max_angle=1.5,
                   n_points=3001):
    """Innermost half-max crossings, linearly interpolated on a dense
    great-circle cut: the reference for the bisected crossings."""
    alpha = np.linspace(-max_angle, max_angle, n_points)
    vals = evaluator(np.cos(alpha)[:, None] * peak_dir
                     + np.sin(alpha)[:, None] * tangent)
    i0 = n_points // 2
    i = next(i for i in range(i0, -1, -1) if vals[i] < half_level)
    left = alpha[i] + (half_level - vals[i]) / (vals[i + 1] - vals[i]) * (
        alpha[i + 1] - alpha[i])
    i = next(i for i in range(i0, n_points) if vals[i] < half_level)
    right = alpha[i - 1] + (half_level - vals[i - 1]) / (
        vals[i] - vals[i - 1]) * (alpha[i] - alpha[i - 1])
    return right - left


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

    @pytest.mark.parametrize("N", [1, 10, 50, 500])
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_values_match_complex_phase_sum(self, N, tilt):
        cloud = sample_cloud(N, 5e-6 if N < 500 else 10e-6, seed=N)
        geo = geometry_for(tilt)
        pattern = single_photon_pattern(cloud, geo, n_theta=31)
        expected = complex_pattern_values(
            cloud.positions, geo.matching_vector, geo.k4_magnitude,
            grid_directions(pattern))
        np.testing.assert_allclose(pattern.values, expected, rtol=1e-12,
                                   atol=0)

    @pytest.mark.parametrize("N", [1, 2, 10, 50, 500])
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_mirror_grid_matches_direct_sum(self, N, tilt):
        cloud = sample_cloud(N, 5e-6 if N < 500 else 10e-6, seed=N)
        geo = geometry_for(tilt)
        for n_theta in (1, 2, 30, 31, 91):
            for channel in (single_photon_pattern, double_excitation_pattern):
                pattern = channel(cloud, geo, n_theta=n_theta)
                dirs = _dir_from_angles(*np.meshgrid(
                    pattern.theta, pattern.phi_az, indexing="ij"))
                expected = _pattern_values(cloud.positions, pattern.q_offset,
                                           pattern.k4, dirs)
                # deep nulls carry the rounding of sums near zero
                np.testing.assert_allclose(pattern.values, expected,
                                           rtol=1e-12, atol=1e-12)
                if N >= 2:
                    # the argmax seeds pattern_metrics. It may differ only
                    # among tied values: the direct sum sees
                    # sin(pi) = 1.2e-16, so its south-pole points differ in
                    # the last bits where the mirror grid's tie exactly
                    ties = np.flatnonzero(expected
                                          >= expected.max() * (1 - 1e-12))
                    assert np.argmax(pattern.values) in ties


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

    def test_lobe_too_wide_for_background_rejected(self):
        # 3 FWHM > pi: cos(3 FWHM) wraps, so no direction is background
        cloud = sample_cloud(10, 0.9e-6, seed=4)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        with pytest.raises(GridResolutionError, match="rad lobe is too wide"):
            pattern_metrics(single_photon_pattern(cloud, geo))

    @pytest.mark.parametrize("N", [20, 50])
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_grid_background_matches_sampled(self, N, tilt):
        geo = geometry_for(tilt)
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

    def test_jittered_mean_rejected(self):
        # its background has no phase-sum closed form
        cloud = sample_cloud(20, 5e-6, seed=17)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        with pytest.raises(ValueError, match="closed form"):
            pattern_metrics(jittered_pattern(single_photon_pattern(cloud, geo),
                                             0.1e-6))

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_half_resolution_seed_matches_full_grid(self, tilt):
        geo = geometry_for(tilt)
        spacing = np.pi / 180
        for N in (10, 20, 50):
            for s in range(10):
                cloud = sample_cloud(N, 5e-6, seed=1000 * N + s)
                full = pattern_metrics(single_photon_pattern(cloud, geo))
                half = pattern_metrics(single_photon_pattern(cloud, geo, 91),
                                       spacing)
                assert half.peak_value == pytest.approx(full.peak_value,
                                                        rel=1e-9)

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_closed_form_background_matches_sampled(self, tilt):
        pattern = single_photon_pattern(sample_cloud(10, 5e-6, seed=21),
                                        geometry_for(tilt), n_theta=91)
        metrics = pattern_metrics(pattern, np.pi / 180)
        dirs = sample_directions(np.random.default_rng(21), 1_000_000)
        vals = pattern.evaluator(
            dirs[dirs @ metrics.peak_direction < np.cos(3 * metrics.fwhm)])
        stderr = np.std(vals) / np.sqrt(len(vals))
        assert abs(metrics.mean_background - np.mean(vals)) < 3 * stderr

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_bisected_fwhm_matches_dense_cut(self, tilt):
        geo = geometry_for(tilt)
        for N, seed in ((10, 1), (20, 2), (50, 3)):
            pattern = single_photon_pattern(sample_cloud(N, 5e-6, seed=seed),
                                            geo)
            metrics = pattern_metrics(pattern)
            n, e1, e2 = _orthonormal_frame(metrics.peak_direction)
            half = metrics.peak_value / 2
            dense = (dense_cut_fwhm(pattern.evaluator, n, e1, half),
                     dense_cut_fwhm(pattern.evaluator, n, e2, half))
            np.testing.assert_allclose(metrics.fwhm_cuts, dense, rtol=1e-4)


def np_cross_frame(direction):
    """_orthonormal_frame as it was with np.cross: its reference."""
    n = direction / np.linalg.norm(direction)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    return n, e1, np.cross(n, e1)


def test_cross_matches_numpy_bit_for_bit():
    # the frame feeds every FWHM walk, so the written-out cross product
    # must give np.cross's bits, over many scales and in the frame
    rng = np.random.default_rng(4)
    for _ in range(2000):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-8, 8)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-8, 8)
        np.testing.assert_array_equal(_cross(a, b), np.cross(a, b))
    for n in np.concatenate([sample_directions(rng, 500), np.eye(3)]):
        for got, want in zip(_orthonormal_frame(3 * n), np_cross_frame(3 * n)):
            np.testing.assert_array_equal(got, want)


def spherical_jn(l_max, x):
    """j_0 .. j_l_max at each x >= 0 of a 1-D array, shape
    (l_max + 1, len(x)).

    Miller's downward recurrence, started for each x at
    x + 12 x^(1/3) + 30, where j_l(x) is negligible (Debye's
    asymptotics), and normalised by sum_l (2l + 1) j_l^2 = 1, which
    holds at every x (j_0 alone vanishes at x = n pi). The sign comes
    from j_0 and j_1, which never vanish together.
    """
    # j_l(1e-100) is j_l(0) to double precision, and the recurrence
    # needs x > 0
    x = np.maximum(np.asarray(x, dtype=float), 1e-100)
    start = (x + 12 * np.cbrt(x)).astype(int) + 30
    j = np.zeros((max(l_max, start.max(initial=0)) + 2, len(x)))
    j[start, np.arange(len(x))] = 1.0
    for l in range(len(j) - 2, 0, -1):
        # adds onto the 1 placed at each start, and onto zeros elsewhere
        j[l - 1] += (2 * l + 1) / x * j[l] - j[l + 1]
        big = np.abs(j[l - 1]) > 1e100
        if big.any():                   # rescale before it overflows
            j[l - 1:, big] /= np.abs(j[l - 1, big])
    ell = np.arange(len(j))[:, None]
    norm = np.sqrt(np.sum((2 * ell + 1) * j ** 2, axis=0))
    j0, j1 = np.sin(x) / x, np.sin(x) / x ** 2 - np.cos(x) / x
    sign = np.sign(j[0] * j0 + j[1] * j1)
    return j[:l_max + 1] * (sign / norm)


def legendre(l_max, x):
    """P_0 .. P_l_max at x by the upward recurrence, shape
    (l_max + 1,) + x.shape, and their derivatives by
    P'_{l+1} = P'_{l-1} + (2l + 1) P_l."""
    x = np.asarray(x, dtype=float)
    p, dp = np.ones((l_max + 1,) + x.shape), np.zeros((l_max + 1,) + x.shape)
    if l_max:
        p[1], dp[1] = x, 1.0
    for l in range(1, l_max):
        p[l + 1] = ((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1)
        dp[l + 1] = dp[l - 1] + (2 * l + 1) * p[l]
    return p, dp


PAIR_BLOCK = 4096       # bounds the (l, pairs) arrays of funk_hecke_integrals


def funk_hecke_integrals(positions, q_offset, k4, axis, cap):
    """Integrals of (1/N) |sum_j exp(i q . r_j)|^2, q = k4 n_hat -
    q_offset, over the whole sphere and over the cap of `cap` rad about
    `axis`, summed over atom pairs: the slow reference for the package's
    cap quadrature.

    P = 1 + (2/N) sum_{j<k} Re exp(i q . d), d = r_j - r_k. Expand
    exp(i k4 n_hat . d) in Legendre terms (Rayleigh),
    sum_l (2l + 1) i^l j_l(k4 d) P_l(n_hat . d_hat); over the cap each
    term integrates (Funk-Hecke) to
    2 pi i^l j_l P_l(axis . d_hat) (2l + 1) int_c^1 P_l, c = cos(cap),
    and over the sphere the sum is 4 pi j_0(k4 d). The weight
    (2l + 1) int_c^1 P_l = P_{l-1}(c) - P_{l+1}(c) is written as
    2 sin^2(cap / 2) for l = 0 and (2l + 1) sin^2(cap) P_l'(c) / (l (l + 1))
    above, which keeps its digits for caps near 0 or pi.
    """
    n = len(positions)
    i, k = np.triu_indices(n, 1)
    sphere, cap_cross = 0.0, 0.0
    for s in range(0, len(i), PAIR_BLOCK):
        d = positions[i[s:s + PAIR_BLOCK]] - positions[k[s:s + PAIR_BLOCK]]
        dist = np.sqrt(np.sum(d * d, axis=1))
        x = k4 * dist
        # Debye's asymptotics put j_l(x) below 1e-16 past x + 12 x^(1/3)
        l_max = int(np.max(x) + 12 * np.cbrt(np.max(x))) + 10
        ell = np.arange(1, l_max + 1)
        weight = np.r_[2 * np.sin(cap / 2) ** 2,
                       (2 * ell + 1) * np.sin(cap) ** 2
                       * legendre(l_max, np.cos(cap))[1][1:]
                       / (ell * (ell + 1))]
        coef = np.array([1, 1j, -1, -1j])[np.arange(l_max + 1) % 4] * weight
        jl = spherical_jn(l_max, x)
        cap_sum = np.einsum("l,lp->p", coef, jl * legendre(
            l_max, (d @ axis) / np.maximum(dist, 1e-300))[0])
        phase = np.exp(-1j * (d @ q_offset))
        sphere += np.sum((phase * jl[0]).real)
        cap_cross += np.sum((phase * cap_sum).real)
    return (4 * np.pi * (1 + 2 / n * sphere),
            2 * np.pi * (2 * np.sin(cap / 2) ** 2 + 2 / n * cap_cross))


def funk_hecke_background(positions, q_offset, k4, peak_dir, cap):
    """The mean outside the cap by funk_hecke_integrals: the sphere less
    the cap, or, past pi / 2, the cap of pi - cap about -peak_dir, so
    that no subtraction loses digits."""
    area = 4 * np.pi * np.cos(cap / 2) ** 2     # 2 pi (1 + cos cap)
    if cap > np.pi / 2:
        return funk_hecke_integrals(positions, q_offset, k4, -peak_dir,
                                    np.pi - cap)[1] / area
    sphere, cap_integral = funk_hecke_integrals(positions, q_offset, k4,
                                                peak_dir, cap)
    return (sphere - cap_integral) / area


class TestCapBackground:
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_matches_funk_hecke(self, tilt):
        # the bundled geometry: D = 5 um, and a cap of 3 FWHM of the
        # uniform ball's 1.156 lambda / D lobe
        geo = geometry_for(tilt)
        peak = expected_peak_direction(geo)[0]
        cap = 3 * 1.156 * LAMBDA4 / 5e-6
        for N in (10, 50, 500):
            positions = sample_cloud(N, 5e-6, seed=N).positions
            args = (positions, geo.matching_vector, geo.k4_magnitude, peak,
                    cap)
            assert _cap_background(*args) == pytest.approx(
                funk_hecke_background(*args), rel=1e-12, abs=0)

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_node_counts_over_caps_and_extents(self, tilt):
        # caps on both sides of pi / 2, where the integrated region
        # switches, up to a hair below pi, and clouds 1 to 26 lambda wide
        geo = geometry_for(tilt)
        peak = expected_peak_direction(geo)[0]
        for D in (0.9e-6, 5e-6, 20e-6):
            positions = sample_cloud(20, D, seed=3).positions
            for cap in (0.05, 0.56, 1.5, np.pi / 2, 1.65, 3.0, np.pi - 1e-3):
                args = (positions, geo.matching_vector, geo.k4_magnitude,
                        peak, cap)
                assert _cap_background(*args) == pytest.approx(
                    funk_hecke_background(*args), rel=1e-12, abs=0), (D, cap)

    def test_widest_admitted_cap_matches_funk_hecke(self):
        # the cloud of test_cli's widest-cap emission example: its lobe
        # puts 3 FWHM within 3e-4 rad of pi, the widest the gate admits
        cloud = sample_cloud(8, 0.968e-6, trial_seed(12345, 8, 0))
        geo = EmissionGeometry.tilted(0.0, LAMBDA4)
        metrics = pattern_metrics(single_photon_pattern(cloud, geo, 61))
        cap = 3 * metrics.fwhm
        assert np.pi - 3e-4 < cap < np.pi
        assert metrics.mean_background == pytest.approx(
            funk_hecke_background(cloud.positions, geo.matching_vector,
                                  geo.k4_magnitude, metrics.peak_direction,
                                  cap), rel=1e-12, abs=0)


class TestSphericalBessel:
    def test_matches_scipy(self):
        # scipy only as the reference for the reference
        from scipy.special import spherical_jn as scipy_jn
        x = np.concatenate([np.linspace(0.0, 50.0, 2001),
                            np.pi * np.arange(1, 16), [1e-300, 1e-9]])
        ell = np.arange(81)[:, None]
        np.testing.assert_allclose(spherical_jn(80, x),
                                   scipy_jn(ell, x[None, :]),
                                   rtol=0, atol=1e-13)


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
        assert jittered_pattern(base, 0.0) is base

    def test_determinism(self):
        cloud = sample_cloud(20, 5e-6, seed=12)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        a, b = (jittered_pattern(single_photon_pattern(cloud, geo, 31), 0.1e-6)
                for _ in range(2))
        np.testing.assert_array_equal(a.values, b.values)

    def test_closed_form_at_every_grid_point(self):
        # the damped mirror-pair grid against the damped direct sum, at
        # the bound the phase-sum grid meets (absolute near nulls)
        cloud = sample_cloud(20, 5e-6, seed=15)
        sigma = 0.1e-6
        for tilt in (0.0, 0.3):
            geo = geometry_for(tilt)
            jp = jittered_pattern(single_photon_pattern(cloud, geo, 41), sigma)
            dirs = grid_directions(jp)
            q = geo.k4_magnitude * dirs - geo.matching_vector
            direct = _pattern_values(cloud.positions, geo.matching_vector,
                                     geo.k4_magnitude, dirs)
            expected = 1 + np.exp(-np.sum(q ** 2, axis=-1) * sigma ** 2) * (
                direct - 1)
            np.testing.assert_allclose(jp.values, expected, rtol=1e-12,
                                       atol=1e-12)
            assert jp.evaluator is None and jp.positions is None

    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    def test_monte_carlo_converges_to_closed_form(self, tilt):
        cloud = sample_cloud(20, 5e-6, seed=16)
        geo = geometry_for(tilt)
        jp = jittered_pattern(single_photon_pattern(cloud, geo, 31), 0.1e-6)
        mean, stderr = monte_carlo_jitter(cloud, geo, 0.1e-6, 400, seed=5,
                                          n_theta=31)
        assert np.all(np.abs(jp.values - mean) <= 5 * stderr + 1e-9)

    def test_debye_waller_suppression(self):
        cloud = sample_cloud(50, 5e-6, seed=13)
        geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
        base = single_photon_pattern(cloud, geo, n_theta=41)
        sigma = 2e-6
        jp = jittered_pattern(base, sigma)
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
            jittered_pattern(single_photon_pattern(cloud, geo, 5), -1e-9)
