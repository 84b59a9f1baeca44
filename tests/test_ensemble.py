import numpy as np
import pytest

from rydsources import ensemble
from rydsources.ensemble import (AtomCloud, RydbergCoupling, SamplingError,
                                 mean_blockade_shift, pair_shift,
                                 pair_shift_magnitudes, sample_ball,
                                 sample_cloud, sample_directions,
                                 MIN_PAIR_SEPARATION)

TWO_PI = 2 * np.pi
N50 = RydbergCoupling.calibrated(50)


def loop_sample_ball(rng, N, radius, min_separation=0.0):
    """Reference: the one-candidate-at-a-time rejection loop that
    sample_ball batches."""
    accepted = np.empty((N, 3))
    count = attempts = 0
    while count < N:
        attempts += 1
        if attempts > ensemble._MAX_SAMPLING_ATTEMPTS:
            raise SamplingError("too many attempts")
        p = rng.uniform(-radius, radius, size=3)
        if p @ p > radius * radius:
            continue
        if count and min_separation > 0:
            d2 = np.sum((accepted[:count] - p) ** 2, axis=1)
            if np.min(d2) < min_separation ** 2:
                continue
        accepted[count] = p
        count += 1
    return accepted


class Replay:
    """Generator stand-in that hands out fixed candidates in order."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def uniform(self, low, high, size):
        n = int(np.prod(size)) // 3
        out, self.points = self.points[:n], self.points[n:]
        return out.reshape(size)


def assert_matches_loop(N, radius, min_separation, seeds):
    """Same points as the loop, and the same generator state after."""
    for seed in seeds:
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = sample_ball(rngs[0], N, radius, min_separation)
        want = loop_sample_ball(rngs[1], N, radius, min_separation)
        assert np.array_equal(got, want)
        assert rngs[0].normal() == rngs[1].normal()


class TestSampling:
    def test_single_point_in_ball(self):
        cloud = sample_cloud(1, 5e-6, seed=42)
        assert cloud.n_atoms == 1
        assert np.linalg.norm(cloud.positions[0]) <= 2.5e-6

    def test_invariants_large_cloud(self):
        cloud = sample_cloud(500, 5e-6, seed=7)
        r = np.linalg.norm(cloud.positions, axis=1)
        assert np.all(r <= 2.5e-6)
        mags = pair_shift_magnitudes(cloud, N50)
        # min separation 10 nm <=> max |Delta| bounded
        assert mags.max() <= abs(N50.shift_at(MIN_PAIR_SEPARATION)) * (1 + 1e-9)

    def test_seed_determinism(self):
        a = sample_cloud(100, 5e-6, seed=3)
        b = sample_cloud(100, 5e-6, seed=3)
        assert np.array_equal(a.positions, b.positions)
        c = sample_cloud(100, 5e-6, seed=4)
        assert not np.array_equal(a.positions, c.positions)

    def test_mean_position_statistics(self):
        # empirical mean -> 0 within 3 sigma of the uniform-ball spread
        cloud = sample_cloud(5000, 5e-6, seed=11)
        radius = 2.5e-6
        sigma = radius * np.sqrt(1 / 5) / np.sqrt(5000)   # per component
        assert np.all(np.abs(cloud.positions.mean(axis=0)) < 3 * sigma)

    def test_overcrowded_sphere_errors(self):
        with pytest.raises(SamplingError):
            sample_cloud(50, 40e-9, seed=0)

    @pytest.mark.parametrize("min_separation", [0.0, 10e-9, 0.3e-6])
    @pytest.mark.parametrize("N", [1, 2, 5, 50, 500])
    def test_batched_matches_loop(self, N, min_separation):
        assert_matches_loop(N, 2.5e-6, min_separation, seeds=range(4))

    def test_batched_matches_loop_with_rejections_in_a_round(self):
        # 0.3 um at N = 200 in a 5 um ball: the first round's candidates
        # clash with each other, so the in-round resolution runs
        from scipy.spatial.distance import pdist
        for seed in range(3):
            first = np.random.default_rng(seed).uniform(-2.5e-6, 2.5e-6,
                                                        size=(200, 3))
            first = first[np.linalg.norm(first, axis=1) <= 2.5e-6]
            assert np.min(pdist(first)) < 0.3e-6
        assert_matches_loop(200, 2.5e-6, 0.3e-6, seeds=range(3))

    def test_ball_test_rounds_as_the_loop(self):
        # with OpenBLAS, p @ p rounds this |p|^2 to at most radius^2, a
        # plain sum of squares to just above it
        p = [0.9616706775524602, 0.3710839689613894, 0.3009185525356326]
        radius = 1.0738090050583882
        candidates = [p, [0.0, 0.0, 0.0]]
        assert np.array_equal(sample_ball(Replay(candidates), 1, radius),
                              loop_sample_ball(Replay(candidates), 1, radius))

    def test_blocked_distances_match_loop(self, monkeypatch):
        # blocks smaller than a round exercise every block boundary
        monkeypatch.setattr(ensemble, "_BLOCK", 7)
        assert_matches_loop(60, 1e-6, 0.3e-6, seeds=range(3))

    def test_attempt_cap_matches_loop(self, monkeypatch):
        # both give up after exactly the same number of candidates
        monkeypatch.setattr(ensemble, "_MAX_SAMPLING_ATTEMPTS", 500)
        rngs = [np.random.default_rng(3) for _ in range(2)]
        with pytest.raises(SamplingError):
            sample_ball(rngs[0], 50, 20e-9, 10e-9)
        with pytest.raises(SamplingError):
            loop_sample_ball(rngs[1], 50, 20e-9, 10e-9)
        assert (rngs[0].bit_generator.state
                == rngs[1].bit_generator.state)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_cloud(0, 5e-6, seed=0)
        with pytest.raises(ValueError):
            sample_cloud(5, -1e-6, seed=0)

    def test_cloud_rejects_outside_points(self):
        with pytest.raises(ValueError):
            AtomCloud(positions=[[3e-6, 0, 0]], diameter=5e-6, master_seed=0)


class TestSampleDirections:
    def test_unit_norm_and_zero_mean(self):
        n = 20000
        dirs = sample_directions(np.random.default_rng(21), n)
        assert dirs.shape == (n, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        # each component of a uniform unit vector has variance 1/3
        sigma = np.sqrt(1 / 3) / np.sqrt(n)
        assert np.all(np.abs(dirs.mean(axis=0)) < 3 * sigma)


class TestPairShift:
    def test_calibration_anchor_100mhz(self):
        r1, r2 = np.zeros(3), np.array([5e-6, 0, 0])
        shift = pair_shift(N50, r1, r2)
        assert shift < 0
        assert abs(shift) / TWO_PI == pytest.approx(100e6, rel=1e-10)

    def test_inverse_cube_law(self):
        r1 = np.zeros(3)
        shift = pair_shift(N50, r1, [2.5e-6, 0, 0])
        assert abs(shift) / TWO_PI == pytest.approx(800e6, rel=1e-10)
        # |shift| * r^3 constant across separations
        ref = abs(pair_shift(N50, r1, [1e-6, 0, 0])) * 1e-6 ** 3
        for sep in (0.3e-6, 2e-6, 7e-6, 50e-6):
            val = abs(pair_shift(N50, r1, [sep, 0, 0])) * sep ** 3
            assert val == pytest.approx(ref, rel=1e-12)

    def test_f_coefficient_magnitude(self):
        # one-line calibration: f(50) = hbar*2pi*1e8*(5um)^3/(e^2 a0^2/4 pi eps0)
        assert N50.f_of_n == pytest.approx(1.28e7, rel=0.02)

    def test_n6_scaling(self):
        base = abs(N50.shift_at(3e-6))
        for n in range(30, 81, 10):
            c = RydbergCoupling(principal_n=n,
                                f_coefficient=N50.f_coefficient,
                                calibration_anchor=None)
            assert abs(c.shift_at(3e-6)) == pytest.approx(
                base * (n / 50) ** 6, rel=1e-12)

    def test_zero_separation_errors(self):
        with pytest.raises(ValueError):
            pair_shift(N50, [1e-6, 0, 0], [1e-6, 0, 0])

    def test_bad_calibration_anchor_rejected(self):
        with pytest.raises(ValueError):
            RydbergCoupling(principal_n=50, f_coefficient=1.0,
                            calibration_anchor=(5e-6, TWO_PI * 100e6))


class TestMeanBlockadeShift:
    def test_two_atoms_single_pair(self):
        cloud = AtomCloud(positions=[[0, 0, 0], [2e-6, 0, 0]],
                          diameter=5e-6, master_seed=0)
        expected = abs(pair_shift(N50, cloud.positions[0],
                                  cloud.positions[1]))
        assert mean_blockade_shift(cloud, N50) == pytest.approx(expected)

    def test_equilateral_triangle(self):
        a = 2e-6
        pos = np.array([[0, 0, 0], [a, 0, 0],
                        [a / 2, a * np.sqrt(3) / 2, 0]])
        pos -= pos.mean(axis=0)
        cloud = AtomCloud(positions=pos, diameter=5e-6, master_seed=0)
        expected = abs(N50.shift_at(a))
        assert mean_blockade_shift(cloud, N50) == pytest.approx(expected)

    def test_hand_evaluated_harmonic_mean(self):
        # pair shifts 2pi*(100, 200, 400) MHz -> 3/(1/100+1/200+1/400)
        # = 2pi*171.43 MHz; triangle with separations 5, 5/2^(1/3),
        # 5/4^(1/3) um realizes those shifts
        s_ab = 5e-6
        s_ac = 5e-6 / 2 ** (1 / 3)
        s_bc = 5e-6 / 4 ** (1 / 3)
        x_c = (s_ab ** 2 + s_ac ** 2 - s_bc ** 2) / (2 * s_ab)
        y_c = np.sqrt(s_ac ** 2 - x_c ** 2)
        pos = np.array([[0, 0, 0], [s_ab, 0, 0], [x_c, y_c, 0]])
        pos -= pos.mean(axis=0)
        cloud = AtomCloud(positions=pos, diameter=12e-6, master_seed=0)
        mags = np.sort(pair_shift_magnitudes(cloud, N50))
        np.testing.assert_allclose(mags / TWO_PI, [100e6, 200e6, 400e6],
                                   rtol=1e-9)
        hm = mean_blockade_shift(cloud, N50)
        assert hm / TWO_PI == pytest.approx(1200e6 / 7, rel=1e-9)

    def test_bounded_by_extreme_pairs(self):
        cloud = sample_cloud(20, 5e-6, seed=5)
        mags = pair_shift_magnitudes(cloud, N50)
        hm = mean_blockade_shift(cloud, N50)
        assert mags.min() <= hm <= mags.max()

    def test_requires_two_atoms(self):
        cloud = sample_cloud(1, 5e-6, seed=0)
        with pytest.raises(ValueError):
            mean_blockade_shift(cloud, N50)
