"""Phased-array single-photon far-field emission patterns.

The collective emission probability in direction k4-hat is
P = (1/N) |sum_j exp(i (k4 - k1 - k2 + k3) . r_j)|^2, normalized so the
phase-matched value is N and the random-phase background averages to 1.
The doubly excited channel carries the phase k4 - 2(k1 + k2) + k3 and is
not phase matched at the single-photon peak for tilted geometries.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.constants import k as k_B


class GridResolutionError(ValueError):
    """Angular grid too coarse to resolve the emission lobe."""


@dataclass(frozen=True)
class EmissionGeometry:
    """Excitation wavevectors k1, k2, k3 (rad/m) and emitted wavelength."""

    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    lambda4: float                      # m

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if not self.lambda4 > 0:
            raise ValueError("lambda4 must be positive")

    @property
    def k4_magnitude(self):
        return 2 * np.pi / self.lambda4

    @property
    def matching_vector(self):
        """k1 + k2 - k3, the phase-matched emission wavevector."""
        return self.k1 + self.k2 - self.k3

    @classmethod
    def collinear_degenerate(cls, lambda4=0.78e-6, axis=(0.0, 0.0, 1.0)):
        """All beams along one axis with lambda3 = lambda4 and zero
        mismatch: |k1 + k2 - k3| = 2 pi / lambda4 exactly."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        k = 2 * np.pi / lambda4
        return cls(k1=k * axis, k2=k * axis, k3=k * axis, lambda4=lambda4)

    @classmethod
    def tilted(cls, tilt_angle, lambda4=0.78e-6):
        """Fig.-style geometry: k1, k2 collinear along z with
        |k1 + k2| = |k3| + |k4|, lambda3 = lambda4, and k3 tilted by
        `tilt_angle` (rad) in the x-z plane."""
        k = 2 * np.pi / lambda4
        zhat = np.array([0.0, 0.0, 1.0])
        k3 = k * np.array([np.sin(tilt_angle), 0.0, np.cos(tilt_angle)])
        return cls(k1=k * zhat, k2=k * zhat, k3=k3, lambda4=lambda4)

    @classmethod
    def counterpropagating(cls, lambda4=0.78e-6, k3_direction=(0.0, 0.0, 1.0)):
        """k2 = -k1: the photon leaves in the phase conjugate mode -k3."""
        k = 2 * np.pi / lambda4
        k3dir = np.asarray(k3_direction, dtype=float)
        k3dir = k3dir / np.linalg.norm(k3dir)
        k1 = k * np.array([1.0, 0.0, 0.0])
        return cls(k1=k1, k2=-k1, k3=k * k3dir, lambda4=lambda4)


@dataclass
class AngularPattern:
    """Emission probability on a (theta, phi_az) spherical grid.

    `evaluator` maps an array of unit directions (..., 3) to pattern
    values; it is kept alongside the grid so metrics can refine cuts
    beyond the export resolution.
    """

    theta: np.ndarray                   # (nt,)
    phi_az: np.ndarray                  # (np,)
    values: np.ndarray                  # (nt, np)
    n_atoms: int
    evaluator: object = None

    def argmax_direction(self):
        i, j = np.unravel_index(np.argmax(self.values), self.values.shape)
        return _dir_from_angles(self.theta[i], self.phi_az[j])

    @property
    def grid_spacing(self):
        return float(self.theta[1] - self.theta[0])


@dataclass(frozen=True)
class PatternMetrics:
    peak_direction: np.ndarray
    peak_value: float
    fwhm_cuts: tuple                    # rad, two orthogonal great circles
    mean_background: float              # solid-angle grid mean > 3 FWHM out
    peak_to_background: float

    @property
    def fwhm(self):
        return float(np.mean(self.fwhm_cuts))


def _dir_from_angles(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


def _pattern_values(positions, q_offset, k4, directions):
    """(1/N) |sum_j exp(i q . r_j)|^2 with q = k4 * n_hat - q_offset."""
    dirs = np.asarray(directions, dtype=float)
    flat = dirs.reshape(-1, 3)
    q = k4 * flat - q_offset[None, :]
    phases = q @ positions.T
    vals = np.abs(np.exp(1j * phases).sum(axis=1)) ** 2 / positions.shape[0]
    return vals.reshape(dirs.shape[:-1])


def _make_pattern(evaluator, n_theta, n_atoms):
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2 * np.pi, 2 * n_theta, endpoint=False)
    dirs = _dir_from_angles(*np.meshgrid(theta, phi, indexing="ij"))
    return AngularPattern(theta=theta, phi_az=phi, values=evaluator(dirs),
                          n_atoms=n_atoms, evaluator=evaluator)


def single_photon_pattern(cloud, geometry, n_theta=181):
    """Far-field single-photon pattern on an (n_theta x 2 n_theta) grid."""
    return _make_pattern(partial(_pattern_values, cloud.positions,
                                 geometry.matching_vector,
                                 geometry.k4_magnitude),
                         n_theta, cloud.n_atoms)


def _double_offset(geometry):
    q_offset = 2 * (geometry.k1 + geometry.k2) - geometry.k3
    mismatch = abs(np.linalg.norm(q_offset) - geometry.k4_magnitude)
    if mismatch < 1e-6 * geometry.k4_magnitude:
        warnings.warn("double-excitation channel is phase matched for this "
                      "geometry; its peak reaches N", stacklevel=3)
    return q_offset


def double_excitation_pattern(cloud, geometry, n_theta=181):
    """Background channel from doubly excited states.

    Evaluates the mismatch phase k4 - 2(k1 + k2) + k3 on the grid; warns
    if the geometry pathologically phase-matches this channel.
    """
    return _make_pattern(partial(_pattern_values, cloud.positions,
                                 _double_offset(geometry),
                                 geometry.k4_magnitude),
                         n_theta, cloud.n_atoms)


def double_excitation_at(cloud, geometry, directions):
    """double_excitation_pattern's values at unit directions (..., 3)."""
    return _pattern_values(cloud.positions, _double_offset(geometry),
                           geometry.k4_magnitude, directions)


def expected_peak_direction(geometry):
    """Direction of k1 + k2 - k3 and the longitudinal mismatch.

    A nonzero mismatch | |k1+k2-k3| - 2 pi/lambda4 | means the on-sphere
    peak falls below N.
    """
    K = geometry.matching_vector
    norm = np.linalg.norm(K)
    if norm == 0:
        raise ValueError("k1 + k2 - k3 vanishes; no preferred direction")
    return K / norm, float(abs(norm - geometry.k4_magnitude))


def _orthonormal_frame(direction):
    n = direction / np.linalg.norm(direction)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return n, e1, e2


def _cut_fwhm(evaluator, peak_dir, tangent, half_level, max_angle=1.5,
              n_points=3001):
    """Innermost half-max crossings along one great-circle cut."""
    n, e1 = peak_dir, tangent
    alpha = np.linspace(-max_angle, max_angle, n_points)
    dirs = (np.cos(alpha)[:, None] * n[None, :]
            + np.sin(alpha)[:, None] * e1[None, :])
    vals = evaluator(dirs)
    i0 = n_points // 2
    left = right = None
    for i in range(i0, -1, -1):
        if vals[i] < half_level:
            frac = (half_level - vals[i]) / (vals[i + 1] - vals[i])
            left = alpha[i] + frac * (alpha[i + 1] - alpha[i])
            break
    for i in range(i0, n_points):
        if vals[i] < half_level:
            frac = (half_level - vals[i - 1]) / (vals[i] - vals[i - 1])
            right = alpha[i - 1] + frac * (alpha[i] - alpha[i - 1])
            break
    if left is None or right is None:
        raise GridResolutionError("no half-max crossing within %.2f rad of "
                                  "the peak" % max_angle)
    return right - left


def pattern_metrics(pattern):
    """Peak direction/value, FWHM on two principal cuts, background.

    The peak is refined from the grid argmax with the pattern's exact
    evaluator; FWHM uses interpolated half-max crossings along two
    orthogonal great-circle cuts. Errors out if the export grid has
    fewer than 8 points across the measured FWHM.
    """
    if pattern.evaluator is None:
        raise ValueError("pattern carries no evaluator for refinement")
    peak_dir = pattern.argmax_direction()
    # local refinement of the peak direction on a shrinking tangent grid
    n, e1, e2 = _orthonormal_frame(peak_dir)
    span = 2 * pattern.grid_spacing
    for _ in range(8):
        a = np.linspace(-span, span, 9)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        dirs = (n[None, None, :] + aa[..., None] * e1[None, None, :]
                + bb[..., None] * e2[None, None, :])
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        vals = pattern.evaluator(dirs)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        n = dirs[i, j]
        n, e1, e2 = _orthonormal_frame(n)
        span /= 3.0
    peak_value = float(pattern.evaluator(n[None, :])[0])
    half = peak_value / 2
    fwhm_cuts = (_cut_fwhm(pattern.evaluator, n, e1, half),
                 _cut_fwhm(pattern.evaluator, n, e2, half))
    fwhm = float(np.mean(fwhm_cuts))
    if pattern.grid_spacing > fwhm / 8:
        raise GridResolutionError(
            "grid spacing %.4f rad does not resolve the %.4f rad lobe "
            "(need >= 8 points across); refine the grid"
            % (pattern.grid_spacing, fwhm))
    dirs = _dir_from_angles(*np.meshgrid(pattern.theta, pattern.phi_az,
                                         indexing="ij"))
    weights = np.sin(pattern.theta)[:, None] * (dirs @ n < np.cos(3 * fwhm))
    bg = float(np.sum(weights * pattern.values) / np.sum(weights))
    return PatternMetrics(peak_direction=n, peak_value=peak_value,
                          fwhm_cuts=tuple(float(f) for f in fwhm_cuts),
                          mean_background=bg,
                          peak_to_background=peak_value / bg)


def motional_blur(T, t_prep, species, lambda4=0.78e-6):
    """Thermal position smearing over the preparation sequence.

    Uses the characteristic (1D rms) thermal speed sqrt(kB T / m);
    returns (delta_x in m, delta_x / lambda4).
    """
    if T < 0 or t_prep < 0:
        raise ValueError("T and t_prep must be >= 0")
    v_char = np.sqrt(k_B * T / species.mass)
    dx = v_char * t_prep
    return float(dx), float(dx / lambda4)


def jittered_pattern(cloud, geometry, sigma, n_theta=181):
    """Exact mean pattern under Gaussian jitter of sigma per axis: the
    Debye-Waller factor exp(-|q|^2 sigma^2) damps the cross terms of
    P(q) and not its unit self term, so <P> = 1 + exp(...) (P(q) - 1)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return single_photon_pattern(cloud, geometry, n_theta)
    k4, q_offset = geometry.k4_magnitude, geometry.matching_vector

    def evaluator(directions):
        q = k4 * np.asarray(directions, dtype=float) - q_offset
        coherent = _pattern_values(cloud.positions, q_offset, k4, directions)
        return 1 + np.exp(-np.sum(q ** 2, axis=-1) * sigma ** 2) * (
            coherent - 1)

    return _make_pattern(evaluator, n_theta, cloud.n_atoms)
