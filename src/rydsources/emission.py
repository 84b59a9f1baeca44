"""Phased-array single-photon far-field emission patterns.

The collective emission probability in direction k4-hat is
P = (1/N) |sum_j exp(i (k4 - k1 - k2 + k3) . r_j)|^2, normalized so the
phase-matched value is N and the random-phase background averages to 1.
The doubly excited channel carries the phase k4 - 2(k1 + k2) + k3 and is
not phase matched at the single-photon peak for tilted geometries.
"""

import warnings
from dataclasses import dataclass, replace
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

    A phase-sum pattern (1/N) |sum_j exp(i (k4 n_hat - q_offset) . r_j)|^2
    carries its `evaluator`, which maps an array of unit directions
    (..., 3) to pattern values, so metrics can refine cuts beyond the
    export resolution, and its `positions`, `q_offset` and `k4`, from
    which `pattern_metrics` integrates the background exactly. The
    jittered mean carries none of the four.
    """

    theta: np.ndarray                   # (nt,)
    phi_az: np.ndarray                  # (np,)
    values: np.ndarray                  # (nt, np)
    n_atoms: int
    evaluator: object = None
    positions: np.ndarray = None        # (N, 3) m
    q_offset: np.ndarray = None         # (3,) rad/m
    k4: float = None                    # rad/m

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
    mean_background: float              # exact solid-angle mean > 3 FWHM out
    peak_to_background: float

    @property
    def fwhm(self):
        return float(np.mean(self.fwhm_cuts))


def _dir_from_angles(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


_DIRECTION_BLOCK = 2048     # bounds the (block, N) phase temporaries


def _pattern_values(positions, q_offset, k4, directions):
    """(1/N) |sum_j exp(i q . r_j)|^2 with q = k4 * n_hat - q_offset,
    as (sum cos)^2 + (sum sin)^2 over blocks of directions: the exact
    evaluator behind the metrics' peak, FWHM cuts and background."""
    dirs = np.asarray(directions, dtype=float)
    flat = dirs.reshape(-1, 3)
    vals = np.empty(len(flat))
    for s in range(0, len(flat), _DIRECTION_BLOCK):
        phases = (k4 * flat[s:s + _DIRECTION_BLOCK] - q_offset) @ positions.T
        vals[s:s + _DIRECTION_BLOCK] = (np.cos(phases).sum(axis=1) ** 2
                                        + np.sin(phases).sum(axis=1) ** 2)
    return vals.reshape(dirs.shape[:-1]) / positions.shape[0]


def _grid_values(positions, q_offset, k4, theta, phi):
    """_pattern_values on the theta x phi grid (phi: an even count over
    [0, 2 pi)), with one cos and one sin per four directions.

    q . r = A + B with A = k4 sin(theta) (x cos(phi) + y sin(phi)) and
    B = k4 cos(theta) z - q_offset . r. phi + pi flips the sign of A and
    pi - theta keeps A, so c + i s = exp(i A), taken for theta <= pi/2
    and phi < pi, serves four grid points. u + i v = exp(i B) is taken
    once per row, and sum exp(i (+-A + B)) = (c.u -+ s.v) + i (c.v +- s.u).
    """
    n_theta, n_half = len(theta), len(phi) // 2
    x, y, z = positions.T
    transverse = k4 * (np.cos(phi[:n_half, None]) * x
                       + np.sin(phi[:n_half, None]) * y)
    b = k4 * np.cos(theta)[:, None] * z - positions @ q_offset
    u, v = np.cos(b), np.sin(b)
    values = np.empty((n_theta, 2 * n_half))
    upper = (n_theta + 1) // 2
    rows = max(1, _DIRECTION_BLOCK // n_half)
    for start in range(0, upper, rows):
        i = np.arange(start, min(start + rows, upper))
        mirror = n_theta - 1 - i
        a = np.sin(theta[i])[:, None, None] * transverse
        uv = np.stack([u[i], u[mirror], v[i], v[mirror]], axis=-1)
        c, s = np.cos(a) @ uv, np.sin(a, out=a) @ uv
        # the last axis of each: row i, then its mirror row
        cu, cv, su, sv = c[..., :2], c[..., 2:], s[..., :2], s[..., 2:]
        plus = (cu - sv) ** 2 + (cv + su) ** 2      # phi < pi
        minus = (cu + sv) ** 2 + (cv - su) ** 2     # phi + pi
        for k, row in enumerate((i, mirror)):
            values[row, :n_half] = plus[..., k]
            values[row, n_half:] = minus[..., k]
    return values / len(positions)


def _phase_sum_pattern(positions, q_offset, k4, n_theta):
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2 * np.pi, 2 * n_theta, endpoint=False)
    return AngularPattern(
        theta=theta, phi_az=phi,
        values=_grid_values(positions, q_offset, k4, theta, phi),
        n_atoms=len(positions),
        evaluator=partial(_pattern_values, positions, q_offset, k4),
        positions=positions, q_offset=q_offset, k4=k4)


def single_photon_pattern(cloud, geometry, n_theta=181):
    """Far-field single-photon pattern on an (n_theta x 2 n_theta) grid."""
    return _phase_sum_pattern(cloud.positions, geometry.matching_vector,
                              geometry.k4_magnitude, n_theta)


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
    return _phase_sum_pattern(cloud.positions, _double_offset(geometry),
                              geometry.k4_magnitude, n_theta)


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
    e1 = _cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(n, e1)
    return n, e1, e2


def _cross(a, b):
    """np.cross of two 3-vectors, in its order of operations, without
    its broadcasting overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


def _fwhm_cuts(evaluator, n, e1, e2, half_level, step, max_angle=1.5):
    """Lobe widths at `half_level` along the great circles from the peak
    `n` toward e1 and e2. The innermost crossing on each side is
    bracketed by a walk out from the peak in steps of `step`, then
    bisected on the evaluator."""
    rays = np.array([e1, -e1, e2, -e2])

    def along(alpha):                   # (4, k) angles -> (4, k, 3)
        return (np.cos(alpha)[..., None] * n
                + np.sin(alpha)[..., None] * rays[:, None, :])

    walk = step * np.arange(1, int(max_angle / step) + 1)
    below = evaluator(along(np.tile(walk, (4, 1)))) < half_level
    if not below.any(axis=1).all():
        raise GridResolutionError("no half-max crossing within %.2f rad of "
                                  "the peak" % max_angle)
    first = below.argmax(axis=1)
    lo, hi = step * first, step * (first + 1)
    for _ in range(40):                 # brackets step / 2^40 wide
        mid = (lo + hi) / 2
        low = evaluator(along(mid[:, None]))[:, 0] < half_level
        lo, hi = np.where(low, lo, mid), np.where(low, mid, hi)
    cross = (lo + hi) / 2
    return float(cross[0] + cross[1]), float(cross[2] + cross[3])


def _debye_order(x):
    """Order past which j_l(x) and J_l(x) are below 1e-16 (Debye's
    asymptotics)."""
    return int(x + 12 * np.cbrt(x)) + 10


def _sphere_integral(positions, q_offset, k4):
    """Integral of (1/N) |sum_j exp(i q . r_j)|^2 over all directions,
    (4 pi / N) sum_{j,k} cos(q_offset . d) j_0(k4 d) with d = r_j - r_k.
    Rows of pairs go in blocks, elementwise."""
    n = len(positions)
    rows = max(1, _DIRECTION_BLOCK // n)
    total = 0.0
    for s in range(0, n, rows):
        dx, dy, dz = (c[s:s + rows, None] - c for c in positions.T)
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        phase = q_offset[0] * dx + q_offset[1] * dy + q_offset[2] * dz
        total += np.sum(np.cos(phase) * np.sinc(k4 / np.pi * dist))
    return 4 * np.pi / n * total


def _cap_integral(positions, q_offset, k4, axis, cap):
    """Integral of (1/N) |sum_j exp(i q . r_j)|^2 over directions within
    `cap` <= pi / 2 rad of `axis`: Gauss-Legendre in u = cos(alpha), alpha the
    angle from the axis, times the trapezoid rule in azimuth, on the
    exact `_pattern_values`.

    Each pair adds exp(i k4 n_hat . d), k4 |d| <= x for the cloud's
    extent. On the circle at alpha its azimuthal modes are
    J_m(<= x sin alpha): a trapezoid rule past their Debye order is exact
    to rounding. Their mean, mapped from [cos cap, 1] onto t in [-1, 1],
    swings no faster than exp(i x sin(cap / 2) t) (near the axis it goes
    as J_0(k4 |d| alpha), alpha^2 ~ 2 (1 - u)), and Gauss-Legendre of
    degree past the Debye order of that integrates it to rounding.
    """
    x = 2 * k4 * np.max(np.linalg.norm(positions - positions.mean(axis=0),
                                       axis=1))
    half = np.sin(cap / 2) ** 2             # (1 - cos cap) / 2
    t, w = np.polynomial.legendre.leggauss(
        _debye_order(x * np.sin(cap / 2)) // 2 + 1)
    below = half * (1 - t)                  # 1 - u, kept to full precision
    n_az = _debye_order(x * np.sin(cap)) + 1
    beta = 2 * np.pi / n_az * np.arange(n_az)
    m, e1, e2 = _orthonormal_frame(axis)
    ring = np.cos(beta)[:, None] * e1 + np.sin(beta)[:, None] * e2
    dirs = ((1 - below)[:, None, None] * m
            + np.sqrt(below * (2 - below))[:, None, None] * ring)
    rings = _pattern_values(positions, q_offset, k4, dirs).sum(axis=1)
    return half * 2 * np.pi / n_az * np.sum(w * rings)


def _cap_background(positions, q_offset, k4, peak_dir, cap):
    """Exact solid-angle mean of (1/N) |sum_j exp(i q . r_j)|^2,
    q = k4 n_hat - q_offset, over directions more than `cap` rad from
    `peak_dir`, an area of 2 pi (1 + cos cap). The smaller region is
    integrated: the whole sphere less the cap, or, past pi / 2, the
    background itself as the cap of pi - cap about -peak_dir."""
    area = 4 * np.pi * np.cos(cap / 2) ** 2  # 2 pi (1 + cos cap), all digits
    if cap > np.pi / 2:
        return _cap_integral(positions, q_offset, k4, -peak_dir,
                             np.pi - cap) / area
    return (_sphere_integral(positions, q_offset, k4)
            - _cap_integral(positions, q_offset, k4, peak_dir, cap)) / area


def pattern_metrics(pattern, grid_spacing=None):
    """Peak direction/value, FWHM on two principal cuts, background.

    `grid_spacing` is the export grid's spacing (the pattern's own by
    default); the pattern's grid may be coarser and only seeds the peak.
    The peak is refined from the grid argmax with the pattern's exact
    evaluator on shrinking tangent grids; a coarser seed takes one wider
    step first, so every refinement ends at the same step. Each FWHM cut
    bisects its half-max crossings on the evaluator (`_fwhm_cuts`). The
    background is the solid-angle mean more than 3 FWHM from the peak,
    from a closed-form sphere integral and a cap quadrature exact to
    rounding (`_cap_background`), so a pattern with no phase sum (the
    jittered mean) is rejected. Errors out if `grid_spacing` gives fewer
    than 8 points across the measured FWHM, or if the lobe is so wide
    (3 FWHM >= pi) that no background direction is left.
    """
    if pattern.positions is None:
        raise ValueError("pattern carries no phase-sum closed form")
    if grid_spacing is None:
        grid_spacing = pattern.grid_spacing
    n, e1, e2 = _orthonormal_frame(pattern.argmax_direction())
    spans = [2 * grid_spacing / 3.0 ** i for i in range(8)]
    if pattern.grid_spacing > grid_spacing:
        spans.insert(0, 2 * pattern.grid_spacing)
    for span in spans:
        a = np.linspace(-span, span, 9)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        dirs = (n[None, None, :] + aa[..., None] * e1[None, None, :]
                + bb[..., None] * e2[None, None, :])
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        vals = pattern.evaluator(dirs)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        n, e1, e2 = _orthonormal_frame(dirs[i, j])
    peak_value = float(pattern.evaluator(n[None, :])[0])
    # at half the export spacing, any lobe that passes the gate below is
    # >= 16 walk steps wide
    fwhm_cuts = _fwhm_cuts(pattern.evaluator, n, e1, e2, peak_value / 2,
                           grid_spacing / 2)
    fwhm = float(np.mean(fwhm_cuts))
    if grid_spacing > fwhm / 8:
        raise GridResolutionError(
            "grid spacing %.4f rad does not resolve the %.4f rad lobe "
            "(need >= 8 points across); refine the grid"
            % (grid_spacing, fwhm))
    if 3 * fwhm >= np.pi:
        raise GridResolutionError(
            "the %.4f rad lobe is too wide for a background: no direction "
            "lies more than 3 FWHM from the peak" % fwhm)
    bg = float(_cap_background(pattern.positions, pattern.q_offset,
                               pattern.k4, n, 3 * fwhm))
    return PatternMetrics(peak_direction=n, peak_value=peak_value,
                          fwhm_cuts=fwhm_cuts, mean_background=bg,
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


def jittered_pattern(pattern, sigma):
    """Exact mean pattern under Gaussian jitter of sigma per axis: the
    Debye-Waller factor exp(-|q|^2 sigma^2) damps the cross terms of
    P(q) and not its unit self term, so <P> = 1 + exp(...) (P(q) - 1)
    on the grid of `pattern`, a `single_photon_pattern`, with q from its
    own k4 and q_offset. For sigma > 0 the mean has no phase-sum closed
    form: it carries no evaluator, positions, q_offset or k4, and
    `pattern_metrics` rejects it."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return pattern
    q = (pattern.k4 * _dir_from_angles(*np.meshgrid(
        pattern.theta, pattern.phi_az, indexing="ij")) - pattern.q_offset)
    damping = np.exp(-np.sum(q ** 2, axis=-1) * sigma ** 2)
    return replace(pattern, values=1 + damping * (pattern.values - 1),
                   evaluator=None, positions=None, q_offset=None, k4=None)
