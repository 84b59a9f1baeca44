"""Atom cloud sampling and pairwise Rydberg dipole-dipole shifts.

Pair shifts follow the parallel-aligned dipole form
Delta_jk = -f(n) e^2 a0^2 / (4 pi eps0 hbar |r_j - r_k|^3)  [rad/s]
with f(n) = f_coefficient * n^6 calibrated from a single anchor point
(by default n = 50 and 5 um separation giving |Delta|/2pi = 100 MHz).
The ensemble blockade scale is the harmonic mean of |Delta_jk| over all
pairs. Pairs j < k are always in `pdist` order, which is the order of
`np.triu_indices(N, 1)`. Uniform unit directions are also sampled here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar, epsilon_0, e as _e_charge, physical_constants

from .species import AtomicSpecies, RB87

_A0 = physical_constants["Bohr radius"][0]
# e^2 a0^2 / (4 pi eps0), J m^3; multiplies f(n)/r^3
_SHIFT_PREFACTOR = _e_charge ** 2 / (4 * np.pi * epsilon_0) * _A0 ** 2

DEFAULT_ANCHOR_SEPARATION = 5e-6                 # m
DEFAULT_ANCHOR_SHIFT = 2 * np.pi * 100e6         # rad/s (magnitude)
MIN_PAIR_SEPARATION = 10e-9                      # m, sampling floor
_MAX_SAMPLING_ATTEMPTS = 10 ** 6
_BLOCK = 512                                     # points per distance block


class SamplingError(RuntimeError):
    """Cloud sampling could not satisfy the separation constraint."""


@dataclass(frozen=True)
class RydbergCoupling:
    """van der Waals-style pair coupling, f(n) = f_coefficient * n^6."""

    principal_n: int
    f_coefficient: float
    calibration_anchor: tuple = (DEFAULT_ANCHOR_SEPARATION,
                                 DEFAULT_ANCHOR_SHIFT)

    def __post_init__(self):
        if self.principal_n < 1:
            raise ValueError("principal_n must be >= 1")
        if not self.f_coefficient > 0:
            raise ValueError("f_coefficient must be positive")
        if self.calibration_anchor is not None:
            sep, shift = self.calibration_anchor
            got = abs(self.shift_at(sep))
            if abs(got - shift) > 1e-10 * shift:
                raise ValueError(
                    "calibration anchor not reproduced: got %.6e, want %.6e"
                    % (got, shift))

    @property
    def f_of_n(self):
        return self.f_coefficient * self.principal_n ** 6

    def shift_at(self, separation):
        """Signed pair shift (rad/s) at separation(s) (m)."""
        return -self.f_of_n * _SHIFT_PREFACTOR / (hbar * separation ** 3)

    @classmethod
    def calibrated(cls, principal_n, anchor_separation=DEFAULT_ANCHOR_SEPARATION,
                   anchor_shift=DEFAULT_ANCHOR_SHIFT):
        """Fix f_coefficient so |shift| at the anchor separation matches."""
        f_of_n = hbar * anchor_shift * anchor_separation ** 3 / _SHIFT_PREFACTOR
        return cls(principal_n=principal_n,
                   f_coefficient=f_of_n / principal_n ** 6,
                   calibration_anchor=(anchor_separation, anchor_shift))


@dataclass(frozen=True)
class AtomCloud:
    """Sampled positions (N, 3) in a sphere of the stated diameter."""

    positions: np.ndarray
    diameter: float
    master_seed: int
    species: AtomicSpecies = RB87

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must have shape (N >= 1, 3)")
        r = np.linalg.norm(pos, axis=1)
        if np.any(r > self.diameter / 2 * (1 + 1e-12)):
            raise ValueError("positions outside the stated sphere")
        if pos.shape[0] > 1:
            if len(np.unique(pos, axis=0)) != pos.shape[0]:
                raise ValueError("duplicate atom positions")

    @property
    def n_atoms(self):
        return self.positions.shape[0]


def sample_cloud(N, diameter, seed, species=RB87,
                 min_separation=MIN_PAIR_SEPARATION):
    """Sample N atoms i.i.d. uniform in a ball, min pair separation enforced.

    Deterministic for a fixed seed. Points closer than `min_separation`
    to an accepted point are resampled; after 1e6 attempts a
    SamplingError signals that the ball is too small for N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not diameter > 0:
        raise ValueError("diameter must be positive")
    accepted = sample_ball(np.random.default_rng(seed), N, diameter / 2,
                           min_separation)
    return AtomCloud(positions=accepted, diameter=diameter,
                     master_seed=int(seed), species=species)


def sample_ball(rng, N, radius, min_separation=0.0):
    """N points (N, 3) i.i.d. uniform in a ball about the origin, drawn
    by rejection from `rng` as sample_cloud describes.

    A candidate is kept when it lies in the ball and no kept point is
    closer than `min_separation`. Candidates come in rounds of N - count,
    the fewest that one-at-a-time rejection is sure to draw next, so the
    points and the generator state afterwards are those of drawing and
    testing one candidate at a time.
    """
    accepted = np.empty((N, 3))
    sep2 = min_separation ** 2
    count = attempts = 0
    while count < N:
        n = min(N - count, _MAX_SAMPLING_ATTEMPTS - attempts)
        if n == 0:
            raise SamplingError(
                "failed to place %d atoms with %.1e m separation in a "
                "%.1e m sphere after %d attempts"
                % (N, min_separation, 2 * radius, _MAX_SAMPLING_ATTEMPTS))
        attempts += n
        c = rng.uniform(-radius, radius, size=(n, 3))
        # row-wise matmul rounds |p|^2 as p @ p does, bit for bit
        c = c[np.matmul(c[:, None, :], c[:, :, None])[:, 0, 0]
              <= radius * radius]
        if min_separation > 0:
            c = c[~_near(c, accepted[:count], sep2)]
            keep = ~_near(c, c, sep2, earlier_only=True)
            # a candidate close to an earlier one of its round is kept
            # only if none of those earlier ones was
            for i in np.flatnonzero(~keep):
                keep[i] = not _near(c[i:i + 1], c[:i][keep[:i]], sep2)[0]
            c = c[keep]
        accepted[count:count + len(c)] = c
        count += len(c)
    return accepted


def _near(points, others, sep2, earlier_only=False):
    """Per row of `points`: does a row of `others` lie within
    sum((a - p)**2) < sep2? With `earlier_only`, `others` is `points`
    and row i sees rows before i only. Distances go block by block, so
    no array grows with both lengths."""
    from scipy.spatial.distance import cdist
    near = np.zeros(len(points), dtype=bool)
    for i in range(0, len(points), _BLOCK):
        stop = i + _BLOCK if earlier_only else len(others)
        for j in range(0, stop, _BLOCK):
            close = cdist(points[i:i + _BLOCK], others[j:j + _BLOCK],
                          "sqeuclidean") < sep2
            if earlier_only and j == i:
                close = np.tril(close, -1)
            near[i:i + _BLOCK] |= close.any(axis=1)
    return near


def sample_directions(rng, n):
    """n unit vectors (n, 3) uniform on the sphere, drawn from `rng`."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    s = np.sqrt(1 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def pair_shift(coupling, r_j, r_k):
    """Signed dipole-dipole shift (rad/s) for one atom pair."""
    r_j = np.asarray(r_j, dtype=float)
    r_k = np.asarray(r_k, dtype=float)
    sep = np.linalg.norm(r_j - r_k)
    if sep == 0:
        raise ValueError("zero separation between atoms")
    return coupling.shift_at(sep)


def pair_shifts(cloud, coupling):
    """Signed Delta_jk (rad/s) for every pair j < k, in `pdist` order."""
    from scipy.spatial.distance import pdist
    seps = pdist(cloud.positions)
    if np.any(seps == 0):
        raise ValueError("zero separation between atoms")
    return coupling.shift_at(seps)


def pair_shift_magnitudes(cloud, coupling):
    """|Delta_jk| (rad/s) for every pair j < k, in `pdist` order."""
    return np.abs(pair_shifts(cloud, coupling))


def mean_blockade_shift(cloud, coupling):
    """Harmonic mean of |Delta_jk| over all pairs (rad/s, positive)."""
    if cloud.n_atoms < 2:
        raise ValueError("mean blockade shift needs at least 2 atoms")
    mags = pair_shift_magnitudes(cloud, coupling)
    return len(mags) / np.sum(1.0 / mags)
