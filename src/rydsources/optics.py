"""Gaussian beams, state-dependent dipole potentials, forces, scattering.

The light shift uses the two-level rotating-wave form
U = (hbar Delta / 2) ln(1 + (I/I_sat)/(1 + (2 Delta/Gamma)^2)),
attractive for red detuning and repulsive for blue, with the familiar
far-detuned limit hbar Gamma^2 I / (8 Delta I_sat). Photon scattering is
R = (Gamma/2) s / (1 + s + (2 Delta/Gamma)^2) with s = I/I_sat.
"""

from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar, c as c_light

from .species import AtomicSpecies, RB87


class ResonantLightError(ValueError):
    """Zero detuning: the dipole-potential model does not apply."""


@dataclass(frozen=True)
class GaussianBeam:
    """Focused TEM00 beam; waist is the 1/e^2 intensity radius."""

    power: float                      # W
    waist: float                      # m
    wavelength: float                 # m
    axis: np.ndarray = (0.0, 0.0, 1.0)
    focus_position: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be >= 0")
        if not self.waist > 0:
            raise ValueError("waist must be positive")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("axis must be a nonzero vector")
        object.__setattr__(self, "axis", axis / norm)
        object.__setattr__(self, "focus_position",
                           np.asarray(self.focus_position, dtype=float))
        # focus, axis, w0^2, (w0 / zR)^2 and 2P / pi for _intensity_terms
        object.__setattr__(self, "_kernel", tuple(map(float, (
            *self.focus_position.tolist(), *self.axis.tolist(),
            self.waist ** 2, (self.waist / self.rayleigh_range) ** 2,
            2 * self.power / np.pi))))

    @property
    def rayleigh_range(self):
        return np.pi * self.waist ** 2 / self.wavelength

    @property
    def peak_intensity(self):
        return 2 * self.power / (np.pi * self.waist ** 2)

    @property
    def wavenumber(self):
        return 2 * np.pi / self.wavelength


def _float_exp(u):
    """np.exp of a Python float, back as a Python float: the same bits."""
    return float(np.exp(u))


def _intensity_terms(k, x, y, z, exp=np.exp):
    """I (W/m^2) and grad I (W/m^3), component by component, at (x, y, z).

    `k` is a beam's `_kernel` tuple, or the kernels of B beams stacked as
    (9, B, 1). Only `exp` and arithmetic, so one point runs on Python
    floats with `_float_exp` and a batch on (B, M) arrays, the same way.
    """
    fx, fy, fz, ax, ay, az, w02, c, p2 = k
    dx, dy, dz = x - fx, y - fy, z - fz
    zb = dx * ax + dy * ay + dz * az                 # along the axis
    px, py, pz = dx - zb * ax, dy - zb * ay, dz - zb * az   # rel - zb axis
    w2 = w02 + c * zb * zb
    u = 2 * (px * px + py * py + pz * pz) / w2       # 2 rho^2 / w^2
    I = p2 / w2 * exp(-u)
    # grad I = dI/drho^2 grad rho^2 + dI/dz axis, grad rho^2 = 2 (rel -
    # zb axis), dI/drho^2 = -2 I / w^2, dI/dz = (I / w^2) (dw^2/dz) (u - 1)
    q = I / w2
    g = -4 * q
    h = q * 2 * c * zb * (u - 1)
    return I, g * px + h * ax, g * py + h * ay, g * pz + h * az


def intensity(beam, r):
    """Intensity (W/m^2) at position(s) r, shape (..., 3)."""
    r = np.asarray(r, dtype=float)
    return _intensity_terms(beam._kernel, r[..., 0], r[..., 1], r[..., 2])[0]


def _line_terms(detuning, species):
    """hbar Delta / 2 and I_sat (1 + (2 Delta / Gamma)^2) of one detuning."""
    if detuning == 0:
        raise ResonantLightError("resonant light is unsupported")
    return (float(hbar * detuning / 2),
            float(species.saturation_intensity
                  * (1 + (2 * detuning / species.linewidth_Gamma) ** 2)))


def dipole_potential(I, detuning, species=RB87):
    """Two-level light shift (J); sign follows the detuning sign."""
    half, i_eff = _line_terms(detuning, species)
    return half * np.log1p(np.asarray(I) / i_eff)


def scattering_rate(I, detuning, species=RB87):
    """Photon scattering rate (1/s) for a two-level transition."""
    s = np.asarray(I) / species.saturation_intensity
    gamma = species.linewidth_Gamma
    return gamma / 2 * s / (1 + s + (2 * detuning / gamma) ** 2)


@dataclass(frozen=True)
class StateDetunings:
    """Detunings of one field from the |a> and |b> D2 transitions (rad/s)."""

    detuning_a: float
    detuning_b: float

    @classmethod
    def from_detuning_b(cls, detuning_b, species=RB87):
        """Same field seen from both ground states: det_a = det_b - splitting."""
        return cls(detuning_a=detuning_b - species.ground_hyperfine_splitting,
                   detuning_b=detuning_b)

    @classmethod
    def far_off_resonance(cls, beam_wavelength, species=RB87):
        """FORT-style detuning from the line wavelength; hyperfine splitting
        is negligible at this scale, so both states see the same value."""
        det = 2 * np.pi * c_light * (1 / beam_wavelength
                                     - 1 / species.line_wavelength)
        return cls(detuning_a=det, detuning_b=det)

    def for_state(self, state):
        if state == "a":
            return self.detuning_a
        if state == "b":
            return self.detuning_b
        raise ValueError("state must be 'a' or 'b', got %r" % (state,))


@dataclass(frozen=True)
class StatePotentialField:
    """Summed per-state potentials/forces from a list of detuned beams.

    Immutable. Every beam's constants for both states are built once, so
    a zero detuning is rejected here rather than at the first call.
    """

    beams: tuple                        # ((GaussianBeam, StateDetunings), ...)
    species: AtomicSpecies = RB87

    def __post_init__(self):
        if len(self.beams) < 1:
            raise ValueError("at least one beam is required")
        object.__setattr__(self, "beams", tuple(self.beams))
        object.__setattr__(self, "_terms", {
            state: tuple((beam._kernel,
                          *_line_terms(det.for_state(state), self.species))
                         for beam, det in self.beams)
            for state in ("a", "b")})
        # for a batch, the same constants stacked over the B beams, so one
        # pass runs on (B, M) arrays: the kernels as (9, B, 1), and per
        # state hbar Delta / 2 and I_eff as (2, B, 1)
        object.__setattr__(self, "_stacked_kernel", np.array(
            [beam._kernel for beam, _ in self.beams]).T[..., None])
        object.__setattr__(self, "_stacked_lines", {
            state: np.array([t[1:] for t in terms]).T[..., None]
            for state, terms in self._terms.items()})

    def evaluate(self, r, state):
        """(U in J, F = -grad U in N, scattering rate in 1/s) at r.

        r is a single point (3,) with one state label, or a batch (..., 3)
        with one label for all points or one per point (an array of the
        batch shape), so atoms of both states share one call. One pass
        over each beam's intensity and gradient feeds all three. With
        I_eff = I_sat (1 + (2 Delta / Gamma)^2), U = (hbar Delta / 2)
        ln(1 + I / I_eff), dU/dI = (hbar Delta / 2) / (I + I_eff) and
        R = (Gamma / 2) I / (I + I_eff).

        A single point runs beam by beam on Python floats, a batch on
        (B, M) arrays. A trajectory integrator binds each system's label
        constants once (`_point_terms`, `_batch_lines`) and asks `_point`
        or `_batch` for F and the rate only, without U.
        """
        r = np.asarray(r, dtype=float)
        if r.ndim > 1:
            U, F, R = self._batch(*r.reshape(-1, 3).T,
                                  self._batch_lines(state))
            shape = r.shape[:-1]
            return U.reshape(shape), F.reshape(r.shape), R.reshape(shape)
        x, y, z = r.tolist()
        U, Fx, Fy, Fz, R = self._point(x, y, z, self._point_terms(state))
        return U, np.array([Fx, Fy, Fz]), R

    def _point_terms(self, state):
        """Each beam's (kernel, hbar Delta / 2, I_eff) for one label."""
        if state not in ("a", "b"):
            raise ValueError("state must be 'a' or 'b', got %r" % (state,))
        return self._terms[state]

    def _point(self, x, y, z, terms, potential=True):
        """(U, Fx, Fy, Fz, rate) at one point from `_point_terms`, U None
        without `potential`. Python floats throughout: each np.exp and
        np.log1p result is taken back with float(), so every value
        rounds as on numpy scalars, and runs several times faster."""
        U = 0.0 if potential else None
        S = Fx = Fy = Fz = 0.0
        for k, half, i_eff in terms:
            I, gx, gy, gz = _intensity_terms(k, x, y, z, _float_exp)
            inv = 1 / (I + i_eff)
            if potential:
                U = U + half * float(np.log1p(I / i_eff))
            S = S + I * inv
            dU_dI = half * inv
            Fx, Fy, Fz = Fx - dU_dI * gx, Fy - dU_dI * gy, Fz - dU_dI * gz
        return U, Fx, Fy, Fz, self.species.linewidth_Gamma / 2 * S

    def _batch_lines(self, state):
        """hbar Delta / 2 and I_eff per beam for a label, or per point for
        an array of labels: (2, B, 1) or (2, B, M)."""
        labels = np.asarray(state).ravel()
        is_b = labels == "b"
        if not (is_b | (labels == "a")).all():
            raise ValueError("states must be 'a' or 'b', got %r" % (state,))
        return np.where(is_b, self._stacked_lines["b"],
                        self._stacked_lines["a"])

    def _batch(self, x, y, z, lines, potential=True):
        """(U, F as (M, 3), rate) at M points from `_batch_lines`, U None
        without `potential`."""
        half, i_eff = lines
        # (B, M) per beam and point. The beams are summed in order, as
        # the single-point loop sums them, so both give the same bits
        I, gx, gy, gz = _intensity_terms(self._stacked_kernel, x, y, z)
        inv = 1 / (I + i_eff)
        dU_dI = half * inv
        U = np.add.reduce(half * np.log1p(I / i_eff)) if potential else None
        S = np.add.reduce(I * inv)
        F = np.empty((I.shape[1], 3))
        for i, g in enumerate((gx, gy, gz)):
            np.add.reduce(dU_dI * g, out=F[:, i])
        return (U, np.negative(F, out=F),
                self.species.linewidth_Gamma / 2 * S)

    def potential(self, r, state):
        """U_state(r) in J."""
        return self.evaluate(r, state)[0]

    def force(self, r, state):
        """F = -grad U (N)."""
        return self.evaluate(r, state)[1]

    def acceleration(self, r, state):
        return self.force(r, state) / self.species.mass

    def total_scattering_rate(self, r, state):
        """Summed photon scattering rate (1/s) over all beams."""
        return self.evaluate(r, state)[2]


def state_potentials(beams, species=RB87):
    """Build the state-dependent field from (beam, detunings) pairs."""
    return StatePotentialField(beams=tuple(beams), species=species)
