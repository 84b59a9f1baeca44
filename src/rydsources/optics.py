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

    @property
    def rayleigh_range(self):
        return np.pi * self.waist ** 2 / self.wavelength

    @property
    def peak_intensity(self):
        return 2 * self.power / (np.pi * self.waist ** 2)

    @property
    def wavenumber(self):
        return 2 * np.pi / self.wavelength


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


def intensity(beam, r):
    """Intensity (W/m^2) at position(s) r, shape (..., 3)."""
    return intensity_and_gradient(beam, r)[0]


def dipole_potential(I, detuning, species=RB87):
    """Two-level light shift (J); sign follows the detuning sign."""
    if detuning == 0:
        raise ResonantLightError("resonant light is unsupported")
    gamma = species.linewidth_Gamma
    s_eff = (np.asarray(I) / species.saturation_intensity
             / (1 + (2 * detuning / gamma) ** 2))
    return hbar * detuning / 2 * np.log1p(s_eff)


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

    Immutable; safe to share across concurrent trajectory workers.
    """

    beams: tuple                        # ((GaussianBeam, StateDetunings), ...)
    species: AtomicSpecies = RB87

    def __post_init__(self):
        if len(self.beams) < 1:
            raise ValueError("at least one beam is required")
        object.__setattr__(self, "beams", tuple(self.beams))

    def evaluate(self, r, state):
        """(U in J, F = -grad U in N, scattering rate in 1/s) at r.

        r is a single point (3,) or a batch (..., 3); every beam's
        intensity and gradient are computed once and feed all three.
        """
        r = np.asarray(r, dtype=float)
        U, F, R = 0.0, np.zeros(r.shape), 0.0
        for beam, det in self.beams:
            delta = det.for_state(state)
            I, grad = intensity_and_gradient(beam, r)
            U = U + dipole_potential(I, delta, self.species)
            dU_dI = hbar * delta / 2 / (
                self.species.saturation_intensity
                * (1 + (2 * delta / self.species.linewidth_Gamma) ** 2) + I)
            F -= dU_dI[..., None] * grad
            R = R + scattering_rate(I, delta, self.species)
        return U, F, R

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
