"""Dipole-blockade entangled-ensemble simulations.

Collective Rydberg excitation dynamics with fidelity estimates,
state-selective atom ejection from an optical dipole trap, and
phased-array directional single-photon emission patterns.
"""

__version__ = "0.8.2"

from .species import AtomicSpecies, RB87
from .ensemble import (AtomCloud, RydbergCoupling, sample_cloud, pair_shift,
                       pair_shift_magnitudes, mean_blockade_shift)
from .blockade import (PulseSpec, CollectiveState, BlockadeSummary,
                       l_factor, analytic_excitation, pi_pulse_time,
                       p_double_estimate, spontaneous_correction,
                       build_hamiltonian, evolve, run_preparation_sequence,
                       m_excitation_schedule, fig1_scan)
from .optics import (GaussianBeam, StateDetunings, StatePotentialField,
                     intensity, dipole_potential, scattering_rate,
                     state_potentials)
from .ejection import (EjectConfig, TrajectoryResult,
                       characteristic_eject_time, sample_thermal_initial,
                       simulate_trajectory, collimation_stats, scan_fig2)
from .emission import (EmissionGeometry, AngularPattern, PatternMetrics,
                       single_photon_pattern, double_excitation_pattern,
                       double_excitation_at, expected_peak_direction,
                       pattern_metrics, motional_blur, jittered_pattern)
