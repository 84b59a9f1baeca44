"""Classical state-selective ejection trajectories from the FORT.

An atom in |b> rides the repulsive eject-beam gradient out of the trap;
the characteristic timescale t1 solves (1/2) a t1^2 = w_FORT with a the
net acceleration at the cloud center. Trajectories integrate
m r'' = F_state(r) together with the expected photon number, the
integral of the local scattering rate along the path. Optional
single-photon recoil kicks are drawn by the waiting-time method of
Monte Carlo wave functions (Dalibard, Castin & Molmer, PRL 68, 580,
1992): a kick fires when the photon integral crosses an Exp(1) draw
past the previous kick, a terminal event of the one DOP853 loop.
"""

from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar, k as k_B
from scipy.integrate import solve_ivp

from .blockade import IntegrationError
from .ensemble import sample_ball, sample_directions
from .optics import scattering_rate
from .species import RB87

_G = 9.80665          # m/s^2, standard gravity along -z when enabled


class NotEjectedError(ValueError):
    """Nonpositive net acceleration: the atom is not ejected."""


class NoEscapeError(RuntimeError):
    """Statistics requested but no trajectory escaped."""


@dataclass(frozen=True)
class EjectConfig:
    """Trajectory settings; the trap is centered at the origin."""

    duration: float = 300e-6                       # s
    tolerance: float = 1e-10
    include_recoil_kicks: bool = False
    gravity: bool = False
    fort_waist: float = 5e-6                       # m, sets escape radius
    region_radius: float = 60e-6                   # m, field region bound

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be positive")

    @property
    def escape_radius(self):
        return 3 * self.fort_waist


@dataclass
class TrajectoryResult:
    times: np.ndarray
    positions: np.ndarray               # (n, 3)
    velocities: np.ndarray              # (n, 3)
    photons_expected: np.ndarray        # running integral of the rate
    photons_sampled: int = None         # kicks applied, kicks only
    escaped: bool = False               # |r| > 3 w_FORT, E > 0
    escape_time: float = None
    sweep_time: float = None            # first displacement > w_FORT
    exit_direction: np.ndarray = None
    truncated: bool = False             # left the field region early

    @property
    def total_photons_expected(self):
        return float(self.photons_expected[-1])

    def photons_expected_at(self, t):
        return float(np.interp(t, self.times, self.photons_expected))


def characteristic_eject_time(net_acceleration, w_fort):
    """t1 from (1/2) a t1^2 = w_FORT."""
    if not net_acceleration > 0:
        raise NotEjectedError("net acceleration %.3e m/s^2 is not positive; "
                              "atom is not ejected" % net_acceleration)
    return np.sqrt(2 * w_fort / net_acceleration)


def sample_thermal_initial(T, N, seed, cloud_diameter, species=RB87,
                           center=(0.0, 0.0, 0.0)):
    """Maxwell-Boltzmann velocities at T, positions uniform in the cloud.

    Returns (positions (N, 3), velocities (N, 3)); deterministic under
    the seed.
    """
    if T < 0:
        raise ValueError("temperature must be >= 0")
    rng = np.random.default_rng(seed)
    positions = (np.asarray(center, dtype=float)
                 + sample_ball(rng, N, cloud_diameter / 2))
    sigma = np.sqrt(k_B * T / species.mass) if T > 0 else 0.0
    velocities = (rng.normal(0.0, sigma, size=(N, 3)) if sigma > 0
                  else np.zeros((N, 3)))
    return positions, velocities


def simulate_trajectory(initial, field_, state, config, seed=None,
                        n_samples=400):
    """Integrate one atom; returns a TrajectoryResult.

    `initial` is (position, velocity). With recoil kicks enabled, a seed
    is required; each scattering event applies the absorbed-photon
    impulse along the eject-beam axis plus one isotropic emission kick
    of magnitude hbar k.
    """
    r0, v0 = (np.asarray(initial[0], dtype=float),
              np.asarray(initial[1], dtype=float))
    mass = field_.species.mass
    gravity = np.array([0.0, 0.0, -_G if config.gravity else 0.0])

    def rhs(t, y):
        _, force, rate = field_.evaluate(y[:3], state)
        return np.concatenate((y[3:6], force / mass + gravity, (rate,)))

    def region_event(t, y):
        return np.linalg.norm(y[:3]) - config.region_radius
    region_event.terminal = True
    region_event.direction = 1
    events = [region_event]

    photons_sampled = None
    if config.include_recoil_kicks:
        if seed is None:
            raise ValueError("recoil kicks require a seed")
        rng = np.random.default_rng(seed)
        peak_rates = [scattering_rate(beam.peak_intensity,
                                      det.for_state(state), field_.species)
                      for beam, det in field_.beams]
        # the dominant scattering beam gives the absorbed-photon direction
        eject_beam = field_.beams[int(np.argmax(peak_rates))][0]
        hk = hbar * eject_beam.wavenumber / mass
        photons_sampled = 0
        next_kick = rng.exponential()

        def kick_event(t, y):
            return y[6] - next_kick
        kick_event.terminal = True
        kick_event.direction = 1
        events.append(kick_event)

    t, step = 0.0, None
    y = np.concatenate([r0, v0, [0.0]])
    times, states = [[t]], [[y]]
    while t < config.duration:
        sol = solve_ivp(rhs, (t, config.duration), y, method="DOP853",
                        rtol=config.tolerance, atol=config.tolerance * 1e-3,
                        events=events, max_step=config.duration - t,
                        first_step=(None if step is None
                                    else min(step, config.duration - t)))
        if sol.status == -1:
            raise IntegrationError(
                "trajectory integration failed: %s (t reached %.3e of "
                "%.3e s)" % (sol.message, sol.t[-1], config.duration))
        times.append(sol.t[1:])
        states.append(sol.y.T[1:])
        if sol.status != 1 or sol.t_events[0].size:
            break                   # reached the end or left the region
        # the photon integral crossed its Exp(1) draw: one scattering event
        t, y = sol.t[-1], sol.y[:, -1].copy()
        # resume at the last full step rather than ramp up from scratch;
        # a kick inside the first step keeps the step it started with
        if sol.t.size > 2:
            step = sol.t[-2] - sol.t[-3]
        y[3:6] += hk * eject_beam.axis + hk * sample_directions(rng, 1)[0]
        states[-1][-1] = y
        photons_sampled += 1
        next_kick = y[6] + rng.exponential()
    times, states = np.concatenate(times), np.concatenate(states)

    # resample to a bounded number of output points (endpoints kept)
    if len(times) > n_samples:
        idx = np.unique(np.linspace(0, len(times) - 1,
                                    n_samples).astype(int))
        times, states = times[idx], states[idx]

    result = TrajectoryResult(
        times=times,
        positions=states[:, :3],
        velocities=states[:, 3:6],
        photons_expected=states[:, 6],
        photons_sampled=photons_sampled,
    )
    result.truncated = (np.linalg.norm(states[-1, :3])
                        >= config.region_radius * (1 - 1e-9))

    radii = np.linalg.norm(result.positions, axis=1)
    energies = (0.5 * mass * np.sum(result.velocities ** 2, axis=1)
                + field_.potential(result.positions, state))
    outside = (radii > config.escape_radius) & (energies > 0)
    if np.any(outside):
        i = int(np.argmax(outside))
        result.escaped = True
        result.escape_time = float(result.times[i])
        v = result.velocities[i]
        result.exit_direction = v / np.linalg.norm(v)
    disp = np.linalg.norm(result.positions - r0, axis=1)
    swept = disp > config.fort_waist
    if np.any(swept):
        result.sweep_time = float(result.times[int(np.argmax(swept))])
    return result


def collimation_stats(trajectories, coherent_acceleration, eject_time,
                      photon_wavelength, species=RB87):
    """Beam-quality metrics from an ensemble of trajectories.

    Returns (mean exit direction, rms transverse velocity spread,
    recoil-to-coherent impulse ratio). The impulse ratio is
    sqrt(n_scat) hbar k / (m a t1) with n_scat the mean expected photon
    number accumulated over the first t1 of flight.
    """
    escaped = [tr for tr in trajectories if tr.escaped]
    if not escaped:
        raise NoEscapeError("no escaped trajectories")
    dirs = np.array([tr.exit_direction for tr in escaped])
    mean_dir = dirs.mean(axis=0)
    mean_dir /= np.linalg.norm(mean_dir)
    exit_v = np.array([tr.velocities[-1] for tr in escaped])
    v_trans = exit_v - np.outer(exit_v @ mean_dir, mean_dir)
    rms_transverse = float(np.sqrt(np.mean(np.sum(v_trans ** 2, axis=1))))
    n_scat = float(np.mean([tr.photons_expected_at(eject_time)
                            for tr in trajectories]))
    coherent_impulse = species.mass * coherent_acceleration * eject_time
    ratio = (np.sqrt(n_scat) * 2 * np.pi * hbar / photon_wavelength
             / coherent_impulse)
    return mean_dir, rms_transverse, float(ratio)


def scan_fig2(field_, axis_start, axis_end, samples):
    """Potential/acceleration profile along the FORT-eject line.

    Returns a dict of arrays: x (m, signed along the line),
    U_a_over_kB_uK, U_b_over_kB_uK, a_a, a_b (signed projections on the
    line direction, m/s^2).
    """
    axis_start = np.asarray(axis_start, dtype=float)
    axis_end = np.asarray(axis_end, dtype=float)
    direction = axis_end - axis_start
    length = np.linalg.norm(direction)
    if length == 0:
        raise ValueError("degenerate scan axis")
    direction = direction / length
    x = np.linspace(0.0, length, samples)
    pts = axis_start[None, :] + x[:, None] * direction[None, :]
    out = {"x": x + 0.0}
    for state in ("a", "b"):
        U, F, _ = field_.evaluate(pts, state)
        out["U_%s_over_kB_uK" % state] = U / k_B * 1e6
        out["a_%s" % state] = F / field_.species.mass @ direction
    return out
