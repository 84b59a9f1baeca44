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
from scipy.optimize import brentq

from .blockade import IntegrationError
from .ensemble import sample_ball, sample_directions
from .optics import scattering_rate
from .species import RB87

_G = 9.80665          # m/s^2, standard gravity along -z when enabled

# Smallest kick-free group that runs as one system. A batched field
# evaluation costs several single-point ones, and the system takes its
# slowest member's steps to the end of the run, where an atom run alone
# stops at its region exit. The worst group is |b> atoms, which leave
# early, with one trapped |a> atom; the CLI always passes both states.
# One pass over per-atom time on the bundled eject fields (medians over
# 4-8 thermal draws): (m - 1) |b> + 1 |a> 1.46 at 6 atoms, 1.23 at 8,
# 1.03-1.14 at 10, 0.87 at 11, 0.89 at 12; all |b> 0.89 at 6; all |a>
# 0.74 at 6.
_MIN_BATCH = 11

# solve_ivp raises a smaller rtol to this floor, with a warning
_RTOL_FLOOR = 100 * np.finfo(float).eps

_REGION_RADIUS = 60e-6      # m, the field region; an atom leaving it stops
_EXPORT_POINTS = 400        # most points a trajectory is resampled to


class NotEjectedError(ValueError):
    """Nonpositive net acceleration: the atom is not ejected."""


class NoEscapeError(RuntimeError):
    """Statistics requested but no trajectory escaped."""


class ToleranceFloorError(ValueError):
    """A tolerance the integrator would silently raise to its floor."""


@dataclass(frozen=True)
class EjectConfig:
    """Trajectory settings; the trap is centered at the origin."""

    duration: float = 300e-6                       # s
    tolerance: float = 1e-10
    include_recoil_kicks: bool = False
    gravity: bool = False
    fort_waist: float = 5e-6                       # m, sets escape radius

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
    photon_rates: np.ndarray            # the scattering rate, 1/s
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
        """The photon integral at time t, held past the ends, on the cubic
        Hermite interpolant with the rates as its slopes."""
        times, photons, rates = (self.times, self.photons_expected,
                                 self.photon_rates)
        t = min(max(t, times[0]), times[-1])
        i = max(1, int(np.searchsorted(times, t)))
        return float(_hermite(times[i - 1], times[i], photons[i - 1],
                              photons[i], rates[i - 1], rates[i])(t))


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


def _gravity(config):
    return np.array([0.0, 0.0, -_G if config.gravity else 0.0])


def _exit_event(radius, offset=0, terminal=True):
    """Event: the atom at y[offset:offset + 3] leaves `radius`."""
    def event(t, y):
        r = y[offset:offset + 3]
        return np.sqrt(r.dot(r)) - radius          # np.linalg.norm(r)
    event.terminal = terminal
    event.direction = 1
    return event


def simulate_trajectory(initial, field_, state, config, seed=None):
    """Integrate one atom; returns a TrajectoryResult.

    `initial` is (position, velocity). With recoil kicks enabled, a seed
    is required; each scattering event applies the absorbed-photon
    impulse along the eject-beam axis plus one isotropic emission kick
    of magnitude hbar k.
    """
    return simulate_ensemble([initial[0]], [initial[1]], field_, state,
                             config, [seed])[0]


def simulate_ensemble(positions, velocities, field_, states, config,
                      seeds=None):
    """Integrate atoms; returns a list of TrajectoryResults.

    `states` is one label per atom, or one label for all. One atom, or
    `_MIN_BATCH` or more without recoil kicks, run as one DOP853 system
    with one field evaluation for all its atoms per right-hand side,
    per-atom tolerance and one region-exit event per atom. A group runs
    from 0 to the duration; a member's record ends at its exit, and its
    motion after that is integrated and thrown away, which costs less
    than restarting the others there. Other groups run atom by atom
    through `simulate_trajectory`, each with its own seed. A system's
    tolerance below the integrator's floor raises ToleranceFloorError
    before it is integrated.
    """
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    m = len(positions)
    labels = [states] * m if isinstance(states, str) else list(states)
    if m != 1 and (config.include_recoil_kicks or m < _MIN_BATCH):
        for label in labels:        # a bad label fails before any atom runs
            field_._point_terms(label)
        return [simulate_trajectory(
                    (positions[i], velocities[i]), field_, labels[i], config,
                    seed=None if seeds is None else seeds[i])
                for i in range(m)]
    mass = field_.species.mass
    gravity = _gravity(config)
    # The labels map to their field constants once, here, so a bad label
    # fails before anything is integrated. The right-hand side asks for
    # no potential. One atom takes the single-point field path on Python
    # floats, several times cheaper than a batched call.
    if m == 1:
        terms = field_._point_terms(labels[0])
        gx, gy, gz = gravity.tolist()

        def rhs(t, y):
            x, y, z, vx, vy, vz, _ = y.tolist()
            _, fx, fy, fz, rate = field_._point(x, y, z, terms,
                                                potential=False)
            return [vx, vy, vz, fx / mass + gx, fy / mass + gy,
                    fz / mass + gz, rate]
    else:
        lines = field_._batch_lines(labels)

        def rhs(t, y):
            y = y.reshape(-1, 7)
            _, force, rate = field_._batch(y[:, 0], y[:, 1], y[:, 2], lines,
                                           potential=False)
            dy = np.empty_like(y)
            dy[:, :3] = y[:, 3:6]
            dy[:, 3:6] = force / mass + gravity
            dy[:, 6] = rate
            return dy.ravel()

    events = [_exit_event(_REGION_RADIUS, 7 * j, terminal=m == 1)
              for j in range(m)]
    if config.include_recoil_kicks:               # one atom only
        if seeds is None or seeds[0] is None:
            raise ValueError("recoil kicks require a seed")
        rng = np.random.default_rng(seeds[0])
        peak_rates = [scattering_rate(beam.peak_intensity,
                                      det.for_state(labels[0]),
                                      field_.species)
                      for beam, det in field_.beams]
        # the dominant scattering beam gives the absorbed-photon direction
        eject_beam = field_.beams[int(np.argmax(peak_rates))][0]
        hk = hbar * eject_beam.wavenumber / mass
        next_kick = rng.exponential()

        def kick_event(t, y):
            return y[6] - next_kick
        kick_event.terminal = True
        kick_event.direction = 1
        events.append(kick_event)

    # Tolerances are divided by sqrt(m): the joint RMS error norm squared
    # is then the sum of the members' own, so each member meets the
    # tolerance it would have alone.
    tol = config.tolerance / np.sqrt(m)
    if tol < _RTOL_FLOOR:
        raise ToleranceFloorError(
            "tolerance %g / sqrt(%d) is below the integrator's floor %.3g"
            % (config.tolerance, m, _RTOL_FLOOR))
    t, step = 0.0, None
    y = np.column_stack((positions, velocities, np.zeros(m))).ravel()
    times, rows = [[t]], [[y]]
    while t < config.duration:
        # scipy rejects a first step longer than the span
        sol = solve_ivp(rhs, (t, config.duration), y, method="DOP853",
                        rtol=tol, atol=tol * 1e-3, events=events,
                        first_step=(None if step is None
                                    else min(step, config.duration - t)))
        if sol.status == -1:
            raise IntegrationError(
                "trajectory integration failed: %s (t reached %.3e of "
                "%.3e s)" % (sol.message, sol.t[-1], config.duration))
        times.append(sol.t[1:])
        rows.append(sol.y.T[1:])
        if sol.status != 1 or sol.t_events[0].size:
            break                   # reached the end or left the region
        # the photon integral crossed its Exp(1) draw: one scattering
        # event, recorded as a second row at the same time. Resume at the
        # last full accepted step rather than ramp up from scratch; a stop
        # inside the first step keeps its step.
        t, y = sol.t[-1], sol.y[:, -1].copy()
        step = sol.t[-2] - sol.t[-3] if sol.t.size > 2 else step
        y[3:6] += hk * eject_beam.axis + hk * sample_directions(rng, 1)[0]
        times.append([t])
        rows.append([y])
        next_kick = y[6] + rng.exponential()
    times = np.concatenate(times)
    ys = np.concatenate(rows).reshape(times.size, m, 7)
    results = []
    for j in range(m):
        t_j, record = times, ys[:, j]
        if sol.t_events[j].size:
            # left the region: the record ends at the crossing
            end = np.searchsorted(times, sol.t_events[j][0])
            t_j = np.append(times[:end], sol.t_events[j][0])
            record = np.vstack((record[:end],
                                sol.y_events[j][0][7 * j:7 * j + 7]))
        results.append(_trajectory_result(t_j, record, field_, labels[j],
                                          config))
    return results


def _hermite(t0, t1, p0, p1, m0, m1):
    """Cubic Hermite interpolant on [t0, t1] with end slopes m0, m1."""
    h = t1 - t0

    def at(t):
        s = (t - t0) / h
        s2, s3 = s * s, s * s * s
        return ((2 * s3 - 3 * s2 + 1) * p0 + (s3 - 2 * s2 + s) * h * m0
                + (3 * s2 - 2 * s3) * p1 + (s3 - s2) * h * m1)
    return at


def _trajectory_result(times, states, field_, state, config):
    """TrajectoryResult from the full record of one atom.

    A recoil kick is two rows at one time, before and after it. Escape
    (|r| above the escape radius with E > 0) and sweep (displacement
    above the FORT waist) are found at their crossings on the full
    record; then each pre-kick row goes and the rest is resampled to at
    most _EXPORT_POINTS points, endpoints kept.
    """
    mass = field_.species.mass
    r0 = states[0, :3]
    potential, force, rate = field_.evaluate(states[:, :3], state)
    accel = force / mass + _gravity(config)

    def crossing(*tests):
        """Time and velocity where every test(r, v, U) is first positive,
        U the potential at r; None if they never all are.

        A crossing inside the step into row i is refined on cubic Hermite
        interpolants of the positions and velocities between rows i - 1
        and i, as the root of the lowest test not yet positive at row
        i - 1. Tests already positive there stay out: the escape tests
        differ in units by many decades, and a minimum over both would
        leave brentq bisecting. One true from the start, or made by a kick
        (a row at the previous row's time), is read at the row.
        """
        passed = np.array([g(states[:, :3], states[:, 3:6], potential)
                           for g in tests]) > 0
        hits = np.flatnonzero(passed.all(axis=0))
        if not hits.size:
            return None
        i = int(hits[0])
        if i == 0 or times[i] == times[i - 1]:
            return times[i], states[i, 3:6]
        t0, t1 = times[i - 1], times[i]
        r = _hermite(t0, t1, states[i - 1, :3], states[i, :3],
                     states[i - 1, 3:6], states[i, 3:6])
        v = _hermite(t0, t1, states[i - 1, 3:6], states[i, 3:6],
                     accel[i - 1], accel[i])
        pending = [g for g, done in zip(tests, passed[:, i - 1]) if not done]

        def lowest(t):
            rt, vt = r(t), v(t)
            U = field_.evaluate(rt, state)[0]
            return min(g(rt, vt, U) for g in pending)
        tc = brentq(lowest, t0, t1, xtol=1e-9 * (t1 - t0))
        return tc, v(tc)

    escape = crossing(
        lambda r, v, U: np.sum(r * r, axis=-1) - config.escape_radius ** 2,
        lambda r, v, U: 0.5 * mass * np.sum(v * v, axis=-1) + U)
    sweep = crossing(lambda r, v, U: (np.sum((r - r0) ** 2, axis=-1)
                                      - config.fort_waist ** 2))

    truncated = bool(np.linalg.norm(states[-1, :3])
                     >= _REGION_RADIUS * (1 - 1e-9))
    pre_kick = np.flatnonzero(times[1:] == times[:-1])
    idx = np.delete(np.arange(len(times)), pre_kick)
    if len(idx) > _EXPORT_POINTS:
        idx = idx[np.unique(np.linspace(0, len(idx) - 1,
                                        _EXPORT_POINTS).astype(int))]
    result = TrajectoryResult(
        times=times[idx],
        positions=states[idx, :3],
        velocities=states[idx, 3:6],
        photons_expected=states[idx, 6],
        photon_rates=rate[idx],
        photons_sampled=(pre_kick.size if config.include_recoil_kicks
                         else None),
        truncated=truncated,
    )
    if escape is not None:
        result.escaped = True
        result.escape_time = float(escape[0])
        result.exit_direction = escape[1] / np.linalg.norm(escape[1])
    if sweep is not None:
        result.sweep_time = float(sweep[0])
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
