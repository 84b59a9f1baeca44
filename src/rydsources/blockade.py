"""Collective excitation dynamics in the {ground, singles, doubles} basis.

The closed-form symmetric-state model gives the maximum single-excitation
probability 1/l with l = 1 + (N-1)^2 |Omega|^2 / (4 N Dbar^2), where Dbar
is the harmonic-mean pair shift. The full truncated-subspace Hamiltonian
(dimension 1 + N + N(N-1)/2) serves as the brute-force oracle for the
closed form and for the double-excitation leakage estimate
P_double ~ ((N-1)/2l) |Omega|^2 / Dbar^2.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import hbar
from scipy.integrate import solve_ivp

from .ensemble import (mean_blockade_shift, pair_shift_magnitudes,
                       pair_shifts, sample_cloud)
from .species import RB87

# transition labels for PulseSpec
TRANSITION_B_R = "b->r"              # pi pulse at omega
TRANSITION_R_A = "r->a"              # transfer pulse at omega'
TRANSITION_A_R_TWO_PHOTON = "a->r (two-photon)"
TRANSITION_R_E = "r->e"              # omega_3 pulse
_TRANSITIONS = (TRANSITION_B_R, TRANSITION_R_A,
                TRANSITION_A_R_TWO_PHOTON, TRANSITION_R_E)

# refuse the truncated basis when the drive competes with the blockade
STRONG_DRIVE_RATIO = 0.3


class TruncationError(ValueError):
    """Drive too strong for the double-excitation truncation."""


class IntegrationError(RuntimeError):
    """Adaptive stepping failed or lost unitarity."""


class SequentialityError(ValueError):
    """Preparation pulses must be strictly sequential."""


class UnsupportedTransitionError(ValueError):
    """The pulse drives a transition that has no modelled Hamiltonian."""


@dataclass(frozen=True)
class PulseSpec:
    """One resonant pulse; per-atom phases are phi_j = k . r_j."""

    rabi_magnitude: float               # rad/s
    wavevector: np.ndarray              # (3,), rad/m
    duration: float                     # s
    transition: str = TRANSITION_B_R
    start_time: float = None            # optional, for overlap checking

    def __post_init__(self):
        if self.rabi_magnitude < 0:
            raise ValueError("rabi_magnitude must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.transition not in _TRANSITIONS:
            raise ValueError("unknown transition %r" % (self.transition,))
        object.__setattr__(self, "wavevector",
                           np.asarray(self.wavevector, dtype=float))

    @classmethod
    def two_photon(cls, rabi_1, rabi_2, detuning_e, k1, k2, duration,
                   start_time=None):
        """Effective two-photon pulse: |Omega| = |O1||O2|/Delta_e, k = k1+k2."""
        if detuning_e == 0:
            raise ValueError("two-photon pulse needs nonzero intermediate "
                             "detuning")
        return cls(rabi_magnitude=abs(rabi_1) * abs(rabi_2) / abs(detuning_e),
                   wavevector=np.asarray(k1, float) + np.asarray(k2, float),
                   duration=duration,
                   transition=TRANSITION_A_R_TWO_PHOTON,
                   start_time=start_time)


@dataclass(frozen=True)
class CollectiveState:
    """Amplitudes over {ground, N singles, N(N-1)/2 doubles}.

    Doubles are in `pdist` (j, k) order with j < k. Amplitudes are
    kept in the lab frame (traveling-wave phases included), which leaves
    all probabilities unchanged.
    """

    c_ground: complex
    c_single: np.ndarray
    c_double: np.ndarray
    single_label: str = "r"     # which state the single excitation occupies

    def __post_init__(self):
        object.__setattr__(self, "c_single",
                           np.asarray(self.c_single, dtype=complex))
        object.__setattr__(self, "c_double",
                           np.asarray(self.c_double, dtype=complex))
        n = self.c_single.size
        if self.c_double.size != n * (n - 1) // 2:
            raise ValueError("amplitude lengths inconsistent with N=%d" % n)
        if abs(self.norm() - 1.0) > 1e-9:
            raise ValueError("state not normalized: sum|c|^2 = %.12f"
                             % self.norm())

    @property
    def n_atoms(self):
        return self.c_single.size

    def norm(self):
        return (abs(self.c_ground) ** 2
                + float(np.sum(np.abs(self.c_single) ** 2))
                + float(np.sum(np.abs(self.c_double) ** 2)))

    def probabilities(self):
        """(P_zero, P_single, P_double) read from the amplitudes."""
        return (abs(self.c_ground) ** 2,
                float(np.sum(np.abs(self.c_single) ** 2)),
                float(np.sum(np.abs(self.c_double) ** 2)))

    def to_vector(self):
        return np.concatenate(([self.c_ground], self.c_single, self.c_double))

    @classmethod
    def ground(cls, N):
        return cls(c_ground=1.0 + 0j, c_single=np.zeros(N, complex),
                   c_double=np.zeros(N * (N - 1) // 2, complex))


@dataclass(frozen=True)
class BlockadeSummary:
    l_factor: float
    t_pi: float
    P_zero: float
    P_single: float
    P_double: float
    spontaneous_correction: float

    def __post_init__(self):
        for p in (self.P_zero, self.P_single, self.P_double):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probability out of [0, 1]")
        if self.P_zero + self.P_single + self.P_double > 1 + 1e-6:
            raise ValueError("probabilities sum above 1")
        if self.l_factor < 1:
            raise ValueError("l_factor must be >= 1")


def l_factor(N, rabi, mean_shift=None):
    """Blockade-imperfection factor l; maximum P_single is 1/l."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return 1.0
    if mean_shift is None or not mean_shift > 0:
        raise ValueError("mean_shift must be positive for N >= 2")
    return 1.0 + (N - 1) ** 2 * rabi ** 2 / (4 * N * mean_shift ** 2)


def analytic_excitation(N, rabi, mean_shift, t):
    """Closed-form (P_ground, P_single) at time t, starting from |g>."""
    l = l_factor(N, rabi, mean_shift)
    p_single = np.sin(np.sqrt(N * l) * abs(rabi) * t / 2) ** 2 / l
    return 1.0 - p_single, p_single


def pi_pulse_time(N, rabi, mean_shift=None):
    """Time of maximum single excitation, t = pi / (sqrt(N l) |Omega|)."""
    if not rabi > 0:
        raise ValueError("rabi must be positive")
    l = l_factor(N, rabi, mean_shift)
    return np.pi / (np.sqrt(N * l) * rabi)


def p_double_estimate(N, rabi, mean_shift):
    """Order-of-magnitude double-excitation leakage after the pi pulse."""
    if N < 2:
        return 0.0
    l = l_factor(N, rabi, mean_shift)
    return (N - 1) / (2 * l) * rabi ** 2 / mean_shift ** 2


def spontaneous_correction(N, gamma_R, mean_shift):
    """Scalar O(N gamma_R / Dbar) fidelity correction (diagnostic only)."""
    if N < 1 or gamma_R < 0 or not mean_shift > 0:
        raise ValueError("inputs must be positive")
    return N * gamma_R / mean_shift


def build_hamiltonian(cloud, coupling, pulse, allow_strong_driving=False):
    """Hermitian Hamiltonian (J) on the CollectiveState basis.

    <r_j|H|g> = hbar Omega_j / 2 with Omega_j = |Omega| e^{i k.r_j},
    <r_j r_k|H|r_j> = hbar Omega_k / 2, and the signed pair shift
    hbar Delta_jk on the double-excitation diagonal. Zero atom-field
    detuning. Complex, unless k.r_j = 0 for every atom: then H is
    real symmetric float64.
    """
    N = cloud.n_atoms
    if N >= 2 and pulse.rabi_magnitude > 0 and not allow_strong_driving:
        min_shift = float(np.min(pair_shift_magnitudes(cloud, coupling)))
        if pulse.rabi_magnitude / min_shift > STRONG_DRIVE_RATIO:
            raise TruncationError(
                "|Omega|/min|Delta_jk| = %.3f exceeds %.2f; the "
                "double-excitation truncation is not valid "
                "(pass allow_strong_driving=True to override)"
                % (pulse.rabi_magnitude / min_shift, STRONG_DRIVE_RATIO))
    j, k = np.triu_indices(N, 1)
    dim = 1 + N + len(j)
    rows = np.arange(1 + N, dim)
    phases = cloud.positions @ pulse.wavevector
    if np.any(phases):
        omega_j = pulse.rabi_magnitude * np.exp(1j * phases)
    else:
        # no phase: a real symmetric H lets eigh take the real solver
        omega_j = np.full(N, float(pulse.rabi_magnitude))
    H = np.zeros((dim, dim), dtype=omega_j.dtype)
    H[1:1 + N, 0] = hbar * omega_j / 2
    H[rows, 1 + j] = hbar * omega_j[k] / 2
    H[rows, 1 + k] = hbar * omega_j[j] / 2
    H[rows, rows] = hbar * pair_shifts(cloud, coupling)
    return H + H.conj().T - np.diag(np.diag(H))


def evolve(state, hamiltonian, duration, tolerance=1e-11, method="exact"):
    """Solve i hbar dpsi/dt = H psi for a constant H.

    method="exact" diagonalizes H (unitary to machine precision);
    method="adaptive" uses high-order explicit stepping at the requested
    local tolerance and reports (never hides) any norm drift above 1e-9.
    """
    psi0 = state.to_vector()
    H = np.asarray(hamiltonian) / hbar      # rad/s
    if method == "exact":
        w, V = np.linalg.eigh(H)
        psi = V @ (np.exp(-1j * w * duration) * (V.conj().T @ psi0))
    elif method == "adaptive":
        dim = len(psi0)

        def rhs(t, y):
            psi = y[:dim] + 1j * y[dim:]
            dpsi = -1j * (H @ psi)
            return np.concatenate([dpsi.real, dpsi.imag])

        y0 = np.concatenate([psi0.real, psi0.imag])
        sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                        rtol=tolerance, atol=tolerance * 1e-2)
        if not sol.success:
            raise IntegrationError(
                "adaptive stepping failed: %s (t reached %.3e of %.3e s)"
                % (sol.message, sol.t[-1], duration))
        psi = sol.y[:dim, -1] + 1j * sol.y[dim:, -1]
        drift = abs(float(np.sum(np.abs(psi) ** 2)) - 1.0)
        if drift > 1e-9:
            raise IntegrationError(
                "norm drift %.3e exceeds 1e-9; tighten the tolerance"
                % drift)
    else:
        raise ValueError("unknown method %r" % (method,))
    N = state.n_atoms
    return replace(state, c_ground=complex(psi[0]), c_single=psi[1:1 + N],
                   c_double=psi[1 + N:])


def _apply_transfer_pulse(state, cloud, pulse):
    """Ideal pi-pulse relabeling r_j -> a_j with phase -k'.r_j."""
    phases = np.exp(-1j * (cloud.positions @ pulse.wavevector))
    return replace(state, c_single=state.c_single * phases,
                   single_label="a")


def run_preparation_sequence(cloud, coupling, pulses):
    """Apply pulses in order and summarize the final state.

    Pulses must be strictly sequential; if start times are given, any
    overlap is rejected (simultaneous omega and omega' driving causes
    multiphoton Raman leakage). Only b->r drives and r->a transfers are
    modelled; any other transition is rejected before evolving.
    """
    _check_sequential(pulses)
    for pulse in pulses:
        if pulse.transition not in (TRANSITION_B_R, TRANSITION_R_A):
            raise UnsupportedTransitionError(
                "%r pulses are not modelled; only %r and %r are simulated"
                % (pulse.transition, TRANSITION_B_R, TRANSITION_R_A))
    state = CollectiveState.ground(cloud.n_atoms)
    rabi = None
    mean_shift = None
    for pulse in pulses:
        if pulse.transition == TRANSITION_R_A:
            state = _apply_transfer_pulse(state, cloud, pulse)
            continue
        H = build_hamiltonian(cloud, coupling, pulse)
        state = evolve(state, H, pulse.duration)
        rabi = pulse.rabi_magnitude
    N = cloud.n_atoms
    if N >= 2:
        mean_shift = mean_blockade_shift(cloud, coupling)
        spont = spontaneous_correction(N, cloud.species.rydberg_decay_gamma_R,
                                       mean_shift)
    else:
        spont = 0.0
    l = l_factor(N, rabi, mean_shift) if rabi else 1.0
    t_pi = pi_pulse_time(N, rabi, mean_shift) if rabi else 0.0
    p0, p1, p2 = state.probabilities()
    summary = BlockadeSummary(l_factor=l, t_pi=t_pi, P_zero=p0, P_single=p1,
                              P_double=p2, spontaneous_correction=spont)
    return state, summary


def _check_sequential(pulses):
    timed = [p for p in pulses if p.start_time is not None]
    if timed and len(timed) != len(pulses):
        raise SequentialityError("either all or no pulses may carry "
                                 "start times")
    for prev, nxt in zip(timed, timed[1:]):
        if nxt.start_time < prev.start_time + prev.duration:
            raise SequentialityError(
                "pulse windows overlap (%g s < %g s); pulses must be "
                "applied sequentially to avoid multiphoton Raman leakage"
                % (nxt.start_time, prev.start_time + prev.duration))


def m_excitation_schedule(N, m, rabi, eject_time):
    """Timing report for m-excitation atomic pulses.

    Each of the m blockade cycles is a pi pulse at the collectively
    enhanced Rabi frequency sqrt(N - i) |Omega|; the FORT supports
    floor(N/m) deterministic repetitions before reloading.
    """
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N, got m=%d N=%d" % (m, N))
    if not rabi > 0:
        raise ValueError("rabi must be positive")
    t_prep = float(np.sum(np.pi / (np.sqrt(N - np.arange(m)) * rabi)))
    cycle_time = t_prep + eject_time
    return {
        "N": int(N),
        "m": int(m),
        "t_prep": t_prep,
        "eject_time": float(eject_time),
        "cycle_time": cycle_time,
        "repetitions": int(N // m),
        "pulse_rate": 1.0 / cycle_time,
    }


def _fig1_trial(N, seed, diameter, coupling, rabi, species, cap):
    cloud = sample_cloud(N, diameter, seed, species=species)
    if N >= 2:
        dbar = mean_blockade_shift(cloud, coupling)
        l = l_factor(N, rabi, dbar)
        p_zero = 1.0 - 1.0 / l
        p_double = p_double_estimate(N, rabi, dbar)
    else:
        dbar = np.nan
        p_zero, p_double = 0.0, 0.0
    row = {"P_zero": p_zero, "P_double": p_double, "Delta_bar": dbar}
    if cap and N <= cap:
        pulse = PulseSpec(rabi_magnitude=rabi, wavevector=np.zeros(3),
                          duration=0.0)
        H = build_hamiltonian(cloud, coupling, pulse)
        t_pi = pi_pulse_time(N, rabi, dbar if N >= 2 else None)
        final = evolve(CollectiveState.ground(N), H, t_pi)
        p0, _, p2 = final.probabilities()
        row["P_zero_full"] = p0
        row["P_double_full"] = p2
    return row


def trial_seed(master_seed, N, trial):
    """Deterministic 64-bit per-trial seed from (master_seed, N, trial)."""
    ss = np.random.SeedSequence([int(master_seed), int(N), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def fig1_scan(N_values, trials, diameter, coupling, rabi, master_seed,
              species=RB87, full_integrator_cap=0):
    """Monte Carlo scan of P_zero and P_double versus atom number.

    Returns one dict per N with seed-averaged closed-form values and,
    for N <= full_integrator_cap, the full-integrator columns. Trials
    are reduced in sorted index order for bit reproducibility.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for N in N_values:
        N = int(N)
        results = [_fig1_trial(N, trial_seed(master_seed, N, t), diameter,
                               coupling, rabi, species, full_integrator_cap)
                   for t in range(trials)]
        row = {"N": N, "trials": int(trials)}
        for key in results[0]:
            vals = np.array([r[key] for r in results])
            row[key + "_mean"] = float(np.mean(vals))
            row[key + "_stderr"] = (float(np.std(vals, ddof=1)
                                          / np.sqrt(trials))
                                    if trials > 1 else 0.0)
        rows.append(row)
    return rows
