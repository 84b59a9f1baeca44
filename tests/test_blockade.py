import numpy as np
import pytest
from scipy.constants import hbar

from rydsources.blockade import (BlockadeSummary, CollectiveState, PulseSpec,
                                 SequentialityError, TruncationError,
                                 analytic_excitation, build_hamiltonian,
                                 evolve, fig1_scan, l_factor,
                                 m_excitation_schedule, p_double_estimate,
                                 pi_pulse_time, run_preparation_sequence,
                                 spontaneous_correction, trial_seed,
                                 TRANSITION_A_R_TWO_PHOTON, TRANSITION_R_A,
                                 TRANSITION_R_E, UnsupportedTransitionError)
from rydsources.ensemble import (AtomCloud, RydbergCoupling,
                                 mean_blockade_shift, sample_cloud)

TWO_PI = 2 * np.pi
N50 = RydbergCoupling.calibrated(50)
OMEGA = TWO_PI * 1e6


def equal_pair_cloud(n):
    """Geometries with all pair distances equal: pair, triangle, tetrahedron."""
    a = 3e-6
    if n == 2:
        pos = np.array([[0, 0, 0], [a, 0, 0]])
    elif n == 3:
        pos = np.array([[0, 0, 0], [a, 0, 0],
                        [a / 2, a * np.sqrt(3) / 2, 0]])
    elif n == 4:
        # regular tetrahedron: these vertices are 2 sqrt(2) apart
        pos = a / (2 * np.sqrt(2)) * np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    else:
        raise ValueError(n)
    pos = pos - pos.mean(axis=0)
    return AtomCloud(positions=pos, diameter=12e-6, master_seed=0)


def loop_hamiltonian(cloud, coupling, pulse):
    """Reference: the per-atom and per-pair loops build_hamiltonian
    replaced (strong-drive guard left out)."""
    from itertools import combinations
    pos = cloud.positions
    N = cloud.n_atoms
    pairs = list(combinations(range(N), 2))
    dim = 1 + N + len(pairs)
    H = np.zeros((dim, dim), dtype=complex)
    omega_j = pulse.rabi_magnitude * np.exp(1j * pos @ pulse.wavevector)
    for j in range(N):
        H[1 + j, 0] = hbar * omega_j[j] / 2
    for p, (j, k) in enumerate(pairs):
        row = 1 + N + p
        H[row, 1 + j] = hbar * omega_j[k] / 2
        H[row, 1 + k] = hbar * omega_j[j] / 2
        H[row, row] = hbar * coupling.shift_at(
            np.linalg.norm(pos[j] - pos[k]))
    return H + H.conj().T - np.diag(np.diag(H))


class TestClosedForms:
    def test_l_factor_single_atom(self):
        assert l_factor(1, OMEGA) == 1.0
        assert l_factor(1, 0.0) == 1.0

    def test_l_factor_two_atoms_hand_value(self):
        # N=2, Omega/2pi=1 MHz, Dbar/2pi=100 MHz -> 1 + (1/8)*1e-4
        val = l_factor(2, OMEGA, TWO_PI * 100e6)
        assert val == pytest.approx(1.0000125, abs=1e-10)

    def test_l_factor_500_atoms_hand_value(self):
        val = l_factor(500, OMEGA, TWO_PI * 525e6)
        expect = 1 + 499 ** 2 / 2000 / 525 ** 2
        assert val == pytest.approx(expect, rel=1e-12)
        assert val == pytest.approx(1.000452, abs=2e-6)

    def test_analytic_excitation_t0_and_pi(self):
        assert analytic_excitation(5, OMEGA, TWO_PI * 100e6, 0.0) == (1.0, 0.0)
        pg, ps = analytic_excitation(1, OMEGA, None, np.pi / OMEGA)
        assert ps == pytest.approx(1.0, abs=1e-12)
        assert pg == pytest.approx(0.0, abs=1e-12)

    def test_analytic_max_is_one_over_l(self):
        dbar = TWO_PI * 100e6
        t = pi_pulse_time(4, OMEGA, dbar)
        _, ps = analytic_excitation(4, OMEGA, dbar, t)
        assert ps == pytest.approx(1 / l_factor(4, OMEGA, dbar), rel=1e-12)

    def test_analytic_periodicity(self):
        dbar = TWO_PI * 200e6
        period = 2 * np.pi / (np.sqrt(6 * l_factor(6, OMEGA, dbar)) * OMEGA)
        for t in (0.13e-6, 0.07e-6):
            a = analytic_excitation(6, OMEGA, dbar, t)
            b = analytic_excitation(6, OMEGA, dbar, t + 3 * period)
            assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_probability_conservation_identity(self):
        pg, ps = analytic_excitation(7, OMEGA, TWO_PI * 300e6, 0.4e-6)
        assert pg + ps == pytest.approx(1.0, rel=1e-15)

    def test_pi_pulse_times(self):
        assert pi_pulse_time(1, OMEGA) == pytest.approx(0.5e-6)
        # N=100, l ~ 1 -> ~50 ns
        t = pi_pulse_time(100, OMEGA, TWO_PI * 525e6)
        assert t == pytest.approx(50e-9, rel=1e-3)
        # sqrt(l) shortening
        assert (pi_pulse_time(4, OMEGA, TWO_PI * 10e6)
                < np.pi / (2 * OMEGA))
        with pytest.raises(ValueError):
            pi_pulse_time(2, 0.0, TWO_PI * 100e6)

    def test_p_double_estimate(self):
        dbar = 100 * OMEGA
        l = l_factor(2, OMEGA, dbar)
        assert p_double_estimate(2, OMEGA, dbar) == pytest.approx(
            0.5e-4 / l, rel=1e-9)
        assert p_double_estimate(1, OMEGA, dbar) == 0.0
        vals = [p_double_estimate(n, OMEGA, dbar) for n in range(2, 50)]
        assert np.all(np.diff(vals) > 0)

    def test_spontaneous_correction(self):
        dbar = TWO_PI * 500e6
        assert spontaneous_correction(3, 0.0, dbar) == 0.0
        one = spontaneous_correction(10, TWO_PI * 1e3, dbar)
        assert spontaneous_correction(20, TWO_PI * 1e3, dbar) == pytest.approx(
            2 * one)
        assert spontaneous_correction(500, TWO_PI * 1e3, dbar) == (
            pytest.approx(1e-3, rel=1e-9))


class TestHamiltonian:
    def test_single_atom_two_level(self):
        cloud = sample_cloud(1, 5e-6, seed=1)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        assert H.shape == (2, 2)
        assert H[1, 0] == pytest.approx(hbar * OMEGA / 2)
        assert H[0, 0] == 0 and H[1, 1] == 0

    def test_two_atom_structure(self):
        cloud = equal_pair_cloud(2)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        assert H.shape == (4, 4)
        delta = N50.shift_at(3e-6)
        assert H[3, 3].real == pytest.approx(hbar * delta, rel=1e-12)
        assert H[3, 3].real < 0
        assert H[1, 0] == pytest.approx(hbar * OMEGA / 2)
        assert H[3, 1] == pytest.approx(hbar * OMEGA / 2)

    @pytest.mark.parametrize("k_norm", [0.0, TWO_PI / 780e-9])
    @pytest.mark.parametrize("N", [1, 2, 5, 12])
    def test_matches_loop_reference(self, N, k_norm):
        cloud = sample_cloud(N, 5e-6, seed=N)
        k = k_norm * np.array([1.0, -2.0, 2.0]) / 3
        pulse = PulseSpec(OMEGA, k, 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        # real symmetric exactly when the pulse carries no phase
        assert H.dtype == (np.complex128 if k_norm else np.float64)
        np.testing.assert_allclose(H, loop_hamiltonian(cloud, N50, pulse),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_real_evolution_matches_complex(self, N):
        cloud = sample_cloud(N, 5e-6, seed=N)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        t = pi_pulse_time(N, OMEGA, mean_blockade_shift(cloud, N50))
        real = evolve(CollectiveState.ground(N), H, t)
        cplx = evolve(CollectiveState.ground(N), H.astype(complex), t)
        np.testing.assert_allclose(real.to_vector(), cplx.to_vector(),
                                   rtol=0, atol=1e-12)

    def test_hermiticity_random_cloud(self):
        cloud = sample_cloud(10, 5e-6, seed=9)
        k = TWO_PI / 780e-9 * np.array([0, 0, 1.0])
        pulse = PulseSpec(OMEGA, k, 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-15 * scale

    def test_truncation_guard(self):
        cloud = equal_pair_cloud(2)
        strong = PulseSpec(abs(N50.shift_at(3e-6)), np.zeros(3), 1e-6)
        with pytest.raises(TruncationError):
            build_hamiltonian(cloud, N50, strong)
        build_hamiltonian(cloud, N50, strong, allow_strong_driving=True)


class TestEvolve:
    def test_zero_hamiltonian_identity(self):
        state = CollectiveState.ground(3)
        H = np.zeros((7, 7), dtype=complex)
        out = evolve(state, H, 1e-3)
        assert out.c_ground == pytest.approx(1.0)

    def test_single_atom_rabi_flop(self):
        cloud = sample_cloud(1, 5e-6, seed=1)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        for method in ("exact", "adaptive"):
            out = evolve(CollectiveState.ground(1), H, np.pi / OMEGA,
                         method=method)
            assert abs(out.c_single[0]) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_methods_agree(self):
        cloud = equal_pair_cloud(3)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        t = pi_pulse_time(3, OMEGA, abs(N50.shift_at(3e-6)))
        a = evolve(CollectiveState.ground(3), H, t, method="exact")
        b = evolve(CollectiveState.ground(3), H, t, method="adaptive")
        np.testing.assert_allclose(a.to_vector(), b.to_vector(), atol=1e-8)

    def test_unitarity(self):
        cloud = sample_cloud(6, 5e-6, seed=4)
        pulse = PulseSpec(OMEGA, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        state = CollectiveState.ground(6)
        for method in ("exact", "adaptive"):
            out = evolve(state, H, 0.3e-6, method=method)
            assert abs(out.norm() - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_equivalence_equal_pair(self, n):
        # |P_single(evolve at t_pi) - 1/l| small for weak driving
        cloud = equal_pair_cloud(n)
        dbar = abs(N50.shift_at(3e-6))
        rabi = 1e-3 * dbar
        pulse = PulseSpec(rabi, np.zeros(3), 1e-6)
        H = build_hamiltonian(cloud, N50, pulse)
        t = pi_pulse_time(n, rabi, dbar)
        out = evolve(CollectiveState.ground(n), H, t)
        _, p_single, _ = out.probabilities()
        assert abs(p_single - 1 / l_factor(n, rabi, dbar)) <= 1e-5

    def test_translation_invariance_of_fidelities(self):
        # rigid cloud translation only changes global phases
        cloud = sample_cloud(5, 5e-6, seed=8)
        shifted = AtomCloud(positions=cloud.positions + 1.7e-6,
                            diameter=cloud.diameter + 8e-6,
                            master_seed=cloud.master_seed)
        k = TWO_PI / 780e-9 * np.array([0.3, -0.2, 0.9])
        pulse = PulseSpec(OMEGA, k, 1e-6)
        t = 0.2e-6
        outs = []
        for cl in (cloud, shifted):
            H = build_hamiltonian(cl, N50, pulse)
            outs.append(evolve(CollectiveState.ground(5), H, t))
        np.testing.assert_allclose(outs[0].probabilities(),
                                   outs[1].probabilities(), atol=1e-10)


class TestPreparationSequence:
    def pulses_for(self, cloud, rabi=OMEGA):
        dbar = None
        if cloud.n_atoms >= 2:
            from rydsources.ensemble import mean_blockade_shift
            dbar = mean_blockade_shift(cloud, N50)
        t = pi_pulse_time(cloud.n_atoms, rabi, dbar)
        k = TWO_PI / 780e-9 * np.array([0, 0, 1.0])
        k2 = TWO_PI / 480e-9 * np.array([0, 0, 1.0])
        return [PulseSpec(rabi, k, t),
                PulseSpec(rabi, k2, t, transition=TRANSITION_R_A)]

    def test_single_atom_full_transfer(self):
        cloud = sample_cloud(1, 5e-6, seed=2)
        state, summary = run_preparation_sequence(cloud, N50,
                                                  self.pulses_for(cloud))
        assert summary.P_single == pytest.approx(1.0, abs=1e-8)
        assert state.single_label == "a"

    def test_two_atom_five_micron_fidelity(self):
        pos = np.array([[-2.5e-6, 0, 0], [2.5e-6, 0, 0]])
        cloud = AtomCloud(positions=pos, diameter=5e-6, master_seed=0)
        _, summary = run_preparation_sequence(cloud, N50,
                                              self.pulses_for(cloud))
        assert summary.P_zero + summary.P_double < 1e-4

    def test_empty_pulse_list(self):
        cloud = sample_cloud(3, 5e-6, seed=2)
        state, summary = run_preparation_sequence(cloud, N50, [])
        assert summary.P_zero == pytest.approx(1.0)
        assert state.c_ground == pytest.approx(1.0)

    def test_overlapping_pulses_rejected(self):
        cloud = sample_cloud(2, 5e-6, seed=2)
        k = np.zeros(3)
        pulses = [PulseSpec(OMEGA, k, 1e-6, start_time=0.0),
                  PulseSpec(OMEGA, k, 1e-6, transition=TRANSITION_R_A,
                            start_time=0.5e-6)]
        with pytest.raises(SequentialityError):
            run_preparation_sequence(cloud, N50, pulses)

    @pytest.mark.parametrize("transition", [TRANSITION_A_R_TWO_PHOTON,
                                            TRANSITION_R_E])
    def test_unmodelled_transition_rejected(self, transition, monkeypatch):
        cloud = sample_cloud(2, 5e-6, seed=2)
        pulses = self.pulses_for(cloud) + [
            PulseSpec(OMEGA, np.zeros(3), 1e-6, transition=transition)]

        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved before rejecting the sequence")
        monkeypatch.setattr("rydsources.blockade.evolve", no_evolution)
        with pytest.raises(UnsupportedTransitionError):
            run_preparation_sequence(cloud, N50, pulses)

    def test_transfer_pulse_preserves_probabilities(self):
        cloud = sample_cloud(4, 5e-6, seed=3)
        pulses = self.pulses_for(cloud)
        _, with_transfer = run_preparation_sequence(cloud, N50, pulses)
        _, without = run_preparation_sequence(cloud, N50, pulses[:1])
        assert with_transfer.P_single == pytest.approx(without.P_single,
                                                       rel=1e-12)


class TestSchedule:
    def test_single_cycle(self):
        rep = m_excitation_schedule(100, 1, OMEGA, 40e-6)
        assert rep["t_prep"] == pytest.approx(50e-9)
        assert rep["repetitions"] == 100
        assert rep["pulse_rate"] == pytest.approx(24969, rel=1e-3)

    def test_m_equals_n_single_repetition(self):
        assert m_excitation_schedule(1, 1, OMEGA, 40e-6)["repetitions"] == 1
        assert m_excitation_schedule(7, 7, OMEGA, 40e-6)["repetitions"] == 1

    def test_rate_monotone_in_m(self):
        rates = [m_excitation_schedule(100, m, OMEGA, 40e-6)["pulse_rate"]
                 for m in (1, 5, 20, 100)]
        assert np.all(np.diff(rates) < 0)

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(ValueError):
            m_excitation_schedule(5, 6, OMEGA, 40e-6)

    def test_prep_time_sums_collective_pi_pulses(self):
        rep = m_excitation_schedule(10, 3, OMEGA, 0.0)
        expect = sum(np.pi / (np.sqrt(10 - i) * OMEGA) for i in range(3))
        assert rep["t_prep"] == pytest.approx(expect, rel=1e-12)


class TestFig1Scan:
    def test_n1_row(self):
        rows = fig1_scan([1], 3, 5e-6, N50, OMEGA, master_seed=0)
        assert rows[0]["P_double_mean"] == 0.0
        assert rows[0]["P_zero_mean"] == 0.0

    def test_deterministic(self):
        a = fig1_scan([5, 20], 4, 5e-6, N50, OMEGA, master_seed=77)
        b = fig1_scan([5, 20], 4, 5e-6, N50, OMEGA, master_seed=77)
        assert a == b

    def test_linear_growth(self):
        ns = [10, 25, 40, 55, 70, 85, 100]
        rows = fig1_scan(ns, 8, 5e-6, N50, OMEGA, master_seed=5)
        y = np.array([r["P_zero_mean"] + r["P_double_mean"] for r in rows])
        slope, icept = np.polyfit(ns, y, 1)
        resid = y - (slope * np.array(ns) + icept)
        r2 = 1 - resid @ resid / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.9

    def test_trial_seed_determinism(self):
        assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)
        assert trial_seed(1, 2, 3) != trial_seed(1, 2, 4)


def test_blockade_summary_validation():
    with pytest.raises(ValueError):
        BlockadeSummary(l_factor=0.5, t_pi=1e-6, P_zero=0, P_single=1,
                        P_double=0, spontaneous_correction=0)
    with pytest.raises(ValueError):
        BlockadeSummary(l_factor=1.0, t_pi=1e-6, P_zero=0.9, P_single=0.9,
                        P_double=0, spontaneous_correction=0)


def test_two_photon_pulse_spec():
    k1 = TWO_PI / 780e-9 * np.array([0, 0, 1.0])
    k2 = TWO_PI / 480e-9 * np.array([0, 0, 1.0])
    p = PulseSpec.two_photon(TWO_PI * 10e6, TWO_PI * 20e6, TWO_PI * 1e9,
                             k1, k2, 1e-6)
    assert p.rabi_magnitude == pytest.approx(TWO_PI * 0.2e6)
    np.testing.assert_allclose(p.wavevector, k1 + k2)
