"""State-selective ejection from the FORT.

Builds the 100 mW / 5 um FORT plus the 9 uW / 10 um eject beam offset by
-3 um and detuned +1 GHz from the |b> transition, prints the potential
profile along the eject line, the characteristic eject time t1, the
expected photon scattering budget for both hyperfine states, and runs a
small thermal ensemble of recoil-kicked trajectories.
"""

import numpy as np

from rydsources import (EjectConfig, GaussianBeam, StateDetunings,
                        characteristic_eject_time, collimation_stats,
                        sample_thermal_initial, scan_fig2,
                        scattering_rate, simulate_trajectory,
                        state_potentials)

TWO_PI = 2 * np.pi


def main():
    fort = GaussianBeam(power=0.1, waist=5e-6, wavelength=1.06e-6)
    eject = GaussianBeam(power=9e-6, waist=10e-6, wavelength=780e-9,
                         focus_position=(-3e-6, 0, 0))
    eject_det = StateDetunings.from_detuning_b(TWO_PI * 1e9)
    field = state_potentials([
        (fort, StateDetunings.far_off_resonance(1.06e-6)),
        (eject, eject_det),
    ])

    profile = scan_fig2(field, (-15e-6, 0, 0), (15e-6, 0, 0), 13)
    print("potential along the eject line (uK / kB):")
    print("%10s %12s %12s" % ("x (um)", "U_a", "U_b"))
    for x, ua, ub in zip(profile["x"] - 15e-6, profile["U_a_over_kB_uK"],
                         profile["U_b_over_kB_uK"]):
        print("%10.1f %12.1f %12.1f" % (x * 1e6, ua, ub))

    accel = field.acceleration(np.zeros(3), "b")[0]
    t1 = characteristic_eject_time(accel, fort.waist)
    print("\ncoherent |b> push at the trap center: a = %.2e m/s^2" % accel)
    print("characteristic eject time t1 = %.1f us" % (t1 * 1e6))
    for state in ("b", "a"):
        n = scattering_rate(eject.peak_intensity,
                            eject_det.for_state(state)) * t1
        print("expected photons over t1, state %s: %.2f" % (state, n))

    config = EjectConfig(duration=300e-6, include_recoil_kicks=True)
    pos, vel = sample_thermal_initial(30e-6, 20, seed=1,
                                      cloud_diameter=5e-6)
    trajs = [simulate_trajectory((pos[i], vel[i]), field, "b", config,
                                 seed=50 + i) for i in range(20)]
    escaped = [tr for tr in trajs if tr.escaped]
    print("\n20 thermal |b> atoms at 30 uK with recoil kicks:")
    print("escape fraction: %.2f" % (len(escaped) / len(trajs)))
    print("median escape time: %.1f us"
          % (1e6 * np.median([tr.escape_time for tr in escaped])))
    mean_dir, rms_tv, ratio = collimation_stats(trajs, accel, t1, 780e-9)
    print("mean exit direction: [%.3f, %.3f, %.3f]" % tuple(mean_dir))
    print("rms transverse velocity: %.3f m/s" % rms_tv)
    print("recoil / coherent impulse ratio: %.3f" % ratio)


if __name__ == "__main__":
    main()
