"""Phased-array single-photon emission patterns.

Shows the phase-matched lobe (peak exactly N on a unit background), its
width against the diffraction scale lambda/D, the phase-conjugate mode
for counter-propagating excitation, the suppression of the
double-excitation channel in tilted geometries, and thermal motional
blur over the preparation time.
"""

import numpy as np

from rydsources import (EmissionGeometry, RB87, double_excitation_at,
                        expected_peak_direction, motional_blur,
                        pattern_metrics, sample_cloud,
                        single_photon_pattern)

LAMBDA4 = 0.78e-6


def main():
    geo = EmissionGeometry.collinear_degenerate(LAMBDA4)
    print("collinear degenerate geometry, D = 5 um, lambda4 = 0.78 um")
    print("%6s %10s %10s %12s" % ("N", "peak", "bg", "FWHM (rad)"))
    for N in (10, 50, 200):
        cloud = sample_cloud(N, 5e-6, seed=N)
        metrics = pattern_metrics(single_photon_pattern(cloud, geo))
        print("%6d %10.2f %10.3f %12.4f"
              % (N, metrics.peak_value, metrics.mean_background,
                 metrics.fwhm))
    print("diffraction scale lambda/D = %.4f rad; a uniform ball gives "
          "1.156 lambda/D = %.4f rad" % (LAMBDA4 / 5e-6, 1.156 * LAMBDA4 / 5e-6))

    print("\nphase conjugate mode (k2 = -k1):")
    geo_c = EmissionGeometry.counterpropagating(LAMBDA4, (0, 0, 1))
    cloud = sample_cloud(50, 5e-6, seed=1)
    got = single_photon_pattern(cloud, geo_c).argmax_direction()
    want, _ = expected_peak_direction(geo_c)
    print("argmax [%.3f, %.3f, %.3f] vs -k3-hat [%.0f, %.0f, %.0f]"
          % (*got, *want))

    print("\ndouble-excitation channel at the single-photon peak:")
    for phi_deg in (5, 10, 20):
        geo_t = EmissionGeometry.tilted(np.radians(phi_deg), LAMBDA4)
        vals = []
        for s in range(5):
            cl = sample_cloud(50, 5e-6, seed=200 + s)
            peak_dir = single_photon_pattern(cl, geo_t,
                                             n_theta=121).argmax_direction()
            vals.append(double_excitation_at(cl, geo_t,
                                             peak_dir[None, :])[0])
        print("tilt %3d deg: %.2f (vs peak value N = 50)"
              % (phi_deg, np.mean(vals)))

    dx, frac = motional_blur(30e-6, 3e-6, RB87, LAMBDA4)
    print("\nmotional blur, 30 uK over a 3 us preparation: "
          "dx = %.3f um = %.2f lambda4" % (dx * 1e6, frac))


if __name__ == "__main__":
    main()
