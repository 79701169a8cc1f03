"""Dispersion-immune distance measurement with optical frequency combs.

Submodules:

    air_model   Boensch-Potulski refractive index of air and its derivatives
    mode_algebra  Hermite-Gauss spectral modes and inner products
    dispersion  ranging perturbations, exact phase gradients, linearity guard
    detection   ranging detection modes, exact purification, shot-noise
                limits, contamination report
    multicolor  two-/three-wavelength interferometry baselines
    simulator   seeded Monte Carlo of the shaped-LO measurement
    config/cli  run configuration and command-line front end
"""
