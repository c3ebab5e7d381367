#!/usr/bin/env python3
# Build the osculating-direction companion of the unit helix and check the
# three predictions that make it interesting: its curvature pair is the
# donor's torsion split by the accumulated angle, its principal normal is
# the donor's binormal, and the donor's curvature pair can be recovered
# back from the companion alone.

import numpy as np

from frenetdir.curves import evaluate_catalog
from frenetdir.direction import (
    direction_field,
    donor_from_direction,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
    compare_predicted,
    predicted_bar_data,
)
from frenetdir.frenet import frenet_apparatus, unit_speed_deviation
from frenetdir.numerics import uniform_grid

PHASE = np.pi / 4

donor = frenet_apparatus(evaluate_catalog("circular_helix"))
coeffs = osculating_coefficients(donor, PHASE)
field = direction_field(donor, coeffs)
gamma = integrate_direction_curve(field)
companion = frenet_apparatus(gamma)

print("construction")
print(f"  donor: unit circular helix, kappa = tau = 1/2")
print(f"  angle: integral of donor curvature, phase {PHASE:.4f}")
print(f"  companion speed deviation: {unit_speed_deviation(companion):.2e}")

print()
print("curvature split against the closed form")
s = companion.grid.values
angle = s / 2 + PHASE
m = np.zeros(companion.grid.n, dtype=bool)
m[companion.grid.interior(6)] = True
m &= companion.frenet_valid
print(f"  max |kappa - |0.5 cos|| : {np.max(np.abs(companion.kappa[m] - np.abs(0.5*np.cos(angle[m])))):.2e}")
print(f"  max |tau - 0.5 sin|     : {np.max(np.abs(companion.tau[m] - 0.5*np.sin(angle[m]))):.2e}")

pb = predicted_bar_data(donor, coeffs)
rep = compare_predicted(companion, pb, coeffs, atol=2e-4)
print(f"  against the donor-side prediction: dev_kappa {rep.dev_kappa:.2e}, dev_tau {rep.dev_tau:.2e}, {'pass' if rep.passed else 'FAIL'}")

print()
print("principal normal versus donor binormal")
mann = mannheim_check(companion, donor)
print(f"  min |<N_companion, B_donor>| = {mann.min_alignment:.12f}")

print()
print("donor recovery from the companion alone")
# short window keeps the accumulated angle's cosine of one sign; the
# recovery differentiates a ratio of third-derivative output, so a coarse
# grid is the accurate one here
grid = uniform_grid(0.0, 1.47, 201)
d2 = frenet_apparatus(evaluate_catalog("circular_helix", grid=grid))
c2 = osculating_coefficients(d2, PHASE)
g2 = frenet_apparatus(integrate_direction_curve(direction_field(d2, c2)))
rec = donor_from_direction(g2)
inner = grid.interior(6)
print(f"  recovered kappa: {np.mean(rec.kappa[inner]):.6f} (donor 0.5)")
print(f"  recovered tau:   {np.mean(rec.tau[inner]):.6f} (donor 0.5)")
print(f"  worst relative error: {max(np.max(np.abs(rec.kappa[inner]-0.5)), np.max(np.abs(rec.tau[inner]-0.5)))/0.5:.2e}")
