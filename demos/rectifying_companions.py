#!/usr/bin/env python3
"""Companion curves in the osculating plane, and the checks that judge them.

The construction places gamma = m T + n N over a donor frame, with (m, n)
the pair (s + b, a) rotated through the accumulated curvature angle.  A
rectifying companion should then satisfy three things: position confined
to its own rectifying plane, torsion/curvature growing along the line
(s + b)/a, and position parallel to the modified Darboux vector.

Those three hold only when the donor's curvature decays exactly like
a / (a^2 + (s+b)^2).  This script builds one donor with that profile and
one without it, runs both through the same pipeline, and prints the
verdicts side by side.
"""

import numpy as np

from frenetdir.curves import CurveSamples, evaluate_catalog
from frenetdir.frenet import frenet_apparatus
from frenetdir.numerics import uniform_grid
from frenetdir.od import ODParameters, od_osculating_curve, verify_od_properties

A, B = 1.0, 1.0


def matched_profile_donor(a, b, hi, n, tau_scale=4.0, sub=4):
    # integrate the frame system with kappa = a/(a^2+(s+b)^2) by fixed-step
    # RK4; torsion is a free multiple of the curvature
    s_nodes = np.linspace(0.0, hi, n)
    h = (s_nodes[1] - s_nodes[0]) / sub

    def rhs(s, y):
        T, N, Bv = y[3:6], y[6:9], y[9:12]
        k = a / (a * a + (s + b) ** 2)
        t = tau_scale * k
        return np.concatenate([T, k * N, -k * T + t * Bv, -t * N])

    y = np.concatenate([np.zeros(3), np.eye(3).ravel()])
    out = np.empty((n, 12))
    out[0] = y
    s = 0.0
    for i in range(1, n):
        for _ in range(sub):
            k1 = rhs(s, y)
            k2 = rhs(s + h / 2, y + h / 2 * k1)
            k3 = rhs(s + h / 2, y + h / 2 * k2)
            k4 = rhs(s + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        out[i] = y
    return CurveSamples(grid=uniform_grid(0.0, hi, n), points=out[:, :3])


def show(label, report):
    print(f"{label}")
    print(f"  speed deviation     {report.speed_deviation:.2e}")
    print(f"  rectifying normal   {report.rectifying.normal_component:.3e}")
    print(f"  ratio line          slope {report.ratio_fit.slope:+.4f} (target {1/A:+.4f}), "
          f"intercept {report.ratio_fit.intercept:+.4f} (target {B/A:+.4f})")
    print(f"  Darboux cross ratio {report.cross_ratio:.3e}")
    print(f"  all checks passed:  {'yes' if report.passed else 'no'}")
    print()


params = ODParameters(A, B, phase_c=np.arctan2(B, A))

donor_good = frenet_apparatus(matched_profile_donor(A, B, hi=4.0, n=1001))
gamma_good = od_osculating_curve(donor_good, params)
show("matched-profile donor (curvature decays as required)",
     verify_od_properties(gamma_good, params))

donor_flat = frenet_apparatus(
    evaluate_catalog("helix_12_5", grid=uniform_grid(0.0, 12.0, 1001))
)
gamma_flat = od_osculating_curve(donor_flat, ODParameters(A, B))
show("constant-curvature donor (12/5 helix window)",
     verify_od_properties(gamma_flat, ODParameters(A, B)))

print("the same code path produced both reports; the checks separate donors")
print("that satisfy the curvature-profile condition from donors that do not.")
