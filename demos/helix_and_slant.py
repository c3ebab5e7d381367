#!/usr/bin/env python3
# Classification walk-through: lines, plane curves, general helices, slant
# helices, and what each verdict is measured from.

import numpy as np

from frenetdir.classify import classify, general_helix_test, slant_helix_test
from frenetdir.curves import CurveSamples, evaluate_catalog
from frenetdir.direction import (
    direction_field,
    integrate_direction_curve,
    osculating_coefficients,
)
from frenetdir.frenet import frenet_apparatus
from frenetdir.numerics import uniform_grid


def verdict_line(label, rep):
    flags = []
    for name in ("is_line", "is_plane", "is_general_helix", "is_slant_helix", "is_rectifying"):
        if getattr(rep, name):
            flags.append(name[3:])
    print(f"  {label:28s} -> {', '.join(flags) if flags else 'nothing'}")


print("catalog classifications")
g = uniform_grid(0.0, 2 * np.pi, 2001)
circle = CurveSamples(
    g, np.stack([np.cos(g.values), np.sin(g.values), 0 * g.values], axis=1)
)
verdict_line("unit circle", classify(circle))
verdict_line("unit helix", classify(evaluate_catalog("circular_helix")))
verdict_line(
    "root curve (trimmed)",
    classify(evaluate_catalog("root_curve", grid=uniform_grid(0.05, 0.95, 401))),
)

print()
print("the root curve is a general helix: torsion/curvature stays put")
f = frenet_apparatus(evaluate_catalog("root_curve", grid=uniform_grid(0.05, 0.95, 401)))
rep = general_helix_test(f)
print(f"  ratio mean {rep.mean:.6f}, relative variation {rep.rel_variation:.2e}, constant: {rep.is_constant}")

print()
print("direction curves swap the roles")
# the companion of a helix is a slant helix and NOT a general helix; its
# slant constant equals the donor's kappa/tau
for name, phase, expect in (("circular_helix", np.pi / 4, 1.0), ("helix_12_5", 0.11, 2.4)):
    donor = frenet_apparatus(evaluate_catalog(name))
    dc = osculating_coefficients(donor, phase)
    comp = frenet_apparatus(integrate_direction_curve(direction_field(donor, dc)))
    helix_rep = general_helix_test(comp)
    slant_rep = slant_helix_test(comp)
    print(
        f"  companion of {name:15s} general-helix: {helix_rep.is_constant!s:5s} "
        f"slant sigma mean {slant_rep.mean:.5f} (donor kappa/tau = {expect})"
    )

print()
print("verdicts survive rigid motion")
rng = np.random.default_rng(11)
q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
if np.linalg.det(q) < 0:
    q[:, 0] *= -1.0
c = evaluate_catalog("circular_helix")
moved = CurveSamples(c.grid, c.points @ q.T + np.array([4.0, -1.0, 2.5]))
base, turned = classify(c), classify(moved)
same = all(
    getattr(base, k) == getattr(turned, k)
    for k in ("is_line", "is_plane", "is_general_helix", "is_slant_helix", "is_rectifying")
)
print(f"  flags identical: {same}")
print(f"  helix-ratio mean shift: {abs(base.helix_ratio.mean - turned.helix_ratio.mean):.2e}")
