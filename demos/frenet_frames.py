#!/usr/bin/env python3
"""Tour of the sampled-curve catalog and the Frenet pipeline.

Every curve is a sampled polyline on a uniform arc-length grid; the frame,
curvature, and torsion come out of finite differences, so the interesting
questions are always "how exact is it" and "where does it degrade".
"""

import numpy as np

from frenetdir.curves import catalog_entry, catalog_names, evaluate_catalog
from frenetdir.frenet import frenet_apparatus, frenet_derivative_check, verify_frame
from frenetdir.numerics import uniform_grid

print("catalog")
print("-------")
for name in catalog_names():
    e = catalog_entry(name)
    lo, hi = e.domain
    print(f"{name:16s} domain [{lo:g}, {hi:g}]  params {e.parameters or '-'}")

print()
print("constant curvatures of the 12/5 helix")
print("-------------------------------------")
f = frenet_apparatus(evaluate_catalog("helix_12_5"))
inner = f.grid.interior()
print(f"kappa: mean {np.mean(f.kappa[inner]):.12f}  target {12/169:.12f}")
print(f"tau:   mean {np.mean(f.tau[inner]):.12f}  target {5/169:.12f}")
print(f"max deviation: {max(np.max(np.abs(f.kappa[inner] - 12/169)), np.max(np.abs(f.tau[inner] - 5/169))):.3e}")

print()
print("frame quality across the catalog")
print("--------------------------------")
for name in catalog_names():
    f = frenet_apparatus(evaluate_catalog(name))
    r = verify_frame(f, tol=1e-6)
    worst = max(r.norm_T, r.norm_N, r.norm_B, r.dot_TN, r.dot_TB, r.dot_NB)
    print(f"{name:16s} orthonormality {worst:.2e}  handedness {r.handedness:.2e}  {'ok' if r.passed else 'BAD'}")

print()
print("frame-derivative residuals shrink like h^4, then hit the floor")
print("--------------------------------------------------------------")
print(f"{'n':>6s} {'worst residual':>16s} {'factor':>8s}")
prev = None
for n in (251, 501, 1001):
    f = frenet_apparatus(
        evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, n))
    )
    r = frenet_derivative_check(f)
    worst = max(r.res_T, r.res_N, r.res_B)
    factor = "" if prev is None else f"{prev / worst:8.1f}"
    print(f"{n:6d} {worst:16.3e} {factor}")
    prev = worst
print("the last step is roundoff-limited: differentiating twice divides")
print("machine noise by h^2, so past the sweet spot accuracy falls with n.")

print()
print("a straight segment has no frame at all")
print("--------------------------------------")
g = uniform_grid(0.0, 1.0, 101)
from frenetdir.curves import CurveSamples

line = CurveSamples(g, np.stack([g.values, 0 * g.values, 0 * g.values], axis=1))
fl = frenet_apparatus(line)
print(f"valid samples: {int(fl.frenet_valid.sum())} of {fl.grid.n} (curvature sits below the floor)")
