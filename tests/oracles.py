"""Closed-form reference data for the catalog curves.

These expressions were derived by hand from each parametrization and frozen
before the numerical pipeline existed; tests compare pipeline output against
them rather than against other pipeline output.  Each function takes an array
of arc-length values and returns a dict with keys T, N, B (arrays of shape
(n, 3)) and kappa, tau (arrays of shape (n,)).
"""

import numpy as np


def circular_helix_frame(s, a=1.0, b=1.0, scale=1.0):
    R = a * scale
    P = b * scale
    m = np.sqrt(R * R + P * P)
    u = s / m
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    T = np.stack([-(R / m) * np.sin(u), (R / m) * np.cos(u), (P / m) * one], axis=1)
    N = np.stack([-np.cos(u), -np.sin(u), zero], axis=1)
    B = np.stack([(P / m) * np.sin(u), -(P / m) * np.cos(u), (R / m) * one], axis=1)
    return {
        "T": T,
        "N": N,
        "B": B,
        "kappa": np.full_like(s, R / m**2),
        "tau": np.full_like(s, P / m**2),
    }


def helix_12_5_frame(s):
    return circular_helix_frame(s, a=12.0, b=5.0, scale=1.0)


def root_curve_frame(s):
    r = np.sqrt(2.0) / 2.0
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    T = r * np.stack([np.sqrt(s), -np.sqrt(1.0 - s), one], axis=1)
    N = np.stack([np.sqrt(1.0 - s), np.sqrt(s), zero], axis=1)
    B = r * np.stack([-np.sqrt(s), np.sqrt(1.0 - s), one], axis=1)
    kappa = (np.sqrt(2.0) / 4.0) / np.sqrt(s * (1.0 - s))
    return {"T": T, "N": N, "B": B, "kappa": kappa, "tau": kappa.copy()}


def spherical_helix_frame(s, c=2.0):
    w = np.sqrt(1.0 + c * c) / c
    t = np.arcsin(c * s)
    wt = w * t
    root = np.sqrt(1.0 + c * c)
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    T = np.stack([-np.sin(wt), -np.cos(wt), c * one], axis=1) / root
    N = np.stack([-np.cos(wt), np.sin(wt), zero], axis=1)
    B = np.stack([-c * np.sin(wt), -c * np.cos(wt), -one], axis=1) / root
    kappa = 1.0 / np.sqrt(1.0 - (c * s) ** 2)
    return {"T": T, "N": N, "B": B, "kappa": kappa, "tau": -c * kappa}


FRAME_ORACLES = {
    "circular_helix": circular_helix_frame,
    "helix_12_5": helix_12_5_frame,
    "root_curve": root_curve_frame,
    "spherical_helix": spherical_helix_frame,
}


# (a, b, k, alpha, turns, n) of warped helices: the command line benchmark's
# input family, three cases near n = 2000 and one coarse case
WARPED_HELICES = (
    (1.3, 0.8, 2, 0.4, 4, 2001),
    (0.7, 1.6, 3, 0.6, 6, 1901),
    (2.0, 0.5, 1, 0.2, 2, 2101),
    (1.3, 0.8, 2, 0.4, 4, 501),
)


def warped_helix(a, b, k, alpha, turns, n):
    """The helix (a cos(s/m), a sin(s/m), b s/m), m = hypot(a, b), sampled
    at s(u) = L (u + alpha sin(2 pi k u) / (2 pi k)) for n uniform u in
    [0, 1], with L = 2 pi turns m: a regular parameter that is not arc
    length.  Returns the points, s at each sample, and the constant
    curvature and torsion."""
    m = np.hypot(a, b)
    u = np.linspace(0.0, 1.0, n)
    s = 2 * np.pi * turns * m * (u + alpha * np.sin(2 * np.pi * k * u) / (2 * np.pi * k))
    pts = np.stack([a * np.cos(s / m), a * np.sin(s / m), b * s / m], axis=1)
    return pts, s, a / m**2, b / m**2
