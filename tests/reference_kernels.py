"""The energy, gradient and fold as first written, one numpy expression each.

The kernels of magnetodisk.operators build the same fields in place, fused
(energy_parts hands dv and sin 2h to gradient_from_parts), and do the same
floating-point operations in the same order, so they must agree with these
bit for bit.  The references read only the grid's nodes and weights.
"""

import numpy as np


def kappa(grid):
    """P1 cell coefficients: kappa_k (v_{k+1} - v_k)^2 = int v_r^2 r dr on
    cell k for linear v."""
    r = grid.nodes
    return (r[:-1] + r[1:]) / (2.0 * (r[1:] - r[:-1]))


def reference_energy(grid, values, mu):
    v = values[1:]
    sin2h = np.sin(2.0 * v)
    nodal = (np.sin(v) / grid.nodes[1:]) ** 2 - 0.5 * mu * sin2h * sin2h
    return np.pi * (float(np.sum(kappa(grid) * np.diff(values) ** 2))
                    + float(np.sum(grid.weights[1:] * nodal)))


def reference_gradient(grid, values, mu):
    r = grid.nodes
    w = grid.weights
    flux = kappa(grid) * np.diff(values)
    q = np.concatenate(([0.0], flux)) - np.concatenate((flux, [0.0]))
    sin2h = np.sin(2.0 * values)
    g = np.zeros_like(values)
    g[1:] = (
        q[1:] / w[1:]
        + sin2h[1:] / (2.0 * r[1:] ** 2)
        - mu * sin2h[1:] * np.cos(2.0 * values[1:])
    )
    return g


def reference_fold(values):
    """|.|, then one reflection sweep at a time; and whether anything moved."""
    a = np.abs(values)
    changed = bool((values < 0.0).any())
    while (a > np.pi / 2.0).any():
        a = np.where(a > np.pi / 2.0, np.abs(np.pi - a), a)
        changed = True
    return a, changed
