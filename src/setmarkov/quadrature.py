"""Fixed-order Gauss rules shared by the composed-kernel cdfs and the flow
semigroups (Golub & Welsch 1969): Legendre on a segment, Hermite against the
standard normal law, and Jacobi on [0, 1], whose weight carries the beta
endpoint singularities."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import linalg, special

HERMITE_ORDER = 64


@lru_cache(maxsize=None)
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def gauss_segment(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _legendre(order)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


@lru_cache(maxsize=None)
def hermite():
    """Nodes and weights of E[f(Z)] for a standard normal Z."""
    z, w = special.roots_hermitenorm(HERMITE_ORDER)
    return z, w / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=None)
def jacobi01(order: int, a: float, c: float):
    """Nodes/weights on [0, 1] for the weight y^(a-1) (1-y)^(c-1),
    normalized to integrate the constant 1 to 1 (a beta expectation rule):
    the eigenvalues and squared first eigenvector components of the Jacobi
    matrix of the Beta(a, c) law, finite at any total mass a + c."""
    s, n = a + c - 2.0, np.arange(1, order, dtype=float)
    diag = 0.5 + 0.5 * (a - c) * s / ((2 * n + s) * (2 * n + s + 2))
    k = n[1:]
    off2 = k * (k + a - 1) * (k + c - 1) * (k + s) / (
        (2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
    var = a * c / ((a + c) ** 2 * (a + c + 1))  # the k = 1 term, in closed form
    y, vec = linalg.eigh_tridiagonal(np.append(a / (a + c), diag),
                                     np.sqrt(np.append(var, off2)[:order - 1]))
    return y, vec[0] ** 2 / (vec[0] ** 2).sum()


@lru_cache(maxsize=None)
def jacobi01_raw(order: int, c: float):
    """Nodes/weights on [0, 1] for the weight (1-u)^(c-1), unnormalized:
    the beta rule at a = 1, whose weight integrates to 1/c."""
    u, w = jacobi01(order, 1.0, c)
    return u, w / c
