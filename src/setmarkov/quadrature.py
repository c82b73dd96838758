"""Fixed-order Gauss rules shared by the composed-kernel cdfs and the flow
semigroups (Golub & Welsch 1969): Legendre on a segment, Hermite against the
standard normal law, and Jacobi on [0, 1], whose weight carries the beta
endpoint singularities."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

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
def hermite(order: int = HERMITE_ORDER):
    """Nodes and weights of E[f(Z)] for a standard normal Z."""
    z, w = special.roots_hermitenorm(order)
    return z, w / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=None)
def jacobi01(order: int, a: float, c: float):
    """Nodes/weights on [0, 1] for the weight y^(a-1) (1-y)^(c-1),
    normalized to integrate the constant 1 to 1 (a beta expectation rule)."""
    x, w = special.roots_jacobi(order, c - 1.0, a - 1.0)
    return (x + 1.0) / 2.0, w / w.sum()


@lru_cache(maxsize=None)
def jacobi01_raw(order: int, c: float):
    """Nodes/weights on [0, 1] for the weight (1-u)^(c-1), unnormalized."""
    x, w = special.roots_jacobi(order, c - 1.0, 0.0)
    return (x + 1.0) / 2.0, w * 2.0 ** (-c)
