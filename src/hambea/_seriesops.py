"""One-coefficient recurrences for truncated power series of arrays.

A series is a list of arrays, entry i the coefficient of h^i, that its owner
extends one entry at a time: each function returns coefficient j from entries
up to j, accumulating from zeros in increasing i.  Trailing axes broadcast.
"""

from __future__ import annotations

import numpy as np


def product_coeff(a, b, j: int, start: int = 0) -> np.ndarray:
    """Coefficient j of the Cauchy product a b, from its terms a[i] b[j-i] with i >= start."""
    out = np.zeros(np.broadcast(a[0], b[0]).shape, dtype=complex)
    for i in range(start, j + 1):
        out += a[i] * b[j - i]
    return out


def reciprocal_coeff(a, r, j: int) -> np.ndarray:
    """Coefficient j of r = 1 / a, given r[:j]; a[0] must be invertible."""
    return 1.0 / a[0] if j == 0 else -r[0] * product_coeff(a, r, j, start=1)


def sincos_coeff(a, s, c, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients j of s = sin a and c = cos a (s' = c a', c' = -s a'), given s[:j], c[:j]."""
    if j == 0:
        return np.sin(a[0]), np.cos(a[0])
    da = [i * a[i] for i in range(j + 1)]
    return product_coeff(da, c, j, start=1) / j, -product_coeff(da, s, j, start=1) / j
