"""Coefficient arithmetic for truncated power series of arrays.

All functions operate on ndarrays whose leading axis indexes the series order
(entry j = coefficient of h^j); trailing axes are arbitrary and broadcast
pointwise.  Truncation is implicit: outputs keep the input order.
"""

from __future__ import annotations

import numpy as np


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to the common order."""
    n = min(a.shape[0], b.shape[0])
    out = np.zeros((n,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
    for j in range(n):
        for i in range(j + 1):
            out[j] += a[i] * b[j - i]
    return out


def series_power(a: np.ndarray, n: int) -> np.ndarray:
    """Integer power a(h)^n, n >= 0."""
    if n < 0:
        raise ValueError("negative powers go through series_reciprocal")
    out = np.zeros_like(np.asarray(a, dtype=complex))
    out[0] = 1.0
    for _ in range(n):
        out = series_mul(out, a)
    return out


def series_reciprocal(a: np.ndarray) -> np.ndarray:
    """1 / a(h); requires an invertible leading coefficient."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    out[0] = 1.0 / a[0]
    for j in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for i in range(1, j + 1):
            acc = acc + a[i] * out[j - i]
        out[j] = -out[0] * acc
    return out


def series_sin(a: np.ndarray) -> np.ndarray:
    """sin a(h), from the coupled recurrences of sin and cos (s' = c a', c' = -s a')."""
    a = np.asarray(a, dtype=complex)
    s = np.zeros_like(a)
    c = np.zeros_like(a)
    s[0] = np.sin(a[0])
    c[0] = np.cos(a[0])
    for j in range(1, a.shape[0]):
        ss = np.zeros_like(a[0])
        cc = np.zeros_like(a[0])
        for i in range(1, j + 1):
            ss = ss + i * a[i] * c[j - i]
            cc = cc + i * a[i] * s[j - i]
        s[j] = ss / j
        c[j] = -cc / j
    return s
