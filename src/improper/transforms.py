"""Coordinate systems for complex n-vectors: real, polar, sheared-polar.

Phases are stored in turns, i.e. fractions of a full revolution in [0, 1),
so the phase algebra is plain mod-1 arithmetic. The polar representation of
x is (r_1..r_n, phi_1..phi_n) with x_k = r_k exp(i 2 pi phi_k); the sheared
representation replaces the first n-1 phases by their offsets from the last
one, phi'_k = (phi_k - phi_n) mod 1, leaving the last phase as the common
rotation angle. A vector is circular exactly when its density does not
depend on that last phase.

Densities transform with Jacobian (2 pi)^n * r_1 ... r_n from real to polar
coordinates; the shear has unit Jacobian. Points with r_k = 0 take the
convention phi_k = 0 and carry zero polar density.

Both representations are PolarPoints (radii and phases); the function
names say which one a point is in: polar_to_sheared returns, and
sheared_to_polar and sheared_density take, phases whose first n-1 entries
are offsets from the last.

All functions are vectorized over leading axes: radii/phases have shape
(..., n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import real_vector


def mod1(x) -> np.ndarray:
    """Canonical mod-1: values in [0, 1), correct for negative inputs.

    The single rounding hazard is a tiny negative argument whose fractional
    part rounds up to exactly 1.0; it is mapped to 0.0.
    """
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x)
    return np.where(out >= 1.0, 0.0, out)


@dataclass(frozen=True)
class PolarPoint:
    r: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.shape != phi.shape:
            raise DimensionMismatch(f"r and phi shapes differ: {r.shape} / {phi.shape}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)


def real_to_polar(x) -> PolarPoint:
    """Moduli and phases (in turns) of complex vectors; phi = 0 where r = 0."""
    x = np.asarray(x, dtype=complex)
    r = np.abs(x)
    phi = mod1(np.angle(x) / (2.0 * np.pi))
    phi = np.where(r == 0.0, 0.0, phi)
    return PolarPoint(r=r, phi=phi)


def polar_to_real(p: PolarPoint) -> np.ndarray:
    """Complex vectors r * exp(i 2 pi phi)."""
    return p.r * np.exp(2j * np.pi * p.phi)


def polar_to_sheared(p: PolarPoint) -> PolarPoint:
    """Re-express the first n-1 phases relative to the last one."""
    phi = np.array(p.phi, dtype=float, copy=True)
    last = phi[..., -1:]
    phi[..., :-1] = mod1(phi[..., :-1] - last)
    return PolarPoint(r=np.array(p.r, copy=True), phi=phi)


def sheared_to_polar(s: PolarPoint) -> PolarPoint:
    """Exact inverse of polar_to_sheared."""
    phi = np.array(s.phi, dtype=float, copy=True)
    last = phi[..., -1:]
    phi[..., :-1] = mod1(phi[..., :-1] + last)
    return PolarPoint(r=np.array(s.r, copy=True), phi=phi)


def polar_density(f_real, p: PolarPoint):
    """Density of the polar representation given the real-representation pdf.

    f_real must accept a (..., 2n) real array (stacked [Re x; Im x]) and
    return densities of shape (...). The value is
    (2 pi)^n * prod(r) * f_real(T(p)); it vanishes whenever some r_k = 0.
    """
    n = p.r.shape[-1]
    jac = (2.0 * np.pi) ** n * np.prod(p.r, axis=-1)
    vals = np.asarray(f_real(real_vector(polar_to_real(p))), dtype=float)
    out = np.where(jac > 0.0, jac * vals, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def sheared_density(f_real, s: PolarPoint):
    """Density of the sheared-polar representation (the shear has unit Jacobian)."""
    return polar_density(f_real, sheared_to_polar(s))
