"""Diffraction coefficient of a flat two-dimensional cone.

For a cone of total link angle A, write beta = 2*pi/A.  The strictly
diffractive directions carry the coefficient

    D_A(dtheta) = (i / (2A)) * ( cot(beta*(dtheta - pi)/2)
                               - cot(beta*(dtheta + pi)/2) ),

the Abel-regularised value of the mode sum

    (1/A) * sum_{k in Z} r^{|k|} e^{-i pi beta |k|} e^{i beta k dtheta}

as r -> 1.  The truncated mode sum is kept as an independent oracle: the
two routes to the same number share no code.  Directions with dtheta
congruent to +/-pi on the link circle are geometric rays, where the
kernel degenerates to propagation and the coefficient is singular.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometricRaySingularity
from .geometry import TWO_PI, link_distance, pi_related

# distance, in cotangent-argument units, from a multiple of pi at which
# diffraction_coefficient refuses to evaluate (a geometric ray)
COT_SINGULARITY_GUARD = 1e-8


@dataclass(frozen=True)
class DiffractionEvaluator:
    cone_angle: float

    def __post_init__(self):
        if not (0.0 < self.cone_angle < math.inf):
            raise ValueError(
                f"cone angle must be finite and positive, got {self.cone_angle!r}")

    @property
    def beta(self) -> float:
        return TWO_PI / self.cone_angle


def _cot(u: float) -> float:
    return 1.0 / math.tan(u)


def is_geometric(ev: DiffractionEvaluator, dtheta: float,
                 guard: float = 1e-8) -> bool:
    """True when dtheta is within ``guard`` of +/-pi modulo the link circle."""
    return pi_related(dtheta, ev.cone_angle, guard)


def diffraction_coefficient(ev: DiffractionEvaluator, dtheta: float) -> complex:
    """Closed-form coefficient D_A(dtheta); even in dtheta, A-periodic.

    Raises ValueError on a non-finite dtheta, and
    GeometricRaySingularity when either cotangent argument
    beta*(dtheta -/+ pi)/2 falls within COT_SINGULARITY_GUARD (1e-8) of a
    multiple of pi.  A cone angle of exactly 2*pi is a smooth plane point:
    the two cotangents cancel identically and the value is exactly zero.
    """
    if not math.isfinite(dtheta):
        raise ValueError(f"dtheta must be finite, got {dtheta!r}")
    a = ev.cone_angle
    beta = ev.beta
    u_minus = beta * (dtheta - math.pi) / 2.0
    u_plus = beta * (dtheta + math.pi) / 2.0
    for u in (u_minus, u_plus):
        if link_distance(u, math.pi) <= COT_SINGULARITY_GUARD:
            raise GeometricRaySingularity(
                f"dtheta={dtheta!r} lies on a geometric ray of the cone "
                f"(angle {a!r}); the coefficient is singular there"
            )
    if abs(a - TWO_PI) <= 4 * np.finfo(float).eps * TWO_PI:
        return 0.0 + 0.0j
    return (1j / (2.0 * a)) * (_cot(u_minus) - _cot(u_plus))


def diffraction_series_oracle(ev: DiffractionEvaluator, dtheta: float,
                              terms: int, abel_radius: float) -> complex:
    """Truncated Abel mode sum; independent cross-check of the closed form.

    Returns
        (1/A) * sum_{|k| <= terms} r^{|k|} e^{-i pi beta |k|} e^{i beta k dtheta}.
    The partial sum converges to the closed form only when the damping has
    room to act, i.e. terms*(1-r) >> 1; callers choose the pairing.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if not (0.0 < abel_radius < 1.0):
        raise ValueError("abel_radius must lie in (0, 1)")
    a = ev.cone_angle
    beta = ev.beta
    # terms +-k sum to q_+^k + q_-^k, q_+- = r e^{i beta (+-dtheta - pi)}:
    # two finite geometric series, each q (1 - q^K) / (1 - q) in closed form
    total = 1.0 + 0.0j
    for sign in (1.0, -1.0):
        phase = beta * (sign * dtheta - math.pi)
        q = abel_radius * cmath.exp(1j * phase)
        q_terms = abel_radius ** terms * cmath.exp(1j * phase * terms)
        total += q * (1.0 - q_terms) / (1.0 - q)
    return complex(total / a)
