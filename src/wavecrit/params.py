"""Physical parameters, dispersion relation and critical carrier selection.

Internal gravity waves over a slope tilted by gamma, buoyancy frequency
normalized to N = 1.  In slope coordinates a plane wave exp(i(kx + my - wt))
oscillates at

    w(k, m) = +/- (k cos(gamma) - m sin(gamma)) / sqrt(k^2 + m^2),

so |w| <= 1 and the frequency fixes the propagation angle, not the
wavelength.  Reflection is critical when w^2 = sin(gamma)^2; the distance to
criticality is measured by zeta = w^2 - sin(gamma)^2.

Viscosity and diffusivity follow the Dauxois-Young scaling
nu = nu0 * eps^6, kappa = kappa0 * eps^6.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Branch(enum.Enum):
    """Sign of the frequency branch.  Always explicit, never inferred."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class PhysParams:
    """Slope angle and asymptotic parameters.

    nu and kappa are always derived as nu0*eps^6, kappa0*eps^6 and never
    stored independently.  The Prandtl-like ratio nu0/kappa0 must stay
    within [1/10, 10] (the "nu/kappa of order one" standing assumption).
    """

    gamma: float
    nu0: float = 1.0
    kappa0: float = 1.0
    eps: float = 0.2
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.gamma < math.pi / 2:
            raise ValueError(f"gamma must lie in (0, pi/2), got {self.gamma}")
        if self.nu0 <= 0 or self.kappa0 <= 0:
            raise ValueError("nu0 and kappa0 must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        ratio = self.nu0 / self.kappa0
        if not 0.1 <= ratio <= 10.0:
            raise ValueError(f"nu0/kappa0 = {ratio:g} outside [1/10, 10]")

    @property
    def nu(self) -> float:
        return self.nu0 * self.eps**6

    @property
    def kappa(self) -> float:
        return self.kappa0 * self.eps**6


def dispersion_omega(k, m, gamma: float, branch: Branch):
    """Frequency of the plane wave (k, m) on the chosen branch (elementwise
    for arrays).

    Returns +/- (k cos g - m sin g)/sqrt(k^2+m^2); |result| <= 1.
    """
    norm2 = k * k + m * m
    if np.any(norm2 == 0.0):
        raise ValueError("dispersion is undefined at the zero wavevector")
    return branch.sign * (k * math.cos(gamma) - m * math.sin(gamma)) / np.sqrt(norm2)


def group_velocity(k: float, m: float, gamma: float, branch: Branch) -> tuple[float, float]:
    """Gradient of dispersion_omega in (k, m).

    vg = +/- (m cos g + k sin g)/(k^2+m^2)^{3/2} * (m, -k); orthogonal to
    the wavevector.
    """
    norm2 = k * k + m * m
    if norm2 == 0.0:
        raise ValueError("group velocity is undefined at the zero wavevector")
    common = branch.sign * (m * math.cos(gamma) + k * math.sin(gamma)) / norm2**1.5
    return (common * m, -common * k)


def criticality_zeta(omega, gamma):
    """Criticality parameter zeta = omega^2 - sin(gamma)^2 (elementwise for
    arrays)."""
    return omega * omega - np.sin(gamma) ** 2


@dataclass(frozen=True)
class CriticalCarrier:
    """A carrier wavevector sitting exactly on the critical set.

    omega0 = sin(gamma), and the group velocity at (k0, m0) points towards
    the slope (negative y component): the carrier is incident.
    """

    k0: float
    m0: float
    omega0: float
    gamma: float
    branch: Branch


def critical_carrier(gamma: float, k0: float, branch: Branch = Branch.PLUS) -> CriticalCarrier:
    """Select m0 so that (k0, m0) is critical and incident.

    The criticality condition (k0 cos g - m0 sin g)^2 = sin^2 g (k0^2+m0^2)
    has exactly one finite root in m0 (the quadratic's m^2 terms cancel):
    m0 = k0 / tan(2 gamma).  The other root runs off to infinity, which is
    the critical-reflection singularity itself.
    """
    if k0 == 0.0:
        raise ValueError("k0 must be nonzero")
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError("gamma must lie in (0, pi/2)")
    m0 = k0 / math.tan(2.0 * gamma)
    omega0 = dispersion_omega(k0, m0, gamma, branch)
    if omega0 <= 0.0:
        raise ValueError(
            "no incident critical carrier with omega0 = sin(gamma) on this branch; "
            "flip the sign of k0 or the branch"
        )
    _, vg_y = group_velocity(k0, m0, gamma, branch)
    if vg_y >= 0.0:
        raise ValueError("carrier group velocity does not point towards the slope")
    return CriticalCarrier(k0=k0, m0=m0, omega0=omega0, gamma=gamma, branch=branch)
