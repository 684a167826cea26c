"""Physical parameters, dispersion relation and critical carrier selection.

Internal gravity waves over a slope tilted by gamma, buoyancy frequency
normalized to N = 1.  In slope coordinates a plane wave exp(i(kx + my - wt))
oscillates at

    w(k, m) = (k cos(gamma) - m sin(gamma)) / sqrt(k^2 + m^2),

so |w| <= 1 and the frequency fixes the propagation angle, not the
wavelength.  The wave (-k, -m) at -w is the complex conjugate, which every
real field holds, so this one branch is all there is.  Reflection is
critical when w^2 = sin(gamma)^2; the distance to criticality is measured
by zeta = w^2 - sin(gamma)^2.

Viscosity and diffusivity follow the Dauxois-Young scaling
nu = nu0 * eps^6, kappa = kappa0 * eps^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        if not (0.0 < self.nu0 < math.inf and 0.0 < self.kappa0 < math.inf):
            raise ValueError("nu0 and kappa0 must be positive and finite")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        ratio = self.nu0 / self.kappa0
        if not 0.1 <= ratio <= 10.0:
            raise ValueError(f"nu0/kappa0 = {ratio:g} outside [1/10, 10]")

    @property
    def nu(self) -> float:
        return self.nu0 * self.eps**6

    @property
    def kappa(self) -> float:
        return self.kappa0 * self.eps**6


def dispersion_omega(k, m, gamma: float):
    """Frequency of the plane wave (k, m) (elementwise for arrays).

    Returns (k cos g - m sin g)/sqrt(k^2+m^2); |result| <= 1.
    """
    norm2 = k * k + m * m
    if np.any(norm2 == 0.0):
        raise ValueError("dispersion is undefined at the zero wavevector")
    return (k * math.cos(gamma) - m * math.sin(gamma)) / np.sqrt(norm2)


def group_velocity(k: float, m: float, gamma: float) -> tuple[float, float]:
    """Gradient of dispersion_omega in (k, m).

    vg = (m cos g + k sin g)/(k^2+m^2)^{3/2} * (m, -k); orthogonal to the
    wavevector.
    """
    norm2 = k * k + m * m
    if norm2 == 0.0:
        raise ValueError("group velocity is undefined at the zero wavevector")
    common = (m * math.cos(gamma) + k * math.sin(gamma)) / norm2**1.5
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


def critical_carrier(gamma: float, k0: float) -> CriticalCarrier:
    """Select m0 so that (k0, m0) is critical and incident.

    The criticality condition (k0 cos g - m0 sin g)^2 = sin^2 g (k0^2+m0^2)
    has exactly one finite root in m0 (the quadratic's m^2 terms cancel):
    m0 = k0 / tan(2 gamma).  The other root runs off to infinity, which is
    the critical-reflection singularity itself.

    For gamma in (0, pi/2) it gives omega0 = sign(k0) sin(gamma) and
    vg_y = -k0^2 cos(gamma) / (sin(2 gamma) (k0^2 + m0^2)^{3/2}) < 0: every
    k0 > 0 is incident, so k0 > 0 is the one rule; -k0 is the conjugate lobe.
    """
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError("gamma must lie in (0, pi/2)")
    if not 0.0 < k0 < math.inf:
        raise ValueError(f"k0 must be finite and positive, got {k0!r}")
    m0 = k0 / math.tan(2.0 * gamma)
    return CriticalCarrier(k0, m0, dispersion_omega(k0, m0, gamma), gamma)
