"""Incident wave packet and its viscous boundary-layer companions.

The linear approximate solution is built from a spectral envelope

    A(k, m) = eps^-2 [ chi((k-k0)/eps^2) chi((m-m0)/eps^2)
                     + chi((k+k0)/eps^2) chi((m+m0)/eps^2) ],

with chi a C-infinity bump supported on [-1, 1] and (k0, m0) a critical
carrier.  Each spectral node (k, m) contributes an incident plane wave with
polarization X = (1, -k/m, i (k cos g - m sin g)/(m w)) and a boundary lift
(labels 2, 3, 5 of the characteristic roots at that (w, k)) chosen so the
total wall traces of u, w and d_y b vanish node by node.  The lambda_2 and
lambda_3 modes decay on the eps^2 scale and the lambda_5 mode on the eps^3
scale, which splits the lift into two boundary-layer families.

The minus lobe of A is the exact complex conjugate of the plus lobe, so
only the plus lobe is assembled; physical fields are F + conj(F).  The
discrete quadrature makes every field periodic in x (and the incident one
in y) with period 2 pi / (eps^2 * dxi), which packet_norms exploits.

Every family, here and in the corrector, is one ExpModes set: modes
(cu, cw, cb) exp(i l x - i alpha t - mu y) with the quadrature amplitude
folded into the coefficients (an incident wave has mu = -i m).  Both the
incident polarization and the lift eigenvectors have U = 1, so the cu of
an incident mode is its node's quadrature amplitude, and a lift mode's cu
divided by it is the lift amplitude per unit trace.  ExpModes and its one
evaluator, evaluate_modes, live in boundary, whose lifts return them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import ExpModes, evaluate_modes, lift_critical
from .characteristic import CRITICAL_REGIMES, ModalMatrixSpec, roots_for
from .params import CriticalCarrier, PhysParams, dispersion_omega


def chi_bump(s):
    """C-infinity bump exp(-1/(1-s^2)) on |s| < 1, normalized to peak 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si) + 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Envelope:
    """Spectral envelope: chi_bump profile, carrier and concentration scale."""

    carrier: CriticalCarrier
    eps: float

    def amplitude(self, k, m):
        """A(k, m): both lobes, concentration eps^2 around +/-(k0, m0)."""
        e2 = self.eps**2
        c = self.carrier
        return (
            chi_bump((np.asarray(k) - c.k0) / e2) * chi_bump((np.asarray(m) - c.m0) / e2)
            + chi_bump((np.asarray(k) + c.k0) / e2) * chi_bump((np.asarray(m) + c.m0) / e2)
        ) / e2


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor trapezoid rule on the plus lobe [-1, 1]^2 in (xi, eta)."""

    nodes_per_lobe: int = 9

    def __post_init__(self):
        if self.nodes_per_lobe < 4:
            raise ValueError("need at least 4 nodes per lobe")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.nodes_per_lobe
        s = np.linspace(-1.0, 1.0, n)
        h = s[1] - s[0]
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        return s, w


class Family(enum.Enum):
    INCIDENT = "Incident"
    BLEPS2 = "BLeps2"
    BLEPS3 = "BLeps3"
    SUM = "Sum"


class RegimeError(RuntimeError):
    """A quadrature node fell outside the critical root family."""


@dataclass
class PacketAssembly:
    """All modes of the linear approximate solution, grouped by family."""

    params: PhysParams
    envelope: Envelope
    families: dict[Family, ExpModes]
    x_period: float  # period of the discrete k-lattice in x

    def bundle(self, family: Family) -> ExpModes:
        if family is Family.SUM:
            return ExpModes.concat(
                self.families[f] for f in (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3)
            )
        return self.families[family]


def incident_polarization(k: float, m: float, gamma: float, omega: float):
    """X_{k,m} = (1, -k/m, i (k cos g - m sin g)/(m w)); divergence-free."""
    num = k * math.cos(gamma) - m * math.sin(gamma)
    return 1.0 + 0.0j, -k / m + 0.0j, 1j * num / (m * omega)


def assemble_W0(
    params: PhysParams, envelope: Envelope, quad: QuadratureSpec
) -> PacketAssembly:
    """Quadrature of the plus lobe: incident modes plus per-node wall lifts.

    For every node, the lift cancels the incident wall traces
    (u, w, d_y b) = (1, -k/m, -(k cos g - m sin g)/w) times the node
    amplitude, so the assembled solution satisfies the wall conditions with
    no error at all; the only linear residual is viscosity acting on the
    incident modes.
    """
    eps = params.eps
    car = envelope.carrier
    if abs(car.gamma - params.gamma) > 1e-14:
        raise ValueError("carrier and params disagree on gamma")
    e2 = eps**2
    s, wts = quad.nodes_weights()
    sg, cg = math.sin(params.gamma), math.cos(params.gamma)

    inc, bl2, bl3 = [], [], []

    for i, xi in enumerate(s):
        for j, eta in enumerate(s):
            chi2 = chi_bump(xi) * chi_bump(eta)
            if chi2 == 0.0:
                continue
            k = car.k0 + e2 * xi
            m = car.m0 + e2 * eta
            omega = dispersion_omega(k, m, params.gamma, car.branch)
            # node amplitude: A * dk * dm = eps^2 chi chi w_i w_j
            amp = e2 * chi2 * wts[i] * wts[j]
            U, W, B = incident_polarization(k, m, params.gamma, omega)
            # exp(-mu y) = exp(i m y)
            inc.append((k, omega, -1j * m, amp * U, amp * W, amp * B))

            spec = ModalMatrixSpec(params.nu, params.kappa, omega, k, params.gamma)
            roots = roots_for(spec)
            if roots.regime not in CRITICAL_REGIMES:
                raise RegimeError(
                    f"node (k={k:.4g}, m={m:.4g}) classified {roots.regime}; "
                    "the packet construction assumes the critical root family"
                )
            num = k * cg - m * sg
            lift = lift_critical(spec, roots, [-amp, amp * k / m, amp * num / omega])
            bl2.append(lift[:2])  # labels 2 and 3
            bl3.append(lift[2:])  # label 5

    dxi = s[1] - s[0]
    return PacketAssembly(
        params=params,
        envelope=envelope,
        families={
            Family.INCIDENT: ExpModes.from_rows(inc),
            Family.BLEPS2: ExpModes.concat(bl2),
            Family.BLEPS3: ExpModes.concat(bl3),
        },
        x_period=2.0 * math.pi / (e2 * dxi),
    )


@dataclass
class PacketField:
    """Evaluated field on a tensor grid; components include the c.c. part."""

    x: np.ndarray
    y: np.ndarray
    t: float
    u: np.ndarray  # shape (len(y), len(x))
    w: np.ndarray
    b: np.ndarray
    family: Family
    warnings: list[str] = field(default_factory=list)

    def components(self):
        return self.u, self.w, self.b


def evaluate_packet(
    assembly: PacketAssembly,
    family: Family,
    t: float,
    grid: tuple[np.ndarray, np.ndarray],
    deriv: str | None = None,
) -> PacketField:
    """Sum the family's modes on the grid; the conjugate lobe is added.

    deriv = 'x' or 'y' returns the analytic derivative field instead (each
    mode multiplied by ik, resp. -mu); None returns the field itself.
    """
    x, y = (np.asarray(g, dtype=float) for g in grid)
    modes = assembly.bundle(family)
    if deriv is not None:
        modes = {"x": modes.d_dx, "y": modes.d_dy}[deriv]()
    u, w, b = evaluate_modes(modes, t, x, y)
    return PacketField(x=x, y=y, t=float(t), u=u, w=w, b=b, family=family)


def default_grid(
    assembly: PacketAssembly, family: Family
) -> tuple[np.ndarray, np.ndarray]:
    """Grid adapted to the family: one x-period, y resolving its decay scale.

    x spans exactly one lattice period (periodic trapezoid is then exact for
    the L^2 integral); y spans the slower of the decay scales present, with
    enough points for >= 8 samples inside the thinnest layer.
    """
    eps = assembly.params.eps
    period = assembly.x_period
    cycles = abs(assembly.envelope.carrier.k0) * period / (2.0 * math.pi)
    nx = max(64, int(8 * cycles))
    x = np.linspace(0.0, period, nx, endpoint=False)

    rates = assembly.bundle(family).mu.real
    if family is Family.INCIDENT or rates.max(initial=0.0) <= 0.0:
        # oscillating in y: one m-lattice period
        y = np.linspace(0.0, period, max(64, int(8 * cycles)))
    else:
        slow = rates[rates > 0].min()
        fast = rates[rates > 0].max()
        depth = 30.0 / slow
        ny = max(200, int(8 * depth * fast / 30.0), 256)
        y = np.linspace(0.0, depth, min(ny, 4000))
    return x, y


def packet_norms(fld: PacketField) -> tuple[float, float]:
    """(L2, Linf) of the field over its grid.

    L2 is the trapezoid rule in y times a uniform rule in x (the x-axis is
    one exact period of the assembly lattice, where the uniform rule is the
    periodic trapezoid rule).  Warns if the top-of-grid values are not
    negligible (truncated decay).
    """
    dx = fld.x[1] - fld.x[0]
    dens = sum(np.abs(c) ** 2 for c in fld.components())
    l2 = math.sqrt(float(np.trapezoid(dens.sum(axis=1) * dx, fld.y)))
    linf = max(float(np.abs(c).max()) for c in fld.components())
    top = max(float(np.abs(c[-1, :]).max()) for c in fld.components())
    if fld.family not in (Family.INCIDENT, Family.SUM) and linf > 0 and top > 1e-6 * linf:
        fld.warnings.append(
            f"grid truncation: top-row max {top:.3g} vs field max {linf:.3g}"
        )
    return l2, linf


def component_anisotropy(
    assembly: PacketAssembly, family: Family, t: float = 0.0
) -> float:
    """||w|| / ||u|| (L2) for a boundary-layer family.

    The wall-normal velocity of the eps^2 layer is smaller than the
    tangential one by O(eps^2), and by O(eps^3) for the eps^3 layer.
    """
    if family not in (Family.BLEPS2, Family.BLEPS3):
        raise ValueError("anisotropy is defined for the boundary-layer families")
    grid = default_grid(assembly, family)
    fld = evaluate_packet(assembly, family, t, grid)
    dx = fld.x[1] - fld.x[0]
    nu = math.sqrt(float(np.trapezoid((np.abs(fld.u) ** 2).sum(axis=1) * dx, fld.y)))
    nw = math.sqrt(float(np.trapezoid((np.abs(fld.w) ** 2).sum(axis=1) * dx, fld.y)))
    return nw / nu
