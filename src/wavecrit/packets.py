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
only the plus lobe is assembled, in one array pass over the nodes where
chi chi is nonzero (xi-major); physical fields are F + conj(F).  The
discrete quadrature puts the lobe's wavenumbers at k0 + eps^2 xi, spaced
dk = eps^2 * dxi.  A field is periodic in x (and the incident one in y) with
period x_period = 2 pi / dk only when every such k is a multiple of dk: for
an odd node count, when k0 / dk is an integer, for an even one (nodes at
half-offsets) an integer plus 1/2; dns.box_matched_eps snaps eps to that.
The energy density |F + conj(F)|^2 holds sums of two nodes' k, so it has
period x_period only when 2 k0 / dk is an integer; only then is
packet_norms' uniform x-rule over one x_period the periodic trapezoid rule.

Every family, here and in the corrector, is one ExpModes set: modes
(cu, cw, cb) exp(i l x - i alpha t - mu y) with the quadrature amplitude
folded into the coefficients (an incident wave has mu = -i m).  Both the
incident polarization and the lift eigenvectors have U = 1, so the cu of
an incident mode is its node's quadrature amplitude, and a lift mode's cu
divided by it is the lift amplitude per unit trace.  ExpModes and its one
evaluator, evaluate_modes, live in boundary, whose lifts return them.
assemble_W0 stacks them once (ExpModes.stacked): each family is a row range
of one read-only store, incident | labels 2-3 | label 5, the SUM bundle.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import boundary
from .boundary import (
    ExpModes,
    _x_basis,
    evaluate_modes,
    field_blocks,
    lift_critical,
    mode_profiles,
)
from .characteristic import ModalMatrixSpec
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


#: what assemble_W0 raises, through lift_critical, for a node outside the
#: critical family; perfbench/run.py reads it under this name
RegimeError = boundary.RegimeError


@dataclass
class PacketAssembly:
    """The linear solution's modes by family: row ranges of one read-only store."""

    params: PhysParams
    envelope: Envelope
    families: dict[Family, ExpModes]
    x_period: float  # period of the discrete k-lattice in x
    store: ExpModes

    def bundle(self, family: Family) -> ExpModes:
        return self.store if family is Family.SUM else self.families[family]


def incident_polarization(k, m, gamma: float, omega):
    """X_{k,m} = (1, -k/m, i (k cos g - m sin g)/(m w)); divergence-free
    (elementwise for arrays)."""
    num = k * math.cos(gamma) - m * math.sin(gamma)
    return 1.0 + 0.0j, -k / m + 0.0j, 1j * (num / (m * omega))


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
    if abs(envelope.eps - eps) > 1e-14:
        raise ValueError("envelope and params disagree on eps")
    e2 = eps**2
    s, wts = quad.nodes_weights()
    sg, cg = math.sin(params.gamma), math.cos(params.gamma)

    # the nodes where the bump is nonzero, xi-major
    chi2 = np.outer(chi_bump(s), chi_bump(s))
    i, j = np.nonzero(chi2)
    k = car.k0 + e2 * s[i]
    m = car.m0 + e2 * s[j]
    omega = dispersion_omega(k, m, params.gamma)
    # node amplitude: A * dk * dm = eps^2 chi chi w_i w_j
    amp = e2 * chi2[i, j] * wts[i] * wts[j]
    U, W, B = incident_polarization(k, m, params.gamma, omega)
    # exp(-mu y) = exp(i m y)
    incident = ExpModes(k, omega, -1j * m, amp * U, amp * W, amp * B)

    # one batch lift cancels every node's incident wall traces
    spec = ModalMatrixSpec(params.nu, params.kappa, omega, k, params.gamma)
    lift = lift_critical(spec, [-amp, amp * k / m, amp * (k * cg - m * sg) / omega])
    label5 = np.arange(len(lift)) % 3 == 2
    store, views = ExpModes.stacked([incident, lift[~label5], lift[label5]])

    dxi = s[1] - s[0]
    return PacketAssembly(
        params=params,
        envelope=envelope,
        families=dict(zip((Family.INCIDENT, Family.BLEPS2, Family.BLEPS3), views)),
        x_period=2.0 * math.pi / (e2 * dxi),
        store=store,
    )


def evaluate_packet(
    assembly: PacketAssembly,
    family: Family,
    t: float,
    grid: tuple[np.ndarray, np.ndarray],
):
    """(u, w, b) of the family's modes on the tensor grid, conjugate lobe
    included.  Derivative fields are evaluate_modes of the family's bundle
    .d_dx() or .d_dy()."""
    x, y = grid
    return evaluate_modes(assembly.bundle(family), t, x, y)


def default_grid(
    assembly: PacketAssembly, family: Family
) -> tuple[np.ndarray, np.ndarray]:
    """Grid adapted to the family: one x-period, y resolving its decay scale.

    x spans exactly one x_period (the uniform rule there is the periodic
    trapezoid rule if 2 k0 / dk is an integer, see the module notes); y
    spans the slower of the decay scales present, with enough points for
    >= 8 samples inside the thinnest layer.
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
        ny = max(int(8 * depth * fast / 30.0), 256)
        y = np.linspace(0.0, depth, min(ny, 4000))
    return x, y


def packet_norms(
    modes: ExpModes, grid: tuple[np.ndarray, np.ndarray]
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Per-component (L2, Linf) of the mode set's field at t = 0 on the grid:
    two (u, w, b) triples.

    L2 is the trapezoid rule in y times a uniform rule in x (on default_grid
    the x-axis is one x_period of the assembly lattice).  Each component is
    synthesized from the profile kernel in blocks of y-rows
    (boundary.field_blocks), which are reduced in turn to the row sums of
    c^2, the max of |c| and the top row, so no whole (y, x) grid is held.
    If every mode decays but a component's top row is not negligible
    against the field's max-norm, the grid truncates the decay and a
    UserWarning says so.
    """
    x, y = grid
    dx = x[1] - x[0]
    l, P = mode_profiles(modes, 0.0, y)
    trig = _x_basis(l, x)
    l2, linf, top = [], [], []
    for p in P:
        sums, peak = [], 0.0
        for f in field_blocks(p, trig):
            sums.append((f * f).sum(axis=1))
            peak = max(peak, float(f.max()), float(-f.min()))
        l2.append(math.sqrt(float(np.trapezoid(np.concatenate(sums) * dx, y))))
        linf.append(peak)
        top.append(max(float(f[-1].max()), float(-f[-1].min())))  # the last block's
    if (modes.mu.real > 0).all() and max(top) > 1e-6 * max(linf):
        warnings.warn(
            f"grid truncation: top-row max {max(top):.3g} vs field max {max(linf):.3g}",
            stacklevel=2,
        )
    return tuple(l2), tuple(linf)
