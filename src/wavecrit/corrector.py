"""First-order nonlinear corrector for the boundary-layer wave packet.

The self-interaction Q(W0, W0) = P((u0 dx + w0 dy) W0) of the linear
solution splits into nine ordered family pairs, sorted by L^2 size and decay
rate (a1-a2: O(1), rate eps^-2; b1-b3: O(eps^1/2), rate eps^-3; c1-c4:
O(eps^2) and smaller, left in the remainder).  Each retained pair is an
exponential mode

    exp(i l x - i alpha t - mu y),   l = k + k',  alpha = w + w',

with (l, alpha) concentrated either near (0, 0) (zero lobe, future mean
flow) or near +-2 (k0, w0) (double lobe, future second harmonic).  The
interior response solves a 2x2 reduction acting on (u, b),
[[a11, -sin(g)], [sin(g), a22]] (u, b) = forcing, by its inverse:

  * rate eps^-3: rotation plus vertical diffusion, a11 = -i alpha
    - nu0 mbar^2, a22 = -i alpha - kappa0 mbar^2 (mbar = mu eps^3), with
    det = sin^2(g) - alpha^2 + i alpha mbar^2 (nu0+kappa0) + nu0 kappa0 mbar^4;
  * rate eps^-2: rotation only, the same inverse at zero diffusion
    (a11 = a22 = -i alpha, det = sin^2(g) - alpha^2).  It equals the paper's
    expansion of (-i alpha + L)^-1 over the projectors Pi_pm onto
    (1, -+i)/sqrt(2), with resonance denominators -i alpha +- i sin(g)
    bounded away from zero.

The normal velocity is restored from the divergence-free condition
(w = il/mu times the tangential response).  The wall traces of these
interior terms are then lifted: double-lobe traces through the non-critical
boundary operator (reflected wave -> second harmonic, layers -> eps^3
family), zero-lobe traces through the degenerate operator, whose un-lifted
w-trace is integrated in x and absorbed by an explicit large-scale mean
flow (-G eps^2 theta'(eps^2 y), theta(eps^2 y) dx G, 0).  A lift is linear
in its trace and depends only on the node (l, alpha), so the traces of all
interior modes at one node are summed first and each distinct node is
lifted once (collect_traces), all nodes of a lobe in one batch lift.

Everything dropped on the way (viscous terms at rate eps^-2, normal-velocity
forcing components, Leray-projection corrections, c-type interactions,
diffusion acting on the incident packet) is booked by residual_Rapp.

Pairs, interior responses, lifts and ledger terms are all boundary.ExpModes
sets, the representation W0 and the wall lifts use too.  The pairs of one
row and lobe are one mode set whose coefficients are the pair's forcing
cc (cu, cw, cb) of the advected mode (the W0 quadrature amplitudes already
sit in the coefficients); both interior solves and the ledger read that
set scaled by -delta.  W1 = W1_BLeps2 + W1_BLeps3
+ W1_II (one mode set) + the explicit mean flow W1_MF.  Every W1 field and
norm reads per-wavenumber y-profiles (boundary.mode_profiles, or
MeanFlowField.profiles for W1_MF) through boundary.synthesize or
_profile_norms.  A pair mode records its two parent rates (mu = mu_L +
mu_R), and the interior solves and ledger terms keep them, so the kernel
builds e^(-mu y) as e^(-mu_L y) e^(-mu_R y) from a table of W0's rates.
The ledger computes only what it reports, one kernel pass per exponent
set: the booked terms of one (row, lobe) batch share its forcing's
exponents, so their L2 norms come from one pass with no x-grid, and each
modal W1 family gets its max-norm and the L2 of its d/dx (the profiles
times i l) and d/dy (the coefficients times -mu) from one pass.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    ExpModes,
    _check_exponents,
    _equilibrated_solve,
    _group_by_l,
    _l_tolerance,
    evaluate_modes,
    lift_noncritical,
    lift_nonoscillating,
    mode_profiles,
    stray_nodes,
    synthesize,
)
from .characteristic import ModalMatrixSpec, Regime, _quad_roots, roots_for
from .packets import Family, PacketAssembly, default_grid, packet_norms
from .params import PhysParams


class CorrectorError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# interaction taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionType:
    """One ordered row of the interaction table."""

    name: str
    left: Family
    right: Family
    kind: str  # 'a' (rate eps^-2), 'b' (rate eps^-3), 'c' (residual only)
    l2_power: float  # expected L^2 size eps**l2_power (delta factored out)


INTERACTIONS = (
    InteractionType("a1", Family.BLEPS2, Family.BLEPS2, "a", 0.0),
    InteractionType("a2", Family.INCIDENT, Family.BLEPS2, "a", 0.0),
    InteractionType("b1", Family.BLEPS2, Family.BLEPS3, "b", 0.5),
    InteractionType("b2", Family.INCIDENT, Family.BLEPS3, "b", 0.5),
    InteractionType("b3", Family.BLEPS3, Family.BLEPS2, "b", 1.5),
    InteractionType("c1", Family.BLEPS2, Family.INCIDENT, "c", 2.0),
    InteractionType("c2", Family.INCIDENT, Family.INCIDENT, "c", 2.0),
    InteractionType("c3", Family.BLEPS3, Family.BLEPS3, "c", 2.5),
    InteractionType("c4", Family.BLEPS3, Family.INCIDENT, "c", 3.5),
)


class Lobe(enum.Enum):
    ZERO = 0  # (l, alpha) = O(eps^2): mean-flow route
    DOUBLE = 2  # (l, alpha) near +2(k0, w0): second-harmonic route


def _pair_modes(L: ExpModes, R: ExpModes) -> ExpModes:
    """Q of every ordered pair (left mode of L, right mode of R), left-major.

    The pair advects the right mode with the left one and forces one mode at
    (l, alpha, mu) = the sums of the two modes' own, with coefficients
    cc (cu, cw, cb)_R; cc = i l_R cu_L - mu_R cw_L is the convective factor.
    The two rates are the mode's parents.
    """
    cc = (1j * R.l[None, :] * L.cu[:, None] - R.mu[None, :] * L.cw[:, None]).ravel()
    n = len(L)
    return ExpModes(
        l=np.add.outer(L.l, R.l).ravel(),
        alpha=np.add.outer(L.alpha, R.alpha).ravel(),
        mu=np.add.outer(L.mu, R.mu).ravel(),
        cu=cc * np.tile(R.cu, n),
        cw=cc * np.tile(R.cw, n),
        cb=cc * np.tile(R.cb, n),
        parents=np.stack([np.repeat(L.mu, len(R)), np.tile(R.mu, n)], axis=1),
    )


def enumerate_pairs(assembly: PacketAssembly,
                    itype: InteractionType) -> dict[Lobe, ExpModes]:
    """Lobe -> pair modes of all ordered (left, right) and (left, conj right)
    mode pairs.

    The linear solution is F + conj(F) with F built from the plus lobe only;
    products therefore come in four sign combinations, of which (+,+) and
    (+,-) are enumerated here and the other two follow by conjugating the
    assembled corrector.  (+,+) lands in the double lobe, (+,-) in the zero
    lobe.
    """
    L = assembly.bundle(itype.left)
    R = assembly.bundle(itype.right)
    return {Lobe.DOUBLE: _pair_modes(L, R), Lobe.ZERO: _pair_modes(L, R.conj())}


def _check_lobe(name: str, lobe: Lobe, pairs: ExpModes, assembly: PacketAssembly):
    """Every pair lies within 3 eps^2 of its lobe's center, lobe.value (k0, w0)."""
    eps2 = assembly.params.eps ** 2
    car = assembly.envelope.carrier
    bad = (np.abs(pairs.l - lobe.value * car.k0) > 3.0 * eps2) | (
        np.abs(pairs.alpha - lobe.value * car.omega0) > 3.0 * eps2
    )
    if bad.any():
        i = int(np.argmax(bad))
        raise CorrectorError(
            f"{name}/{lobe}: {bad.sum()} pairs fall outside their lobe's eps^2 "
            f"neighborhood, the first at (l={pairs.l[i]:.4g}, alpha={pairs.alpha[i]:.4g})"
        )


# ---------------------------------------------------------------------------
# norms of exponential mode sets
# ---------------------------------------------------------------------------


#: y- and x-points of the modes_norms quadrature
_NORM_NY = 600
_NORM_NX = 512


def _norm_grid(modes: ExpModes, x_period: float, ny: int):
    """y-grid of modes_norms: dense on the fastest decay scale, reaching y_max
    = 30 slowest decay scales (or the x-period if some mode does not decay)."""
    rates = modes.mu.real
    pos = rates[rates > 1e-12]
    y_max = 30.0 / pos.min() if len(pos) == len(modes) else x_period
    fast = max(rates.max(), 1.0 / y_max)
    return np.unique(np.concatenate([
        np.linspace(0.0, min(10.0 / fast, y_max), ny // 2),
        np.linspace(0.0, y_max, ny // 2),
    ]))


def _profile_norms(l, P, y, x_period: float, nx: int | None) -> tuple[float, float | None]:
    """(L2, Linf) of 2 Re sum_g P[:, g](y) exp(i l_g x) over one x-period.

    l must be increasing.  Distinct x-frequencies are orthogonal over the
    period, so |.|_2^2 is the period times the y-integral of 2 sum_g |P_g|^2
    plus 2 Re P_g P_h for every pair l_g = -l_h (the conjugate part's
    interference).  Linf is the max over an nx-point x-grid; with nx None
    it is None and no x-grid is synthesized.
    """
    tol = _l_tolerance(l)
    partner = np.minimum(np.searchsorted(l, -l - tol), len(l) - 1)
    paired = np.abs(l + l[partner]) <= tol
    dens = (np.abs(P) ** 2).sum(axis=0)
    cross = (P[:, paired] * P[:, partner[paired]]).sum(axis=0)
    total = 2.0 * (np.trapezoid(dens, y).sum() + np.trapezoid(cross, y).real.sum())
    l2 = math.sqrt(max(float(total), 0.0) * x_period)
    if nx is None:
        return l2, None
    x = np.linspace(0.0, x_period, nx, endpoint=False)
    linf = max(float(np.abs(f).max()) for f in synthesize(l, P, x))
    return l2, linf


def modes_norms(modes: ExpModes, x_period: float, nx: int | None = _NORM_NX,
                also=()) -> tuple:
    """(L2, Linf) at t = 0 over one x-period and y in [0, y_max] (see _norm_grid).

    Every call is one profile kernel pass.  With nx None, Linf is None and
    no x-grid is synthesized.  also holds further mode sets with the
    exponents of modes (l, alpha, mu and parents, else ValueError), such as
    its d_dx() and d_dy(); the L2 of each is appended in turn, read from
    the same pass and on the same y-grid.
    """
    if len(modes) == 0:
        _check_exponents(modes, also)
        return (0.0, None if nx is None else 0.0) + (0.0,) * len(also)
    y = _norm_grid(modes, x_period, _NORM_NY)
    l, P = mode_profiles(modes, 0.0, y, also)
    norms = _profile_norms(l, P[:3], y, x_period, nx)
    for i in range(3, len(P), 3):
        norms += _profile_norms(l, P[i:i + 3], y, x_period, None)[:1]
    return norms


# ---------------------------------------------------------------------------
# interior solves
# ---------------------------------------------------------------------------


def _rotation_solve(src: ExpModes, a11, a22, sg: float) -> ExpModes:
    """Response to the forcing src: [[a11, -sg], [sg, a22]] (cu, cb) = (src.cu,
    src.cb) per mode, solved by the 2x2 inverse, and w = il/mu u restored
    from the divergence-free condition."""
    det = a11 * a22 + sg * sg
    cu = (a22 * src.cu + sg * src.cb) / det
    cb = (-sg * src.cu + a11 * src.cb) / det
    return dataclasses.replace(src, cu=cu, cw=1j * src.l / src.mu * cu, cb=cb)


def solve_interior_a(src: ExpModes, params: PhysParams) -> ExpModes:
    """Rotation-only response at decay rate eps^-2 (plus divergence fix).

    The rate eps^-3 reduction at zero diffusion: det = sin^2(g) - alpha^2,
    and the solution is the paper's sum over the projectors Pi_pm onto
    (1, -+i)/sqrt(2) with denominators -i alpha +- i sin(g).  Guards against
    secular growth: every -alpha +- sin(g) must stay >= w0/2 in modulus.
    """
    sg = math.sin(params.gamma)
    if (np.abs(sg - src.alpha) < sg / 2).any() or (np.abs(sg + src.alpha) < sg / 2).any():
        raise CorrectorError(
            "resonance guard tripped: |-alpha +- sin(gamma)| < sin(gamma)/2"
        )
    return _rotation_solve(src, -1j * src.alpha, -1j * src.alpha, sg)


def solve_interior_b(src: ExpModes, params: PhysParams) -> ExpModes:
    """Rotation + vertical-diffusion response at decay rate eps^-3."""
    sg = math.sin(params.gamma)
    mbar2 = (src.mu * params.eps ** 3) ** 2
    a11 = -1j * src.alpha - params.nu0 * mbar2
    a22 = -1j * src.alpha - params.kappa0 * mbar2
    if (np.abs(a11 * a22 + sg * sg) < 0.1 * sg * sg).any():
        raise CorrectorError("det(M^-1) fell below the 0.1 sin^2(gamma) guard")
    return _rotation_solve(src, a11, a22, sg)


# ---------------------------------------------------------------------------
# trace lifting
# ---------------------------------------------------------------------------


def second_harmonic_rate(gamma: float, k0: float) -> complex:
    """Leading-order reflected-wave rate Lambda_0 at (2 w0, 2 k0).

    Root of ((2w0)^2 - sin^2 g) L^2 - 2i(2k0) sg cg L + (2k0)^2 (cos^2 g
    - (2w0)^2) = 0.  The discriminant sign is governed by 4 sin^2 g - 1:
    positive -> one decaying root (evanescent second harmonic), negative ->
    purely imaginary roots (propagating second harmonic).
    """
    sg, cg = math.sin(gamma), math.cos(gamma)
    disc = 4.0 * sg * sg - 1.0
    if disc >= 0:
        lam = (2j * k0 * cg + 4.0 * k0 * math.sqrt(disc)) / (3.0 * sg)
    else:
        # both roots purely imaginary; take the one continuous in disc
        lam = (2j * k0 * cg + 4j * k0 * math.sqrt(-disc)) / (3.0 * sg)
    return lam


def _theta(s):
    """C-infinity plateau: 1 for s <= 1, 0 for s >= 2."""
    s = np.asarray(s, dtype=float)
    t = np.clip(2.0 - s, 0.0, 1.0)
    f = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
    g = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return f / (f + g)


def _theta_prime(s):
    """d theta / ds in closed form; zero outside 1 < s < 2.

    With t = 2 - s, f = exp(-1/t) and g = exp(-1/(1-t)), theta = f/(f+g)
    and theta' = -f g (1/t^2 + 1/(1-t)^2) / (f+g)^2.
    """
    t = 2.0 - np.asarray(s, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    t = np.where(inside, t, 0.5)
    f, g = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    return np.where(inside, -f * g * (1.0 / t**2 + 1.0 / (1.0 - t) ** 2) / (f + g) ** 2, 0.0)


@dataclass
class MeanFlowField:
    """W1_MF = (-G eps^2 theta'(eps^2 y), theta(eps^2 y) dx G, 0).

    G(x, t) = sum_n G_n exp(i l_n x - i alpha_n t) + c.c.; exactly
    divergence-free, w-trace at y=0 equal to minus the leftover w-trace of
    the degenerate lifts.
    """

    l: np.ndarray
    alpha: np.ndarray
    G: np.ndarray
    eps: float

    def __len__(self):
        return len(self.l)

    def profiles(self, t, y):
        """(l, P) as boundary.mode_profiles returns them: u = -eps^2 theta' G,
        w = theta i l G and b = 0, with G summed per distinct l first (nodes
        sharing l at different alpha are one x-frequency)."""
        groups = _group_by_l(self.l)
        Gt = self.G * np.exp(-1j * self.alpha * t)
        l = self.l[[idx[0] for idx in groups]]
        G = np.array([Gt[idx].sum() for idx in groups], dtype=complex)
        e2 = self.eps ** 2
        u = -e2 * np.outer(G, _theta_prime(e2 * y))
        w = np.outer(1j * l * G, _theta(e2 * y))
        return l, np.stack([u, w, np.zeros_like(u)])

    def evaluate(self, t, x, y):
        return tuple(synthesize(*self.profiles(t, y), x))

    def norms(self, x_period: float, t: float = 0.0, nx: int | None = _NORM_NX):
        """(L2, Linf) as modes_norms returns them, on 800 y-points of
        [0, 2.5 eps^-2]; with nx None, Linf is None."""
        y = np.linspace(0.0, 2.5 / self.eps ** 2, 800)
        return _profile_norms(*self.profiles(t, y), y, x_period, nx)


def collect_traces(interior: ExpModes):
    """Wall traces of the interior modes of one lobe, summed per node.

    Returns (l, alpha, tu, tw, tb) arrays with one entry per distinct
    (l, alpha); the trace fields are the coefficients times
    exp(i l x - i alpha t).  A lift is linear in its trace and depends on
    nothing but the node, so the traces of all modes at one node (the pairs
    (i, j) and (j, i), every interaction row, both eps^2 roots) are summed
    and lifted once.  Nodes merge only on exactly equal (l, alpha), which
    give exactly equal ModalMatrixSpecs.
    """
    nodes, inv = np.unique(np.stack([interior.l, interior.alpha], axis=1),
                           axis=0, return_inverse=True)
    sums = np.zeros((3, len(nodes)), dtype=complex)
    np.add.at(sums, (slice(None), inv.ravel()), np.stack(interior.traces()))
    return (nodes[:, 0], nodes[:, 1], *sums)


def _lobe_roots(spec: ModalMatrixSpec, regime: Regime, lobe: str):
    """Roots of a lobe's nodes, all of which must sit in the lobe's regime;
    the error counts the strays and names the first by (l, alpha)."""
    roots = roots_for(spec)
    stray = stray_nodes(roots, (regime,))
    if len(stray):
        i = stray[0]
        raise CorrectorError(
            f"{len(stray)} {lobe} node(s) not {regime}; the first, "
            f"(l={spec.k[i]:.4g}, alpha={spec.omega[i]:.4g}), classified {roots.regimes[i]}")
    return roots


def lift_second_harmonic(
    traces, params: PhysParams
) -> tuple[ExpModes, ExpModes]:
    """Cancel double-lobe wall traces: (eps^3-layer modes, second harmonic),
    one batch lift over the lobe's nodes."""
    l, alpha, tu, tw, tb = traces
    spec = ModalMatrixSpec(params.nu, params.kappa, alpha, l, params.gamma)
    roots = _lobe_roots(spec, Regime.NON_CRITICAL, "double-lobe")
    rw, bl = lift_noncritical(spec, roots, [-tu, -tw, -tb])
    return bl, rw


def _shear_lift(alpha, tu, tb, params: PhysParams) -> ExpModes:
    """Decaying lift at l = 0 (x-independent traces), one batch over the nodes.

    With no x-dependence the normal velocity decouples (w = 0 identically)
    and the remaining (u, b) system has the characteristic polynomial
    -nu kappa L^4 - i alpha (nu+kappa) L^2 + (alpha^2 - sin^2 g), a
    quadratic in L^2.  Exactly two roots decay, the principal square roots
    of its two L^2 roots; they match the u- and d_y b-traces by the lifts'
    checked, equilibrated solve (a failure names the node as (0, alpha)).
    Every node contributes two modes, in node order.
    """
    nu, kappa = params.nu, params.kappa
    sg = math.sin(params.gamma)
    sq = np.stack(_quad_roots(-nu * kappa, -1j * alpha * (nu + kappa),
                              alpha * alpha - sg * sg), axis=1)
    dec = np.sqrt(sq)
    count = (dec.real > 0).sum(axis=1)
    if (count != 2).any():
        i = int(np.argmax(count != 2))
        raise CorrectorError(f"shear lift at alpha={alpha[i]:.4g}: {count[i]} decaying roots")
    B = sg / (1j * alpha[:, None] + kappa * sq)
    mat = np.stack([np.ones_like(dec), -dec * B], axis=1)
    a = _equilibrated_solve(mat, np.stack([-tu, -tb], axis=1),
                            np.zeros_like(alpha), alpha)
    n = 2 * len(alpha)
    return ExpModes(np.zeros(n), np.repeat(alpha, 2), dec.ravel(), a.ravel(),
                    np.zeros(n, dtype=complex), (a * B).ravel())


def lift_mean_flow(traces, params: PhysParams) -> tuple[ExpModes, MeanFlowField]:
    """Cancel zero-lobe wall traces.

    u and d_y b go through the degenerate (non-oscillating) lift, one batch
    over the lobe's nodes; the leftover w-trace per node is integrated in x
    (divide by il) and lifted by the explicit mean flow.  Nodes with
    |l| < 1e-14 carry no w-trace at all (w = il/mu u) and are handled by a
    two-mode shear lift instead.  Every node contributes two modes, in node
    order when l increases (collect_traces): the shear nodes are then one
    block, between the nodes with l < 0 and those with l > 0.
    """
    l, alpha, tu, tw, tb = traces
    shear = np.abs(l) < 1e-14
    spec = ModalMatrixSpec(params.nu, params.kappa, alpha[~shear], l[~shear], params.gamma)
    roots = _lobe_roots(spec, Regime.NON_OSCILLATING, "zero-lobe")
    lift, leftover = lift_nonoscillating(spec, roots, [-tu[~shear], -tw[~shear], -tb[~shear]])
    cut = 2 * np.count_nonzero(l[~shear] < 0)
    bl = ExpModes.concat([lift[:cut], _shear_lift(alpha[shear], tu[shear], tb[shear], params),
                          lift[cut:]])
    # remaining wall value of w is exactly `leftover`; the mean flow
    # must carry w(0) = -leftover, i.e. dx G = -leftover
    mf = MeanFlowField(l=l[~shear], alpha=alpha[~shear],
                       G=-leftover / (1j * l[~shear]), eps=params.eps)
    return bl, mf


def trace_density(assembly: PacketAssembly, params: PhysParams):
    """(|u|, |w|, |d_y b|) wall-trace densities of the largest interaction.

    Evaluated for the eps^2-layer self-interaction at the packet's center
    wavevector with the envelope, quadrature weights and delta stripped, on
    the double lobe: the raw size of what the second-harmonic lift has to
    absorb, expected to grow like (eps^-4, eps^-2, eps^-6).
    """
    inc = assembly.families[Family.INCIDENT]
    bl2 = assembly.families[Family.BLEPS2]
    i = int(np.argmax(np.abs(inc.cu)))
    node = slice(2 * i, 2 * i + 2)
    # the incident cu is the node's quadrature amplitude (U = 1), so this
    # leaves the lift modes per unit trace
    modes = bl2[node].scaled(1.0 / inc.cu[i])
    tu, tw, tb = solve_interior_a(_pair_modes(modes, modes), params).traces()
    return abs(tu.sum()), abs(tw.sum()), abs(tb.sum())


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

W1_BLEPS2 = "W1_BLeps2"
W1_BLEPS3 = "W1_BLeps3"
W1_II = "W1_II"
W1_MF = "W1_MF"
W1_MODAL = (W1_BLEPS2, W1_BLEPS3, W1_II)  # the exponential-mode families


@dataclass
class CorrectorAssembly:
    """W1 by family and its interaction rows (None: all)."""

    params: PhysParams
    w0: PacketAssembly
    families: dict
    rows: tuple[str, ...] | None = None

    @property
    def x_period(self) -> float:
        return self.w0.x_period

    def norms(self, family: str) -> tuple[float, float]:
        """(L2, Linf) of one family at t = 0."""
        if family == W1_MF:
            return self.families[W1_MF].norms(self.x_period)
        return modes_norms(self.families[family], self.x_period)

    def modal(self) -> ExpModes:
        """All exponential modes of the corrector (everything but W1_MF)."""
        return ExpModes.concat(self.families[f] for f in W1_MODAL)


def _booked_terms(kind: str, src: ExpModes, modes: ExpModes,
                  params: PhysParams) -> dict[str, ExpModes]:
    """Ledger term -> mode set of what one interior solve leaves out.

    Both reductions drop the normal-velocity forcing component and the
    Leray correction, O(l/mu) of the source.  The rotation-only (a) solve
    also drops vertical diffusion on its response and the w-coupling of the
    buoyancy row, which the (b) solve keeps.
    """
    wforce = src.scaled(0, 1, 0)
    leray = src.scaled(np.abs(src.l) / np.abs(src.mu))
    if kind == "b":
        return {"r1_bL_wforce": wforce, "r1_bL_leray": leray}
    nu6 = params.eps ** 6
    lap = src.mu**2 - src.l**2
    zero = np.zeros_like(src.cu)
    return {
        "r1_aL_viscous": modes.scaled(nu6 * params.nu0 * lap, nu6 * params.nu0 * lap,
                                      nu6 * params.kappa0 * lap),
        "r1_aL_wrow": dataclasses.replace(src, cu=zero, cw=zero,
                                          cb=math.cos(params.gamma) * modes.cw),
        "r1_aL_leray": leray,
        "r1_aL_wforce": wforce,
    }


def _solved_batches(assembly: PacketAssembly, params: PhysParams, rows):
    """(row, lobe, forcing, interior modes) per non-empty lobe of the selected
    rows, in table order; c-type rows are only booked and have no modes."""
    solvers = {"a": solve_interior_a, "b": solve_interior_b}
    for itype in INTERACTIONS:
        if rows is None or itype.name in rows:
            for lobe, pairs in enumerate_pairs(assembly, itype).items():
                if len(pairs):
                    _check_lobe(itype.name, lobe, pairs, assembly)
                    src = pairs.scaled(-params.delta)
                    solve = solvers.get(itype.kind)
                    yield itype, lobe, src, solve(src, params) if solve else None


def assemble_W1(
    assembly: PacketAssembly,
    params: PhysParams,
    rows: tuple[str, ...] | None = None,
) -> CorrectorAssembly:
    """Full corrector: interior solves, lifts and mean flow.

    `rows` restricts the interaction table to the named rows (default: all).
    Restricting to a single row reproduces the per-interaction bookkeeping
    of the size estimates; the full assembly is smaller than the row-wise
    sum because Q(W0, W0) vanishes at the wall (u0 = w0 = 0 there), so the
    per-row wall traces largely cancel when combined.
    """
    parts = {"a": [], "b": []}
    lobes = {lobe: [] for lobe in Lobe}  # the same interior modes, per lobe
    for itype, lobe, _, modes in _solved_batches(assembly, params, rows):
        if modes is not None:
            parts[itype.kind].append(modes)
            lobes[lobe].append(modes)

    traces = {lobe: collect_traces(ExpModes.concat(m)) for lobe, m in lobes.items()}
    bl3_ii, w1_ii = lift_second_harmonic(traces[Lobe.DOUBLE], params)
    bl3_mf, w1_mf = lift_mean_flow(traces[Lobe.ZERO], params)
    return CorrectorAssembly(
        params=params,
        w0=assembly,
        families={
            W1_BLEPS2: ExpModes.concat(parts["a"]),
            W1_BLEPS3: ExpModes.concat([*parts["b"], bl3_ii, bl3_mf]),
            W1_II: w1_ii,
            W1_MF: w1_mf,
        },
        rows=rows,
    )


def rowwise_family_sizes(
    assembly: PacketAssembly, params: PhysParams
) -> dict[str, tuple[float, float]]:
    """Per-family (L2, Linf) sizes, aggregated row by interaction row.

    This is the quantity the corrector size estimates control: each row is
    lifted separately and the norms are added, mirroring the row-by-row
    construction (triangle inequality).  The fully assembled corrector is
    smaller; see assemble_W1.
    """
    totals = {f: [0.0, 0.0] for f in (W1_BLEPS2, W1_BLEPS3, W1_II, W1_MF)}
    for it in INTERACTIONS:
        if it.kind == "c":
            continue
        casm = assemble_W1(assembly, params, rows=(it.name,))
        for fam, acc in totals.items():
            l2, linf = casm.norms(fam)
            acc[0] += l2
            acc[1] += linf
    return {f: (v[0], v[1]) for f, v in totals.items()}


def evaluate_W1(casm: CorrectorAssembly, t, x, y):
    """Total corrector field (u, w, b) on the grid."""
    u, w, b = evaluate_modes(casm.modal(), t, x, y)
    du, dw, db = casm.families[W1_MF].evaluate(t, x, y)
    return u + du, w + dw, b + db


def wall_trace_check(casm: CorrectorAssembly, t: float = 0.0):
    """Max wall residual of (u, w, d_y b) relative to the interior traces,
    on 256 points of one x-period."""
    x = np.linspace(0.0, casm.x_period, 256, endpoint=False)
    y0 = np.array([0.0])
    u, w, _ = evaluate_W1(casm, t, x, y0)
    _, _, dyb = evaluate_modes(casm.modal().d_dy(), t, x, y0)
    scale = 1e-300
    for fam in (W1_BLEPS2, W1_BLEPS3):
        tu, tw, tb = casm.families[fam].traces()
        if len(tu):
            scale = max(scale, np.abs(tu).sum(), np.abs(tw).sum(), np.abs(tb).sum())
    return max(np.abs(u).max(), np.abs(w).max(), np.abs(dyb).max()) / scale


# ---------------------------------------------------------------------------
# grid-based quadratic form and residual report
# ---------------------------------------------------------------------------


def quadratic_Q(left, right, x, y):
    """(u_L dx + w_L dy) W_R on a tensor grid, without projection.

    left/right are (u, w, b) arrays on the (y, x) grid; dx is spectral
    (periodic x), dy a 4th-order interior finite difference.  This is the
    advection form of the quadratic term; the Leray projection is applied
    only in the declared boundary-layer approximation elsewhere.
    """
    uL, wL, _ = left
    if any(a.shape != uL.shape for a in right):
        raise ValueError("grid mismatch between left and right fields")
    kx = 2.0 * math.pi * np.fft.fftfreq(len(x), d=(x[1] - x[0]))
    dy = y[1] - y[0]
    out = []
    for f in right:
        fx = np.fft.ifft(1j * kx[None, :] * np.fft.fft(f, axis=1), axis=1)
        fy = np.gradient(f, dy, axis=0, edge_order=2)
        # 4th-order central in the interior
        if f.shape[0] >= 5:
            fy[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * dy)
        out.append(uL * fx + wL * fy)
    return tuple(out)


def skew_energy(fieldtriple, gamma: float, x, y) -> float:
    """Discrete integral of (L W) . W; zero because L is pointwise skew."""
    u, w, b = fieldtriple
    sg, cg = math.sin(gamma), math.cos(gamma)
    lu = -sg * b
    lw = -cg * b
    lb = sg * u + cg * w
    dens = (lu * u + lw * w + lb * b).real
    dx = x[1] - x[0]
    return float(np.trapezoid(dens.sum(axis=1) * dx, y))


def residual_Rapp(casm: CorrectorAssembly) -> dict:
    """Ledger of R_app = r1 + delta (c) + cross terms - eps^6 diffusion(inc).

    Every entry is an L^2 norm (or a Hoelder-product upper bound for the
    cross terms); 'total' is their sum, to be compared against
    delta eps^2 + delta^2 + eps^6.  Each modes_norms call is one kernel
    pass: one per (row, lobe) batch, one for the incident diffusion term and
    one per modal W1 family (22 at the nine rows).
    """
    params = casm.params
    w0 = casm.w0
    eps, delta = params.eps, params.delta
    report: dict[str, float] = {}

    # what the interior solves of the assembled rows leave out, and the
    # residual-only c-type interactions
    for itype, _, src, modes in _solved_batches(w0, params, casm.rows):
        if modes is None:
            booked = {f"c_terms_{itype.name}": src}
        else:
            booked = _booked_terms(itype.kind, src, modes, params)
        # the terms of one batch share src's exponents: one kernel pass
        first, *rest = booked.values()
        l2, _, *more = modes_norms(first, w0.x_period, nx=None, also=rest)
        for term, v in zip(booked, [l2, *more]):
            report[term] = report.get(term, 0.0) + v

    # mean-flow equation residual: (d_t u_MF, d_t w_MF, u_MF sg + w_MF cg)
    mf = casm.families[W1_MF]
    if len(mf):
        mf_dt = MeanFlowField(mf.l, mf.alpha, -1j * mf.alpha * mf.G, eps)
        # |L W_MF| <= |W_MF| rowwise
        report["r1_aMF"] = (mf_dt.norms(w0.x_period, nx=None)[0]
                            + mf.norms(w0.x_period, nx=None)[0])

    # diffusion acting on the incident packet: eps^6 (nu0 Du, nu0 Dw, k0 Db)
    inc = w0.families[Family.INCIDENT]
    lap = (inc.mu**2 - inc.l**2) * eps**6
    diff = inc.scaled(params.nu0 * lap, params.nu0 * lap, params.kappa0 * lap)
    report["eps6_diffusion_inc"] = modes_norms(diff, w0.x_period, nx=None)[0]

    # cross terms delta Q(W0, W1) etc., bounded by Hoelder products
    grid0 = default_grid(w0, Family.BLEPS2)
    sum0 = w0.bundle(Family.SUM)
    _, (u0_inf, w0_inf, _) = packet_norms(sum0, grid0)
    dx0 = math.hypot(*packet_norms(sum0.d_dx(), grid0)[0])
    dy0 = math.hypot(*packet_norms(sum0.d_dy(), grid0)[0])

    # one kernel pass per family gives its Linf and the L2 of d/dx and d/dy
    u1_inf = w1_inf = dx1 = dy1 = 0.0
    for fam in W1_MODAL:
        m = casm.families[fam]
        _, linf, dx, dy = modes_norms(m, casm.x_period, also=[m.d_dx(), m.d_dy()])
        u1_inf = max(u1_inf, linf)
        w1_inf = max(w1_inf, linf)
        dx1 += dx
        dy1 += dy

    report["cross_Q_W0_W1"] = delta * (u0_inf * dx1 + w0_inf * dy1)
    report["cross_Q_W1_W0"] = delta * (u1_inf * dx0 + w1_inf * dy0)
    report["cross_Q_W1_W1"] = delta * (u1_inf * dx1 + w1_inf * dy1)

    # c-type entries were already booked per batch with the delta factor
    report["total"] = sum(v for k, v in report.items() if k != "total")
    return report


def grad_Wapp_Linf(casm: CorrectorAssembly) -> float:
    """Max-norm of the gradient of W0 + W1 (dominated by the eps^2 layer)."""
    grid = default_grid(casm.w0, Family.BLEPS2)
    sum0 = casm.w0.bundle(Family.SUM)
    worst = max(max(packet_norms(d, grid)[1]) for d in (sum0.d_dx(), sum0.d_dy()))
    for fam in W1_MODAL:
        m = casm.families[fam]
        for dm in (m.d_dx(), m.d_dy()):
            worst = max(worst, modes_norms(dm, casm.x_period)[1])
    return worst
