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
interior terms are then lifted: double-lobe traces through the oscillating
boundary operator, boundary.lift_noncritical, which takes the non-critical
and the near-critical regimes (double-lobe nodes classify near-critical too
at small g, e.g. at g = 0.45 and 0.4, where the second harmonic propagates,
4 sin^2(g) < 1) and splits the reflected wave (label 2 -> second harmonic)
from the layers (-> eps^3 family); zero-lobe traces go through the
degenerate operator, whose un-lifted
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
sit in the coefficients).  That set scaled by -delta is solved once, and
CorrectorAssembly.batches keeps every (row, lobe, forcing, interior modes)
batch: the ledger books them and solves nothing.  W1 = W1_BLeps2 + W1_BLeps3
+ W1_II + the explicit mean flow W1_MF; the modal families and the batches'
interior modes are row ranges of one read-only store (_lift_batches).  Every
W1 field and norm reads per-wavenumber y-profiles (boundary.mode_profiles, or
MeanFlowField.profiles for W1_MF) through boundary.synthesize or
_profile_norms, or, in the DNS, as node tables read by boundary.phase_sum
(boundary.node_profiles, MeanFlowField.node_profiles, dns.WappNodes; nodes
as collect_traces', by boundary._nodes).  A pair mode records its two parent
rates (mu = mu_L + mu_R), and the interior solves and ledger terms keep
them, so the kernel builds e^(-mu y) as e^(-mu_L y) e^(-mu_R y) from a
table of W0's rates.  The ledger computes only what it reports, one kernel
pass per exponent set: the booked terms of one (row, lobe) batch share its
forcing's exponents, so their L2 norms come from one pass with no x-grid
(whose all-zero coefficient rows the kernel skips), and each modal W1
family gets its max-norm, the L2 of its d/dx (its own profiles times i l,
so their y-integrals weighted by l^2) and of its d/dy (a further set, the
coefficients times -mu) from one pass of 6 rows.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    ExpModes,
    YLattice,
    _check_exponents,
    _equilibrated_solve,
    _l_tolerance,
    _nodes,
    _x_basis,
    evaluate_modes,
    lift_noncritical,
    lift_nonoscillating,
    mode_profiles,
    phase_sum,
    synthesize,
)
from .characteristic import ModalMatrixSpec, _quad_roots
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
#: y-rows per block of the Linf synthesis: a (64, 512) block of doubles is
#: 256 KiB and stays in cache, where the 600-row grid does not
_LINF_ROWS = 64


def _norm_lattice(modes: ExpModes, x_period: float, ny: int) -> YLattice:
    """y-grid of modes_norms: dense on the fastest decay scale, reaching y_max
    = 30 slowest decay scales (or the x-period if some mode does not decay).
    It merges two uniform ny/2-point grids, on [0, 10 fastest decay scales]
    and on [0, y_max], and is kept as their lattice for the profile kernel."""
    rates = modes.mu.real
    pos = rates[rates > 1e-12]
    y_max = 30.0 / pos.min() if len(pos) == len(modes) else x_period
    fast = max(rates.max(), 1.0 / y_max)
    return YLattice((min(10.0 / fast, y_max), y_max), ny // 2)


def _profile_norms(l, P, y, x_period: float, nx: int | None):
    """(L2, Linf, L2 of d/dx) of 2 Re sum_g P[:, g](y) exp(i l_g x) over one
    x-period.

    l must be increasing.  Distinct x-frequencies are orthogonal over the
    period, so |.|_2^2 is the period times the y-integral of 2 sum_g |P_g|^2
    plus 2 Re P_g P_h for every pair l_g = -l_h (the conjugate part's
    interference).  d/dx takes P_g to i l_g P_g, so its L2 weights the same
    per-group y-integrals by l_g^2 (a pair's by -l_g l_h).  Linf is the max
    over an nx-point x-grid, synthesized with one x-basis in blocks of
    _LINF_ROWS y-rows, one component at a time (max(f.max(), -f.min()) is
    max|f| with no third array); each block is the full grid's rows bit for
    bit.  With nx None it is None and no x-grid is synthesized.
    """
    tol = _l_tolerance(l)
    partner = np.minimum(np.searchsorted(l, -l - tol), len(l) - 1)
    paired = np.abs(l + l[partner]) <= tol
    dens = np.trapezoid((np.abs(P) ** 2).sum(axis=0), y)
    cross = np.trapezoid((P[:, paired] * P[:, partner[paired]]).sum(axis=0), y).real
    total = 2.0 * (dens.sum() + cross.sum())
    total_dx = 2.0 * (dens @ l**2 - cross @ (l[paired] * l[partner[paired]]))
    l2, dx = (math.sqrt(max(float(v), 0.0) * x_period) for v in (total, total_dx))
    if nx is None:
        return l2, None, dx
    trig = _x_basis(l, np.linspace(0.0, x_period, nx, endpoint=False))
    linf = 0.0
    for p in P:
        a = np.concatenate([p.real, -p.imag]).T  # (y, 2 groups)
        for s in range(0, len(a), _LINF_ROWS):
            f = a[s:s + _LINF_ROWS] @ trig
            linf = max(linf, float(f.max()), float(-f.min()))
    return l2, linf, dx


def modes_norms(modes: ExpModes, x_period: float, nx: int | None = _NORM_NX,
                also=()) -> tuple:
    """(L2, Linf, L2 of d/dx) at t = 0 over one x-period and y in [0, y_max]
    (see _norm_lattice), then the L2 of each set in also.

    Every call is one profile kernel pass, and the d/dx L2 is read from its
    profiles (_profile_norms).  With nx None, Linf is None and no x-grid is
    synthesized.  also holds further mode sets with the exponents of modes
    (l, alpha, mu and parents, else ValueError), such as its d_dy(); their
    L2 come from the same pass and on the same y-grid.  A set's all-zero
    coefficient rows (the booked w-forcing's u and b) stay out of the
    kernel's products (boundary.mode_profiles).
    """
    if len(modes) == 0:
        _check_exponents(modes, also)
        return (0.0, None if nx is None else 0.0, 0.0) + (0.0,) * len(also)
    lattice = _norm_lattice(modes, x_period, _NORM_NY)
    l, P = mode_profiles(modes, 0.0, lattice, also)
    norms = _profile_norms(l, P[:3], lattice.y, x_period, nx)
    for i in range(3, len(P), 3):
        norms += _profile_norms(l, P[i:i + 3], lattice.y, x_period, None)[:1]
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
    the degenerate lifts.  Its nodes are collect_traces' (distinct, in
    increasing (l, alpha)): (l, alpha, G) is a node table of one y-point.
    """

    l: np.ndarray
    alpha: np.ndarray
    G: np.ndarray
    eps: float

    def __len__(self):
        return len(self.l)

    def _shapes(self, l, G, y):
        """(3, len(G), len(y)): (-eps^2 theta'(eps^2 y) G, i l G theta(eps^2 y), 0)."""
        e2 = self.eps ** 2
        u = -e2 * np.outer(G, _theta_prime(e2 * y))
        return np.stack([u, np.outer(1j * l * G, _theta(e2 * y)), np.zeros_like(u)])

    def node_profiles(self, y):
        """(l, alpha, Q) as boundary.node_profiles returns them: G's shapes."""
        return self.l, self.alpha, self._shapes(self.l, self.G, y)

    def profiles(self, t: float, y):
        """(l, P) as boundary.mode_profiles returns them: G's node table read
        at t (boundary.phase_sum), then shaped once per x-group, so no
        nodes-by-y table is made (the norms' 800 y-points)."""
        l, G = phase_sum(self.l, self.alpha, self.G[None, :, None], t)
        return l, self._shapes(l, G[0, :, 0], y)

    def norms(self, x_period: float, nx: int | None = _NORM_NX):
        """(L2, Linf, L2 of d/dx) at t = 0 as modes_norms returns them, on
        800 y-points of [0, 2.5 eps^-2]; with nx None, Linf is None."""
        y = np.linspace(0.0, 2.5 / self.eps ** 2, 800)
        return _profile_norms(*self.profiles(0.0, y), y, x_period, nx)


def collect_traces(interior: ExpModes):
    """Wall traces of the interior modes of one lobe, summed per node.

    Returns (l, alpha, tu, tw, tb) arrays with one entry per distinct
    (l, alpha); the trace fields are the coefficients times
    exp(i l x - i alpha t).  A lift is linear in its trace and depends on
    nothing but the node, so the traces of all modes at one node (the pairs
    (i, j) and (j, i), every interaction row, both eps^2 roots) are summed
    (in mode order) and lifted once.  Nodes merge only on exactly equal
    (l, alpha) (boundary._nodes), which give exactly equal ModalMatrixSpecs.
    """
    l, alpha, inverse = _nodes(interior.l, interior.alpha)
    sums = np.zeros((3, len(l)), dtype=complex)
    np.add.at(sums, (slice(None), inverse), np.stack(interior.traces()))
    return (l, alpha, *sums)


def lift_second_harmonic(
    traces, params: PhysParams
) -> tuple[ExpModes, ExpModes]:
    """Cancel double-lobe wall traces: (eps^3-layer modes, second harmonic),
    one batch lift over the lobe's nodes."""
    l, alpha, tu, tw, tb = traces
    spec = ModalMatrixSpec(params.nu, params.kappa, alpha, l, params.gamma)
    rw, bl = lift_noncritical(spec, [-tu, -tw, -tb])
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
    lift, leftover = lift_nonoscillating(spec, [-tu[~shear], -tw[~shear], -tb[~shear]])
    cut = 2 * np.count_nonzero(l[~shear] < 0)
    bl = ExpModes.concat([lift[:cut], _shear_lift(alpha[shear], tu[shear], tb[shear], params),
                          lift[cut:]])
    # remaining wall value of w is exactly `leftover`; the mean flow
    # must carry w(0) = -leftover, i.e. dx G = -leftover
    mf = MeanFlowField(l=l[~shear], alpha=alpha[~shear],
                       G=-leftover / (1j * l[~shear]), eps=params.eps)
    return bl, mf


def trace_density(assembly: PacketAssembly):
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
    tu, tw, tb = solve_interior_a(_pair_modes(modes, modes), assembly.params).traces()
    return abs(tu.sum()), abs(tw.sum()), abs(tb.sum())


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

W1_BLEPS2 = "W1_BLeps2"
W1_BLEPS3 = "W1_BLeps3"
W1_II = "W1_II"
W1_MF = "W1_MF"
W1_MODAL = (W1_BLEPS2, W1_BLEPS3, W1_II)  # the exponential-mode families
W1_FAMILIES = (*W1_MODAL, W1_MF)


@dataclass
class CorrectorAssembly:
    """W1 by family, built from w0 alone (its parameters are w0's), and the
    solved (row, lobe) batches it was lifted from, which the ledger books."""

    w0: PacketAssembly
    families: dict
    batches: list
    store: ExpModes  # read-only; the modal families and batches' modes are its rows

    @property
    def params(self) -> PhysParams:
        return self.w0.params

    @property
    def x_period(self) -> float:
        return self.w0.x_period

    def norms(self, family: str) -> tuple[float, float]:
        """(L2, Linf) of one family at t = 0."""
        if family == W1_MF:
            return self.families[W1_MF].norms(self.x_period)[:2]
        return modes_norms(self.families[family], self.x_period)[:2]

    def modal(self) -> ExpModes:
        """The store: W1_BLeps2 | W1_BLeps3 | W1_II (all but W1_MF)."""
        return self.store

    def profiles(self, t: float, y):
        """(l, P) of W1 at time t: the modal and W1_MF profiles on one group
        axis, as evaluate_W1 reads them."""
        l, P = mode_profiles(self.modal(), t, y)
        l_mf, P_mf = self.families[W1_MF].profiles(t, y)
        return np.concatenate([l, l_mf]), np.concatenate([P, P_mf], axis=-2)


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


def _solved_batches(assembly: PacketAssembly) -> list:
    """(row, lobe, forcing, interior modes) per non-empty lobe of every row,
    in table order; c-type rows are only booked and have no modes."""
    params = assembly.params
    solvers = {"a": solve_interior_a, "b": solve_interior_b}
    batches = []
    for itype in INTERACTIONS:
        for lobe, pairs in enumerate_pairs(assembly, itype).items():
            if len(pairs):
                _check_lobe(itype.name, lobe, pairs, assembly)
                src = pairs.scaled(-params.delta)
                solve = solvers.get(itype.kind)
                batches.append((itype, lobe, src, solve(src, params) if solve else None))
    return batches


def _lift_batches(w0: PacketAssembly, batches: list) -> CorrectorAssembly:
    """W1 of solved batches (all rows, or a subset, in table order): their
    interior modes (a rows before b rows), the lifts of their wall traces
    summed per lobe, and the mean flow, stacked once; each batch's modes
    become its rows, and its forcing keeps its coefficients on them."""
    solved = [b for b in batches if b[3] is not None]
    traces = {lobe: collect_traces(ExpModes.concat(b[3] for b in solved if b[1] is lobe))
              for lobe in Lobe}
    bl3_ii, w1_ii = lift_second_harmonic(traces[Lobe.DOUBLE], w0.params)
    bl3_mf, w1_mf = lift_mean_flow(traces[Lobe.ZERO], w0.params)
    store, views = ExpModes.stacked([*(b[3] for b in solved), bl3_ii, bl3_mf, w1_ii])
    rows = iter(views)  # the solved batches' rows, in order
    batches = [(it, lobe, src, m) if m is None else (it, lobe, dataclasses.replace(
        v := next(rows), cu=src.cu, cw=src.cw, cb=src.cb), v) for it, lobe, src, m in batches]
    a, ii = sum(len(b[3]) for b in solved if b[0].kind == "a"), len(store) - len(w1_ii)
    return CorrectorAssembly(w0, {W1_BLEPS2: store[:a], W1_BLEPS3: store[a:ii],
                                  W1_II: store[ii:], W1_MF: w1_mf}, batches, store)


def assemble_W1(assembly: PacketAssembly) -> CorrectorAssembly:
    """Full corrector of the packet W0 = assembly, at its parameters:
    every (row, lobe) batch solved once, then lifted with its mean flow."""
    return _lift_batches(assembly, _solved_batches(assembly))


def rowwise_family_sizes(assembly: PacketAssembly) -> dict[str, tuple[float, float]]:
    """Per-family (L2, Linf) sizes, aggregated row by interaction row.

    This is the quantity the corrector size estimates control: the batches
    are solved once, each a/b row's are lifted separately and the norms are
    added, mirroring the row-by-row construction (triangle inequality).
    The fully assembled corrector is smaller because Q(W0, W0) vanishes at
    the wall (u0 = w0 = 0 there), so the rows' wall traces largely cancel.
    """
    totals = {f: [0.0, 0.0] for f in W1_FAMILIES}
    batches = _solved_batches(assembly)
    for it in INTERACTIONS:
        if it.kind == "c":
            continue
        casm = _lift_batches(assembly, [b for b in batches if b[0] is it])
        for fam, acc in totals.items():
            l2, linf = casm.norms(fam)
            acc[0] += l2
            acc[1] += linf
    return {f: (v[0], v[1]) for f, v in totals.items()}


def evaluate_W1(casm: CorrectorAssembly, t, x, y):
    """Total corrector field (u, w, b) on the grid, from casm.profiles."""
    return tuple(synthesize(*casm.profiles(t, y), x))


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
    delta eps^2 + delta^2 + eps^6.  The interior terms are booked from
    casm.batches, the batches its W1 was lifted from, with no pair
    enumerated or solved again.  Each modes_norms call is one kernel
    pass: one per (row, lobe) batch, one for the incident diffusion term and
    one per modal W1 family (22 at the nine rows).  A batch's pass skips its
    all-zero rows (the w-forcing's u and b, the w-row term's u and w: 8 of
    an a batch's 12 rows are contracted, 4 of a b batch's 6).  A family's
    pass holds its own rows and its d/dy's, 6 rows: the d/dx L2 comes from
    its own profiles, and the max-norm from one x-basis in row blocks.

    The cross terms' W1 factors (its max-norm and the L2 of its d/dx and
    d/dy) are the modal families' alone: W1_MF is left out.  At gamma = 0.7
    and eps in [0.118, 0.2] (5 to 9 nodes per lobe) its max-norm is at most
    1.9e-5 of the modal one and its d/dx and d/dy L2 at most 2.4e-6 of
    theirs; adding it would move the ledger's values.
    """
    params = casm.params
    w0 = casm.w0
    eps, delta = params.eps, params.delta
    report: dict[str, float] = {}

    # what the interior solves of casm's batches leave out, and the
    # residual-only c-type interactions
    for itype, _, src, modes in casm.batches:
        if modes is None:
            booked = {f"c_terms_{itype.name}": src}
        else:
            booked = _booked_terms(itype.kind, src, modes, params)
        # the terms of one batch share src's exponents: one kernel pass
        first, *rest = booked.values()
        l2, _, _, *more = modes_norms(first, w0.x_period, nx=None, also=rest)
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

    # one kernel pass per family, over its profiles and its d/dy's, gives
    # its Linf and the L2 of d/dx (from its own profiles) and of d/dy
    u1_inf = w1_inf = dx1 = dy1 = 0.0
    for fam in W1_MODAL:
        m = casm.families[fam]
        _, linf, dx, dy = modes_norms(m, casm.x_period, also=[m.d_dy()])
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
