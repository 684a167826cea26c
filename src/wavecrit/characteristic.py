"""Viscous modal matrix, degree-6 characteristic polynomial, root taxonomy.

Solutions of the linearized viscous Boussinesq system of the form
(U, W, B, P) exp(i(kx - wt) - lambda*y) exist iff lambda is a root of
det A(lambda) = 0 where A is the 4x4 modal matrix

        [ -iw + nu(k^2-l^2)      0                -sin g    ik ]
    A = [ 0                      -iw + nu(k^2-l^2) -cos g   -l ]
        [ sin g                  cos g             -iw + kap(k^2-l^2)  0 ]
        [ ik                     -l                0         0 ]

The determinant is a degree-6 polynomial in lambda whose six roots split
into interior/reflected rates of size O(1) and boundary-layer rates of size
nu^{-1/3} ... nu^{-1/2} depending on the criticality parameter
zeta = w^2 - sin^2 g.  Exactly three roots have positive real part, so three
boundary conditions can always be lifted by decaying modes.

Batches.  Every ModalMatrixSpec is a batch of nodes: array fields (1-D,
broadcast against each other) give one node per entry, and a spec with
scalar fields is a batch of one.  roots_for returns a RootSet of the whole
batch.  The six roots of every node come from one stacked companion
eigvals call ((n, 6, 6), laid out as np.roots lays it out) and 8 damped
Newton steps of an array Horner over the (n, 7) coefficients.  The regime
cut is a set of array masks, each regime's leading-order predictions are
array formulas (the distinguished cubic is a stacked 3x3 eigvals), and the
labels minimize the summed relative distance to the predictions over all
720 permutations at once.  eigenvector works elementwise.  Every check
runs over the whole batch and raises a typed error naming the first node
that fails it.

Unresolved pair.  With k != 0 exactly three roots have Re > 0, but two
of the small roots sit near a double root at lambda0 = -ik cot(g) (exact
at omega = 0 and nu = kappa = 0).  Their real parts are +/- d,
d = nu |k|^3 / sin^4 g to leading order whatever omega, and omega splits
them along the imaginary axis by about |k omega| / sin^2 g.  Newton's
error on the pair is about eps_mach |lambda0|^2 over their split, so the
sign of each real part is left to rounding once
d max(d, |k omega| / sin^2 g) comes down to eps_mach |lambda0|^2: small
|k| at small eps, and omega = 0 or |omega| below about 1e-8.  There a
count other than three is not returned: it raises
UnresolvedRootPairError (a RootSolveError) naming omega and k.  On
gamma = 0.7, eps in [0.08, 0.5], |k| in [1e-3, 2] and omega = 0 or
|omega| in [1e-20, 1], every wrong count had that ratio below 5.  omega = 0
gets no rule of its own: it is the far end of the same band.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .params import criticality_zeta

_FIELDS = ("nu", "kappa", "omega", "k", "gamma")


@dataclass(frozen=True)
class ModalMatrixSpec:
    """Parameters entering the modal matrix A_{nu,kappa,omega,k}(lambda) of a
    batch of nodes: array fields (1-D, broadcast against each other and
    against the scalar ones) give one node per entry; a spec with only
    scalar fields is a batch of one node.
    """

    nu: float
    kappa: float
    omega: float
    k: float
    gamma: float

    def __post_init__(self):
        if np.any(np.asarray(self.nu) < 0) or np.any(np.asarray(self.kappa) < 0):
            raise ValueError("nu and kappa must be nonnegative")


def node_arrays(spec: ModalMatrixSpec, ndim: int = 1):
    """(nu, kappa, omega, k, gamma) as float arrays with one entry per node
    (one for a scalar spec), shaped (n, 1, ...) with ndim axes in all."""
    arrs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(getattr(spec, f), dtype=float))
                                 for f in _FIELDS))
    if arrs[0].ndim != 1:
        raise ValueError("a batch of nodes must be one-dimensional")
    return [a.reshape((-1,) + (1,) * (ndim - 1)) for a in arrs]


def _node_name(spec: ModalMatrixSpec):
    """i -> the (omega, k) of node i, for error messages."""
    _, _, w, k, _ = node_arrays(spec)
    return lambda i: f"node (omega={w[i]:.6g}, k={k[i]:.6g})"


def build_matrix(spec: ModalMatrixSpec, lam: complex) -> np.ndarray:
    """Entry-by-entry modal matrix A(lambda), acting on (U, W, B, P)."""
    nu, kap, w, k, g = spec.nu, spec.kappa, spec.omega, spec.k, spec.gamma
    sg, cg = math.sin(g), math.cos(g)
    d_nu = -1j * w + nu * (k * k - lam * lam)
    d_kap = -1j * w + kap * (k * k - lam * lam)
    return np.array(
        [
            [d_nu, 0.0, -sg, 1j * k],
            [0.0, d_nu, -cg, -lam],
            [sg, cg, d_kap, 0.0],
            [1j * k, -lam, 0.0, 0.0],
        ],
        dtype=complex,
    )


def _horner(c: np.ndarray, lam: np.ndarray):
    """(p, p') of the polynomials c (n, 7), lowest degree first, at the
    points lam (n, m)."""
    cols = c.T[:, :, None]
    p = np.zeros_like(lam)
    dp = np.zeros_like(lam)
    for j in range(6, -1, -1):
        p = p * lam + cols[j]
        if j:
            dp = dp * lam + j * cols[j]
    return p, dp


def char_poly(spec: ModalMatrixSpec) -> np.ndarray:
    """(n, 7) coefficients of every node's determinant polynomial, grouped
    around zeta:

    det A = -nu kap l^6 + (-iw(kap+nu) + 3 nu kap k^2) l^4
            + (zeta + 2iw(kap+nu)k^2 - 3 nu kap k^4) l^2
            - 2ik sin g cos g l
            + k^2 (cos^2 g - w^2 - iw(kap+nu)k^2 + nu kap k^4)
    """
    nu, kap, w, k, g = node_arrays(spec)
    sg, cg = np.sin(g), np.cos(g)
    zeta = criticality_zeta(w, g)
    c = np.zeros((len(w), 7), dtype=complex)
    c[:, 6] = -nu * kap
    c[:, 4] = -1j * w * (kap + nu) + 3.0 * nu * kap * k**2
    c[:, 2] = zeta + 2j * w * (kap + nu) * k**2 - 3.0 * nu * kap * k**4
    c[:, 1] = -2j * k * sg * cg
    c[:, 0] = k**2 * (cg**2 - w**2 - 1j * w * (kap + nu) * k**2 + nu * kap * k**4)
    return c


class Regime(enum.Enum):
    NON_CRITICAL = "NonCritical"
    CRITICAL_SMALL_DIFF = "CriticalSmallDiff"
    CRITICAL_DY = "CriticalDY"
    CRITICAL_LARGE_DIFF = "CriticalLargeDiff"
    NON_OSCILLATING = "NonOscillating"


#: the near-critical family, in which lift_critical applies
CRITICAL_REGIMES = (
    Regime.CRITICAL_SMALL_DIFF,
    Regime.CRITICAL_DY,
    Regime.CRITICAL_LARGE_DIFF,
)

#: regime codes of the batched classification: index into this tuple
_REGIMES = tuple(Regime)
_NC, _SMALL, _DY, _LARGE, _NONOSC = range(5)


@dataclass
class RootSet:
    """Classified roots of a batch of nodes: roots (n, 6), their polynomial
    coefficients (n, 7), labels (n, 6), one regime and one warning list per
    node.

    labels[i, j] is the asymptotic tag 1..6 of roots[i, j]; exactly the
    roots tagged 2, 3, 5 have positive real part under the standing
    assumptions.
    """

    roots: np.ndarray
    coeffs: np.ndarray
    labels: np.ndarray
    regimes: list[Regime]
    warnings: list[list[str]]

    def __len__(self):
        return len(self.roots)

    def by_label(self, label: int) -> np.ndarray:
        """The root of every node that carries the label, shape (n,)."""
        return self.roots[self.labels == label]


class RootSolveError(RuntimeError):
    pass


class UnresolvedRootPairError(RootSolveError):
    """A node with k != 0 whose polished roots do not have exactly three
    with Re > 0 (see the module docstring: a near-double pair that Newton
    does not resolve)."""


#: Newton steps polishing the companion-matrix roots
_NEWTON_STEPS = 8


def _first(mask: np.ndarray) -> int | None:
    """Index of the first node (first axis) with a True entry, or None."""
    hits = np.flatnonzero(mask.any(axis=tuple(range(1, mask.ndim))))
    return int(hits[0]) if len(hits) else None


def _polished_roots(c: np.ndarray, name) -> np.ndarray:
    """Roots (n, 6) of the polynomials c (n, 7): a pre-scaled stacked
    companion eigen-solve, then Newton polish.  name(i) names node i in a
    RootSolveError.

    Coefficients span ~12 orders of magnitude in the boundary-layer regimes,
    so the variable is rescaled by s = |c0/c6|^{1/6} first, which balances
    the extreme coefficients before the companion matrix is formed.
    """
    i = _first(c[:, 6] == 0)
    if i is not None:
        raise RootSolveError(
            f"leading coefficient c6 vanishes at {name(i)} (need nu, kappa > 0)")
    s = np.where(c[:, 0] != 0, np.abs(c[:, 0] / c[:, 6]) ** (1.0 / 6.0),
                 np.maximum(np.abs(c[:, 1:] / c[:, 6:]).max(axis=1) ** (1.0 / 6.0), 1.0))
    scaled = c * s[:, None] ** np.arange(7) / (c[:, 6] * s**6)[:, None]
    # np.roots' companion matrix: first row -p[1:]/p[0], ones below the diagonal
    comp = np.zeros((len(c), 6, 6), dtype=complex)
    comp[:, 0] = -scaled[:, 5::-1] / scaled[:, 6:]
    comp[:, range(1, 6), range(5)] = 1.0
    roots = np.linalg.eigvals(comp) * s[:, None]

    for _ in range(_NEWTON_STEPS):
        p, dp = _horner(c, roots)
        step = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        # damp absurd steps (near-multiple roots); plain Newton otherwise
        big = np.abs(step) > 0.5 * np.maximum(np.abs(roots), 1.0)
        step[big] *= 0.5
        roots = roots - step

    scale = np.abs(c).max(axis=1, keepdims=True)
    p, _ = _horner(c, roots)
    bad = np.abs(p) > 1e-10 * scale * np.maximum(1.0, np.abs(roots)) ** 6
    i = _first(bad)
    if i is not None:
        raise RootSolveError(
            f"root polish failed to meet the residual bound at {name(i)} for "
            f"{roots[i][bad[i]]}; coeffs={tuple(c[i])}")
    # with k != 0 (c0 != 0) exactly three roots decay; any other count is
    # a near-double pair split below what Newton resolves, not an answer
    count = (roots.real > 0).sum(axis=1)
    i = _first((count != 3) & (c[:, 0] != 0))
    if i is not None:
        raise UnresolvedRootPairError(
            f"{count[i]} roots with Re > 0 at {name(i)}, not 3: a near-double "
            f"root pair is not resolved; roots {roots[i]}")
    return roots


class ClassificationError(RuntimeError):
    pass


def _quad_roots(a, b, c):
    """Stable quadratic formula (avoids cancellation in the small root)."""
    disc = np.sqrt(b * b - 4.0 * a * c)
    disc = np.where((b.conjugate() * disc).real < 0, -disc, disc)
    q = -0.5 * (b + disc)
    nonzero = q != 0
    return q / a, np.where(nonzero, c / np.where(nonzero, q, 1.0), 0.0)


def _cubic_labels(cub):
    """(lambda2, lambda3, lambda4) from the three cubic roots (n, 3): label 4
    has the smallest real part, and of the other two label 2 has the larger
    imaginary part."""
    cub = np.take_along_axis(cub, np.argsort(cub.real, axis=1, kind="stable"), axis=1)
    a, b = cub[:, 1], cub[:, 2]
    swap = a.imag < b.imag
    return np.where(swap, b, a), np.where(swap, a, b), cub[:, 0]


_THIRDS = np.array([cmath.exp(2j * math.pi * j / 3.0) for j in range(3)])
_EIGHTH = cmath.exp(1j * math.pi / 4)


def _predictions(spec: ModalMatrixSpec, code: np.ndarray) -> np.ndarray:
    """Leading-order root predictions (n, 6), one column per label 1..6,
    for the nodes' regime codes (indices into tuple(Regime))."""
    nu, kap, w, k, g = node_arrays(spec)
    sg, cg = np.sin(g), np.cos(g)
    zeta = criticality_zeta(w, g)
    pred = np.empty((len(code), 6), dtype=complex)

    nc = code == _NC
    if nc.any():
        s_nu, s_kap, s_w, s_k, s_sg, s_cg, s_z = (
            a[nc] for a in (nu, kap, w, k, sg, cg, zeta))
        # O(1) pair: zeta l^2 - 2ik sg cg l + k^2 (cos^2 g - w^2) = 0
        ra, rb = _quad_roots(s_z, -2j * s_k * s_sg * s_cg, s_k**2 * (s_cg**2 - s_w**2))
        first = ra.real >= rb.real
        # O(nu^{-1/2}) quartet: -nu kap l^4 - iw(kap+nu) l^2 + zeta = 0
        x1, x2 = _quad_roots(-s_nu * s_kap, -1j * s_w * (s_kap + s_nu), s_z)
        # smaller |l^2| branch -> labels 3/4; np.sqrt's branch has Re >= 0
        swap = np.abs(x2) < np.abs(x1)
        l3 = np.sqrt(np.where(swap, x2, x1))
        l5 = np.sqrt(np.where(swap, x1, x2))
        pred[nc] = np.stack([np.where(first, rb, ra), np.where(first, ra, rb),
                             l3, -l3, l5, -l5], axis=1)

    crit = (code == _SMALL) | (code == _DY) | (code == _LARGE)
    # common to all critical regimes: the O(1) root and
    # lambda5/6 ~ +/- sqrt(-iw(kap+nu)/(nu kap))
    lam5 = np.sqrt(-1j * w[crit] * (kap[crit] + nu[crit]) / (nu[crit] * kap[crit]))
    pred[crit, 0] = -1j * k[crit] * (cg[crit]**2 - w[crit]**2) / (2.0 * sg[crit] * cg[crit])
    pred[crit, 4], pred[crit, 5] = lam5, -lam5

    sd = code == _SMALL
    pred[sd, 1] = 2j * k[sd] * sg[sd] * cg[sd] / zeta[sd]
    l3 = np.sqrt(zeta[sd] / (1j * w[sd] * (kap[sd] + nu[sd])))
    pred[sd, 2], pred[sd, 3] = l3, -l3

    dy = code == _DY
    if dy.any():
        # cubic -iw(kap+nu) l^3 + zeta l - 2ik sg cg = 0 by its companion
        lead = -1j * w[dy] * (kap[dy] + nu[dy])
        comp = np.zeros((int(dy.sum()), 3, 3), dtype=complex)
        comp[:, 0, 1] = -zeta[dy] / lead
        comp[:, 0, 2] = 2j * k[dy] * sg[dy] * cg[dy] / lead
        comp[:, 1, 0] = comp[:, 2, 1] = 1.0
        pred[dy, 1], pred[dy, 2], pred[dy, 3] = _cubic_labels(np.linalg.eigvals(comp))

    ld = code == _LARGE
    # zeta -> 0 limit of the distinguished cubic: -iw(kap+nu) l^3 = 2ik sg cg
    cube = -2.0 * k[ld] * sg[ld] * cg[ld] / (w[ld] * (kap[ld] + nu[ld]))
    base = np.where(cube >= 0, 1.0, -1.0) * np.abs(cube) ** (1.0 / 3.0)
    pred[ld, 1], pred[ld, 2], pred[ld, 3] = _cubic_labels(base[:, None] * _THIRDS)

    no = code == _NONOSC
    base = -1j * k[no] / np.tan(g[no])
    drift = (nu[no] + kap[no]) * np.abs(k[no]) ** 3 / sg[no] ** 2
    # quartet: l^4 = -sin^2 g / (nu kap), i.e. |l| = (sg^2/(nu kap))^{1/4}
    rho = (sg[no] * sg[no] / (nu[no] * kap[no])) ** 0.25
    pred[no] = np.stack([base - drift, base + drift, rho * _EIGHTH, -rho * _EIGHTH,
                         rho * _EIGHTH.conjugate(), -rho * _EIGHTH.conjugate()], axis=1)
    return pred


#: every assignment of the six labels to the six roots, perm[q, i] = label
#: index of root i
_PERMS = np.array(list(itertools.permutations(range(6))))


def _classify(roots: np.ndarray, spec: ModalMatrixSpec, name):
    """(labels (n, 6), regimes, warnings) of the roots (n, 6) of a batch.

    Regime thresholds (the asymptotic statements use "<<"; the tool needs
    deterministic cuts): |zeta| >= 0.5 is non-critical; otherwise the ratio
    |zeta| / nu^{1/3} decides between small-diffusion (> 3), distinguished
    (in [1/3, 3]) and large-diffusion (< 1/3), with factor-3 guard bands
    flagged as contested.  max(|omega|, |k|) <= 3 nu^{1/3} is the
    non-oscillating degeneracy.

    Matching root -> label is a minimum-cost assignment against the
    regime's leading-order predictions (relative distance cost): the cost of
    every permutation, summed over the six roots, in one (n, 720) array.
    """
    nu, kap, w, k, g = node_arrays(spec)
    az = np.abs(criticality_zeta(w, g))
    nu13 = nu ** (1.0 / 3.0)
    nonosc = np.maximum(np.abs(w), np.abs(k)) <= 3.0 * nu13
    code = np.select([nonosc, az >= 0.5, az > 3.0 * nu13, az >= nu13 / 3.0],
                     [_NONOSC, _NC, _SMALL, _DY], _LARGE)
    regimes = [_REGIMES[c] for c in code]

    warnings: list[list[str]] = [[] for _ in code]
    for i in np.flatnonzero(~nonosc & (code != _NC) & (az >= 0.5 / 3.0) & (az <= 1.5)):
        warnings[i].append(
            f"|zeta|={az[i]:.3g} sits in the contested band around 0.5; "
            f"adjacent label {Regime.NON_CRITICAL.value} is also plausible")
    for i in np.flatnonzero((code == _SMALL) & (az <= 3.0 * nu**0.25)):
        warnings[i].append(
            f"|zeta|={az[i]:.3g} within the nu^(1/4) guard band "
            f"(nu^(1/4)={nu[i]**0.25:.3g}); slow-decay reflected-wave reading possible")
    i = _first(~nonosc & (code != _NC) & (w == 0.0))
    if i is not None:
        raise ClassificationError(
            f"omega = 0 with k = {k[i]:.6g} falls in regime {regimes[i].value}, "
            "whose leading-order roots divide by omega")

    pred = _predictions(spec, code)
    # cost[b, i, j]: relative distance of root i to the prediction of label j + 1
    cost = np.abs(roots[:, :, None] - pred[:, None, :]) / np.maximum(np.abs(pred), 1e-300)[:, None, :]
    total = np.zeros((len(roots), len(_PERMS)))
    for i in range(6):
        total += cost[:, i, _PERMS[:, i]]
    best = _PERMS[total.argmin(axis=1)]

    # ambiguity check: another root nearly as close to the same prediction
    d = np.take_along_axis(cost, best[:, :, None], axis=2)[:, :, 0]
    rival_cost = np.take_along_axis(cost, best[:, None, :], axis=2)  # [b, i2, i]
    im = np.abs(roots.imag)
    rival = ((np.abs(rival_cost - d[:, None, :]) <= 1e-9 * np.maximum(d, 1.0)[:, None, :])
             & (im[:, :, None] == im[:, None, :]) & ~np.eye(6, dtype=bool))
    b = _first(rival)
    if b is not None:
        i = int(np.flatnonzero(rival[b].any(axis=0))[0])
        raise ClassificationError(
            f"ambiguous assignment for label {best[b, i] + 1} at {name(b)}: roots "
            f"{roots[b, i]} and {list(roots[b, rival[b, :, i]])} are equidistant")
    return best + 1, regimes, warnings


def roots_for(spec: ModalMatrixSpec) -> RootSet:
    """Characteristic polynomial -> roots -> classification, for every node
    of the spec."""
    name = _node_name(spec)
    c = char_poly(spec)
    roots = _polished_roots(c, name)
    return RootSet(roots, c, *_classify(roots, spec, name))


@dataclass(frozen=True)
class Eigenvector:
    """Null vectors (U, W, B, P) of A(lambda), normalized to U = 1: arrays
    of lambda's shape."""

    U: np.ndarray
    W: np.ndarray
    B: np.ndarray
    P: np.ndarray


class SingularEigenvectorError(RuntimeError):
    pass


def eigenvector(spec: ModalMatrixSpec, lam) -> Eigenvector:
    """Eigenvectors for characteristic roots, U normalized to 1.

    W = ik/lambda U by the divergence row; B and P follow from the buoyancy
    and u-momentum rows.  lam is (n,) or (n, m) for the n nodes of the spec
    (roots of each node along the second axis), and the fields have lam's
    shape.  Each lambda is residual-checked against its node's
    characteristic polynomial first; an error names the first node whose
    root fails the check, with its omega, k and lambda.
    """
    c = char_poly(spec)
    lam = np.asarray(lam, dtype=complex)
    lam2 = lam if lam.ndim == 2 else lam[:, None]  # (n, m)
    nu, kap, w, k, g = node_arrays(spec, ndim=2)
    sg, cg = np.sin(g), np.cos(g)
    p, _ = _horner(c, lam2)
    denom = 1j * w - kap * (k * k - lam2 * lam2)
    checks = (
        (np.abs(p) > 1e-8 * np.abs(c).max(axis=1, keepdims=True)
         * np.maximum(1.0, np.abs(lam2)) ** 6, ValueError, "is not a characteristic root"),
        (lam2 == 0, SingularEigenvectorError, "lambda = 0 leaves W undetermined"),
        (np.abs(denom) < 1e-14, SingularEigenvectorError,
         "buoyancy denominator i*omega - kappa(k^2-lambda^2) too small"),
        (np.broadcast_to(k == 0, lam2.shape), SingularEigenvectorError,
         "k = 0 leaves the pressure undetermined"),
    )
    for bad, error, what in checks:
        i = _first(bad)
        if i is not None:
            j = int(np.flatnonzero(bad[i])[0])
            raise error(f"lambda={lam2[i, j]} at node (omega={w[i, 0]:.6g}, "
                        f"k={k[i, 0]:.6g}): {what}")
    W = 1j * k / lam2
    B = (sg + W * cg) / denom
    P = (1j * w - nu * (k * k - lam2 * lam2) + sg * B) / (1j * k)
    return Eigenvector(*(f.reshape(lam.shape) for f in (np.ones_like(lam2), W, B, P)))
