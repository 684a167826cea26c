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
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .params import criticality_zeta


@dataclass(frozen=True)
class ModalMatrixSpec:
    """Parameters entering the modal matrix A_{nu,kappa,omega,k}(lambda)."""

    nu: float
    kappa: float
    omega: float
    k: float
    gamma: float

    def __post_init__(self):
        if self.nu < 0 or self.kappa < 0:
            raise ValueError("nu and kappa must be nonnegative")

    @property
    def zeta(self) -> float:
        return criticality_zeta(self.omega, self.gamma)


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


@dataclass(frozen=True)
class CharPoly:
    """Coefficients c[0..6] of det A(lambda) = sum_j c[j] lambda^j."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) != 7:
            raise ValueError("expected 7 coefficients c0..c6")

    def __call__(self, lam: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def derivative(self, lam: complex) -> complex:
        acc = 0.0 + 0.0j
        for j in range(6, 0, -1):
            acc = acc * lam + j * self.coeffs[j]
        return acc


def char_poly(spec: ModalMatrixSpec) -> CharPoly:
    """The degree-6 determinant polynomial, grouped around zeta.

    det A = -nu kap l^6 + (-iw(kap+nu) + 3 nu kap k^2) l^4
            + (zeta + 2iw(kap+nu)k^2 - 3 nu kap k^4) l^2
            - 2ik sin g cos g l
            + k^2 (cos^2 g - w^2 - iw(kap+nu)k^2 + nu kap k^4)
    """
    nu, kap, w, k, g = spec.nu, spec.kappa, spec.omega, spec.k, spec.gamma
    sg, cg = math.sin(g), math.cos(g)
    zeta = spec.zeta
    c6 = -nu * kap
    c5 = 0.0
    c4 = -1j * w * (kap + nu) + 3.0 * nu * kap * k**2
    c3 = 0.0
    c2 = zeta + 2j * w * (kap + nu) * k**2 - 3.0 * nu * kap * k**4
    c1 = -2j * k * sg * cg
    c0 = k**2 * (cg**2 - w**2 - 1j * w * (kap + nu) * k**2 + nu * kap * k**4)
    return CharPoly((c0, c1, c2, c3, c4, c5, c6))


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


@dataclass
class RootSet:
    """Six roots of the characteristic polynomial, optionally labeled.

    labels[i] is the asymptotic tag 1..6 of roots[i] once classified;
    exactly the roots tagged 2, 3, 5 have positive real part under the
    standing assumptions.
    """

    roots: np.ndarray
    poly: CharPoly
    labels: tuple[int, ...] | None = None
    regime: Regime | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def pos_real(self) -> list[int]:
        return [i for i, r in enumerate(self.roots) if r.real > 0]

    def by_label(self, label: int) -> complex:
        if self.labels is None:
            raise ValueError("root set not classified yet")
        return complex(self.roots[self.labels.index(label)])


class RootSolveError(RuntimeError):
    pass


#: Newton steps polishing the companion-matrix roots
_NEWTON_STEPS = 8


def solve_roots(poly: CharPoly) -> RootSet:
    """All six roots via a pre-scaled companion eigen-solve + Newton polish.

    Coefficients span ~12 orders of magnitude in the boundary-layer regimes,
    so the variable is rescaled by s = |c0/c6|^{1/6} first, which balances
    the extreme coefficients before the companion matrix is formed.
    """
    c = np.asarray(poly.coeffs, dtype=complex)
    if c[6] == 0:
        raise RootSolveError("leading coefficient c6 vanishes (need nu, kappa > 0)")
    if c[0] != 0:
        s = abs(c[0] / c[6]) ** (1.0 / 6.0)
    else:
        s = max(abs(c[1:] / c[6]).max() ** (1.0 / 6.0), 1.0)
    scaled = np.array([c[j] * s**j for j in range(7)]) / (c[6] * s**6)
    mu = np.roots(scaled[::-1])  # np.roots wants highest degree first
    roots = mu * s

    for _ in range(_NEWTON_STEPS):
        p = np.array([poly(r) for r in roots])
        dp = np.array([poly.derivative(r) for r in roots])
        step = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        # damp absurd steps (near-multiple roots); plain Newton otherwise
        big = np.abs(step) > 0.5 * np.maximum(np.abs(roots), 1.0)
        step[big] *= 0.5
        roots = roots - step

    scale = max(abs(ci) for ci in poly.coeffs)
    bad = [
        r
        for r in roots
        if abs(poly(r)) > 1e-10 * scale * max(1.0, abs(r)) ** 6
    ]
    if bad:
        raise RootSolveError(
            f"root polish failed to meet residual bound for {bad}; coeffs={poly.coeffs}"
        )
    return RootSet(roots=np.asarray(roots), poly=poly)


class ClassificationError(RuntimeError):
    pass


def _quad_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Stable quadratic formula (avoids cancellation in the small root)."""
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * disc).real < 0:
        disc = -disc
    q = -0.5 * (b + disc)
    r1 = q / a
    r2 = c / q if q != 0 else 0.0j
    return r1, r2


def _regime_predictions(spec: ModalMatrixSpec, regime: Regime) -> dict[int, complex]:
    """Leading-order root predictions per asymptotic label for one regime."""
    nu, kap, w, k, g = spec.nu, spec.kappa, spec.omega, spec.k, spec.gamma
    sg, cg = math.sin(g), math.cos(g)
    zeta = spec.zeta
    pred: dict[int, complex] = {}

    def pos_first(a: complex, b: complex) -> tuple[complex, complex]:
        return (a, b) if a.real >= b.real else (b, a)

    # lambda5/6 ~ +/- sqrt(-iw(kap+nu)/(nu kap)) in every oscillating regime
    lam5 = cmath.sqrt(-1j * w * (kap + nu) / (nu * kap))
    if lam5.real < 0:
        lam5 = -lam5

    if regime is Regime.NON_CRITICAL:
        # O(1) pair: zeta l^2 - 2ik sg cg l + k^2 (cos^2 g - w^2) = 0
        ra, rb = _quad_roots(zeta, -2j * k * sg * cg, k**2 * (cg**2 - w**2))
        lam2, lam1 = pos_first(ra, rb)
        pred[1], pred[2] = lam1, lam2
        # O(nu^{-1/2}) quartet: -nu kap l^4 - iw(kap+nu) l^2 + zeta = 0
        x1, x2 = _quad_roots(-nu * kap, -1j * w * (kap + nu), zeta)
        xs = sorted((x1, x2), key=abs)  # smaller |l^2| branch -> labels 3/4
        l3 = cmath.sqrt(xs[0])
        l5 = cmath.sqrt(xs[1])
        if l3.real < 0:
            l3 = -l3
        if l5.real < 0:
            l5 = -l5
        pred[3], pred[4] = l3, -l3
        pred[5], pred[6] = l5, -l5
        return pred

    # common to all critical regimes: the O(1) root
    pred[1] = -1j * k * (cg**2 - w**2) / (2.0 * sg * cg)
    pred[5], pred[6] = lam5, -lam5

    if regime is Regime.CRITICAL_SMALL_DIFF:
        pred[2] = 2j * k * sg * cg / zeta
        l3 = cmath.sqrt(zeta / (1j * w * (kap + nu)))
        if l3.real < 0:
            l3 = -l3
        pred[3], pred[4] = l3, -l3
    elif regime is Regime.CRITICAL_DY:
        # cubic -iw(kap+nu) l^3 + zeta l - 2ik sg cg = 0
        cub = np.roots([-1j * w * (kap + nu), 0.0, zeta, -2j * k * sg * cg])
        cub = sorted(cub, key=lambda z: z.real)
        pred[4] = cub[0]  # the one with negative real part
        a, b = cub[1], cub[2]
        if a.imag < b.imag:
            a, b = b, a
        pred[2], pred[3] = a, b  # deterministic: label 2 = larger Im
    elif regime is Regime.CRITICAL_LARGE_DIFF:
        # zeta -> 0 limit of the distinguished cubic: -iw(kap+nu) l^3 = 2ik sg cg
        cube = -2.0 * k * sg * cg / (w * (kap + nu))
        base = cube ** (1.0 / 3.0) if cube >= 0 else -((-cube) ** (1.0 / 3.0))
        thirds = [base * cmath.exp(2j * math.pi * j / 3.0) for j in range(3)]
        thirds = sorted(thirds, key=lambda z: z.real)
        pred[4] = thirds[0]
        a, b = thirds[1], thirds[2]
        if a.imag < b.imag:
            a, b = b, a
        pred[2], pred[3] = a, b
    else:
        raise ValueError(regime)
    return pred


def _nonoscillating_predictions(spec: ModalMatrixSpec) -> dict[int, complex]:
    nu, kap, k, g = spec.nu, spec.kappa, spec.k, spec.gamma
    sg = math.sin(g)
    pred: dict[int, complex] = {}
    base = -1j * k / math.tan(g)
    drift = (nu + kap) * abs(k) ** 3 / sg**2
    pred[1] = base - drift
    pred[2] = base + drift
    # quartet: l^4 = -sin^2 g / (nu kap), i.e. |l| = (sg^2/(nu kap))^{1/4}
    rho = (sg * sg / (nu * kap)) ** 0.25
    pred[3] = rho * cmath.exp(1j * math.pi / 4)
    pred[5] = rho * cmath.exp(-1j * math.pi / 4)
    pred[4] = -pred[3]
    pred[6] = -pred[5]
    return pred


def classify_roots(rootset: RootSet, spec: ModalMatrixSpec) -> RootSet:
    """Pick the Table-1 regime and tag each root with its asymptotic label.

    Regime thresholds (the asymptotic statements use "<<"; the tool needs
    deterministic cuts): |zeta| >= 0.5 is non-critical; otherwise the ratio
    |zeta| / nu^{1/3} decides between small-diffusion (> 3), distinguished
    (in [1/3, 3]) and large-diffusion (< 1/3), with factor-3 guard bands
    flagged as contested.  max(|omega|, |k|) <= 3 nu^{1/3} is the
    non-oscillating degeneracy.

    Matching root -> label is a minimum-cost assignment against the
    regime's leading-order predictions (relative distance cost, ties broken
    towards smaller |Im|).
    """
    nu = spec.nu
    zeta = spec.zeta
    nu13 = nu ** (1.0 / 3.0)
    warnings: list[str] = []

    if max(abs(spec.omega), abs(spec.k)) <= 3.0 * nu13:
        regime = Regime.NON_OSCILLATING
        pred = _nonoscillating_predictions(spec)
    else:
        if abs(zeta) >= 0.5:
            regime = Regime.NON_CRITICAL
        elif abs(zeta) > 3.0 * nu13:
            regime = Regime.CRITICAL_SMALL_DIFF
        elif abs(zeta) >= nu13 / 3.0:
            regime = Regime.CRITICAL_DY
        else:
            regime = Regime.CRITICAL_LARGE_DIFF
        if 0.5 / 3.0 <= abs(zeta) <= 1.5 and regime is not Regime.NON_CRITICAL:
            warnings.append(
                f"|zeta|={abs(zeta):.3g} sits in the contested band around 0.5; "
                f"adjacent label {Regime.NON_CRITICAL.value} is also plausible"
            )
        if regime is Regime.CRITICAL_SMALL_DIFF and abs(zeta) <= 3.0 * nu ** 0.25:
            warnings.append(
                f"|zeta|={abs(zeta):.3g} within the nu^(1/4) guard band "
                f"(nu^(1/4)={nu**0.25:.3g}); slow-decay reflected-wave reading possible"
            )
        if spec.omega == 0.0 and regime is not Regime.NON_CRITICAL:
            raise ClassificationError(
                f"omega = 0 with k = {spec.k:.6g} falls in regime "
                f"{regime.value}, whose leading-order roots divide by omega")
        pred = _regime_predictions(spec, regime)

    labels = sorted(pred.keys())
    roots = rootset.roots
    cost = np.empty((6, 6))
    for i, r in enumerate(roots):
        for j, lab in enumerate(labels):
            p = pred[lab]
            cost[i, j] = abs(r - p) / max(abs(p), 1e-300)
    rows, cols = linear_sum_assignment(cost)
    assigned = [0] * 6
    for i, j in zip(rows, cols):
        assigned[i] = labels[j]

    # ambiguity check: another root nearly as close to the same prediction
    for i, j in zip(rows, cols):
        d = cost[i, j]
        rivals = [
            i2
            for i2 in range(6)
            if i2 != i and abs(cost[i2, j] - d) <= 1e-9 * max(d, 1.0)
            and abs(roots[i2].imag) == abs(roots[i].imag)
        ]
        if rivals:
            raise ClassificationError(
                f"ambiguous assignment for label {labels[j]}: roots "
                f"{roots[i]} and {[roots[r] for r in rivals]} are equidistant"
            )

    return RootSet(
        roots=roots,
        poly=rootset.poly,
        labels=tuple(assigned),
        regime=regime,
        warnings=warnings,
    )


def roots_for(spec: ModalMatrixSpec) -> RootSet:
    """Convenience: characteristic polynomial -> roots -> classification."""
    return classify_roots(solve_roots(char_poly(spec)), spec)


@dataclass(frozen=True)
class Eigenvector:
    """Null vector (U, W, B, P) of A(lambda), normalized to U = 1."""

    U: complex
    W: complex
    B: complex
    P: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.U, self.W, self.B, self.P], dtype=complex)


class SingularEigenvectorError(RuntimeError):
    pass


def eigenvector(spec: ModalMatrixSpec, lam: complex) -> Eigenvector:
    """Eigenvector for a characteristic root, U normalized to 1.

    W = ik/lambda U by the divergence row; B and P follow from the buoyancy
    and u-momentum rows.  lambda is residual-checked against the
    characteristic polynomial first.
    """
    poly = char_poly(spec)
    scale = max(abs(c) for c in poly.coeffs)
    if abs(poly(lam)) > 1e-8 * scale * max(1.0, abs(lam)) ** 6:
        raise ValueError(f"lambda={lam} is not a characteristic root")
    nu, kap, w, k, g = spec.nu, spec.kappa, spec.omega, spec.k, spec.gamma
    sg, cg = math.sin(g), math.cos(g)
    if lam == 0:
        raise SingularEigenvectorError("lambda = 0 leaves W undetermined")
    denom = 1j * w - kap * (k * k - lam * lam)
    if abs(denom) < 1e-14:
        raise SingularEigenvectorError(
            f"buoyancy denominator i*omega - kappa(k^2-lambda^2) = {denom} too small"
        )
    U = 1.0 + 0.0j
    W = 1j * k / lam
    B = (sg + W * cg) / denom
    if k == 0:
        raise SingularEigenvectorError("k = 0 leaves the pressure undetermined")
    P = (1j * w - nu * (k * k - lam * lam) + sg * B) / (1j * k)
    return Eigenvector(U=U, W=W, B=B, P=P)
