"""Boundary operators: lifting wall traces by decaying characteristic modes.

At a fixed horizontal wavenumber k and frequency omega, the wall conditions

    u|_{y=0} = frak_u,   w|_{y=0} = frak_w,   (d/dy) b|_{y=0} = frak_b

are matched by a combination sum_j a_j (U_j, W_j, B_j) exp(i(kx-wt) - l_j y)
over the characteristic roots l_j with positive real part (labels 2, 3, 5).
Since W_j = ik/l_j and (d/dy) e^{-l_j y} = -l_j at y=0, the amplitudes solve

    sum_j a_j U_j        = frak_u,
    sum_j a_j (ik/l_j)   = frak_w,
    sum_j a_j (-l_j B_j) = frak_b.

In the distinguished near-critical scaling the three columns have wildly
different magnitudes (|l_2|, |l_3| ~ eps^-2 but |l_5| ~ eps^-3), so the
system is column-equilibrated before solving.  In the non-oscillating
degeneracy (|omega|, |k| small) the slowly-decaying mode is useless for
lifting and the w-trace is deliberately left over: only u and d_y b are
matched, with a_2 = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .characteristic import (
    CRITICAL_REGIMES,
    Eigenvector,
    ModalMatrixSpec,
    Regime,
    RootSet,
    eigenvector,
)

#: modes whose exponent drops below exp(-700) contribute exactly zero
_UNDERFLOW_EXPONENT = 700.0


def guarded_exp(expo):
    """exp(expo), but exactly zero where Re(expo) < -700 instead of underflowing."""
    return np.where(expo.real < -_UNDERFLOW_EXPONENT, 0.0, np.exp(expo))


class IllConditionedLiftError(RuntimeError):
    """Equilibrated lift system condition number exceeded 1e14."""


@dataclass(frozen=True)
class TraceTriple:
    """Wall data (u-trace, w-trace, d_y b-trace), complex amplitudes."""

    frak_u: complex
    frak_w: complex
    frak_b: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.frak_u, self.frak_w, self.frak_b], dtype=complex)

    def __mul__(self, c: complex) -> "TraceTriple":
        return TraceTriple(self.frak_u * c, self.frak_w * c, self.frak_b * c)

    __rmul__ = __mul__

    def __add__(self, other: "TraceTriple") -> "TraceTriple":
        return TraceTriple(
            self.frak_u + other.frak_u,
            self.frak_w + other.frak_w,
            self.frak_b + other.frak_b,
        )


class LiftKind(enum.Enum):
    CRITICAL = "Critical"
    NONCRITICAL_RW = "NonCriticalRW"
    NONCRITICAL_BL = "NonCriticalBL"
    NON_OSCILLATING = "NonOscillating"


@dataclass(frozen=True)
class LiftMode:
    label: int
    a: complex
    lam: complex
    vec: Eigenvector


@dataclass(frozen=True)
class BoundaryLift:
    """A sum of decaying modes at one (omega, k), tagged by its role."""

    spec: ModalMatrixSpec
    modes: tuple[LiftMode, ...]
    kind: LiftKind

    def trace(self) -> TraceTriple:
        """Wall values (u, w, d_y b) at y = 0 actually produced by the modes."""
        u = sum(m.a * m.vec.U for m in self.modes)
        w = sum(m.a * m.vec.W for m in self.modes)
        b = sum(m.a * (-m.lam * m.vec.B) for m in self.modes)
        return TraceTriple(complex(u), complex(w), complex(b))


def _lift_columns(
    spec: ModalMatrixSpec, roots: RootSet, labels: tuple[int, ...]
) -> tuple[list[complex], list[Eigenvector], np.ndarray]:
    """Roots, eigenvectors and the 3xN trace matrix for the given labels."""
    lams = [roots.by_label(lab) for lab in labels]
    vecs = [eigenvector(spec, lam) for lam in lams]
    mat = np.array(
        [
            [v.U for v in vecs],
            [v.W for v in vecs],
            [-lam * v.B for lam, v in zip(lams, vecs)],
        ],
        dtype=complex,
    )
    return lams, vecs, mat


def _equilibrated_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs after scaling each column to unit max-norm.

    Raises IllConditionedLiftError if the equilibrated matrix still has
    condition number above 1e14, and checks the solve residual afterwards.
    """
    col = np.abs(mat).max(axis=0)
    col[col == 0.0] = 1.0
    scaled = mat / col
    cond = np.linalg.cond(scaled)
    if not np.isfinite(cond) or cond > 1e14:
        raise IllConditionedLiftError(
            f"lift system condition number {cond:.3g} exceeds 1e14"
        )
    x = np.linalg.solve(scaled, rhs) / col
    resid = np.abs(mat @ x - rhs).max()
    scale = max(np.abs(rhs).max(), (np.abs(mat) * np.abs(x)).sum(axis=1).max())
    if scale > 0 and resid > 1e-10 * scale:
        raise IllConditionedLiftError(
            f"lift residual {resid:.3g} exceeds 1e-10 relative to {scale:.3g}"
        )
    return x


def amplitudes_critical(
    spec: ModalMatrixSpec, roots: RootSet, traces: TraceTriple
) -> tuple[complex, complex, complex]:
    """Amplitudes (a2, a3, a5) matching all three wall traces.

    Valid in the critical family (and reused verbatim for the non-critical
    split, where the same three decaying labels carry the lift).
    """
    _, _, mat = _lift_columns(spec, roots, (2, 3, 5))
    a = _equilibrated_solve(mat, traces.as_array())
    return complex(a[0]), complex(a[1]), complex(a[2])


def limit_amplitudes_DY(
    gamma: float,
    k: float,
    frak_w: complex,
    nu0: float = 1.0,
    kappa0: float = 1.0,
) -> tuple[complex, complex, complex]:
    """eps -> 0 limits (A2bar, A3bar, A5bar) of the rescaled amplitudes.

    In the distinguished scaling at an exactly critical carrier, the
    decaying roots behave as l_2, l_3 ~ L_j / eps^2 and l_5 ~ L_5 / eps^3,
    where L_2, L_3 are the positive-real-part roots of

        -i w0 (nu0+kappa0) L^3 = 2 i k sin(g) cos(g),   w0 = sin(g),

    and L_5^2 = -i w0 (nu0+kappa0)/(nu0 kappa0).  The amplitudes blow up as
    a_2 ~ A2bar/eps^2, a_3 ~ A3bar/eps^2, a_5 ~ A5bar/eps, with the limits
    solving the reduced system below (u-row at order eps^-2, w-row at order
    1, b-row at order eps^-4).
    """
    sg, cg = math.sin(gamma), math.cos(gamma)
    w0 = sg
    # distinguished cubic with zeta = 0: L^3 = -2 k cos(g) / (nu0+kappa0)
    cube = -2.0 * k * cg / (nu0 + kappa0)
    base = cube ** (1.0 / 3.0) if cube >= 0 else -((-cube) ** (1.0 / 3.0))
    thirds = sorted(
        (base * np.exp(2j * math.pi * j / 3.0) for j in range(3)),
        key=lambda z: z.real,
    )
    pos = sorted(thirds[1:], key=lambda z: -z.imag)
    L2, L3 = pos[0], pos[1]
    L5 = np.sqrt(-1j * w0 * (nu0 + kappa0) / (nu0 * kappa0))
    if L5.real < 0:
        L5 = -L5
    mat = np.array(
        [
            [1.0, 1.0, 0.0],
            [1j * k / L2, 1j * k / L3, 0.0],
            [L2 / (1j * w0), L3 / (1j * w0), L5 / (1j * w0 + kappa0 * L5**2)],
        ],
        dtype=complex,
    )
    rhs = np.array([0.0, frak_w, 0.0], dtype=complex)
    try:
        a = _equilibrated_solve(mat, rhs)
    except IllConditionedLiftError as exc:
        raise IllConditionedLiftError(f"singular limit system: {exc}") from exc
    return complex(a[0]), complex(a[1]), complex(a[2])


def lift_critical(
    spec: ModalMatrixSpec, roots: RootSet, traces: TraceTriple
) -> BoundaryLift:
    """Lift all three traces by the decaying modes lambda_2, lambda_3, lambda_5."""
    if roots.regime not in CRITICAL_REGIMES:
        raise ValueError(f"lift_critical needs a critical regime, got {roots.regime}")
    lams, vecs, mat = _lift_columns(spec, roots, (2, 3, 5))
    a = _equilibrated_solve(mat, traces.as_array())
    modes = tuple(
        LiftMode(label=lab, a=complex(ai), lam=lam, vec=v)
        for lab, ai, lam, v in zip((2, 3, 5), a, lams, vecs)
    )
    return BoundaryLift(spec=spec, modes=modes, kind=LiftKind.CRITICAL)


def lift_noncritical(
    spec: ModalMatrixSpec, roots: RootSet, traces: TraceTriple
) -> tuple[BoundaryLift, BoundaryLift]:
    """Split lift away from criticality: reflected wave + thin boundary layer.

    The lambda_2 mode is the O(1)-rate reflected/evanescent wave; lambda_3
    and lambda_5 are genuine boundary layers.  Their traces sum to the input.
    """
    if roots.regime is not Regime.NON_CRITICAL:
        raise ValueError(
            f"lift_noncritical needs the non-critical regime, got {roots.regime}"
        )
    lams, vecs, mat = _lift_columns(spec, roots, (2, 3, 5))
    a = _equilibrated_solve(mat, traces.as_array())
    rw = BoundaryLift(
        spec=spec,
        modes=(LiftMode(label=2, a=complex(a[0]), lam=lams[0], vec=vecs[0]),),
        kind=LiftKind.NONCRITICAL_RW,
    )
    bl = BoundaryLift(
        spec=spec,
        modes=tuple(
            LiftMode(label=lab, a=complex(ai), lam=lam, vec=v)
            for lab, ai, lam, v in zip((3, 5), a[1:], lams[1:], vecs[1:])
        ),
        kind=LiftKind.NONCRITICAL_BL,
    )
    return rw, bl


def lift_nonoscillating(
    spec: ModalMatrixSpec, roots: RootSet, traces: TraceTriple
) -> tuple[BoundaryLift, complex]:
    """Degenerate lift for |omega|, |k| small: match u and d_y b only.

    The slowly-decaying label-2 mode is discarded (a_2 = 0) and the 2x2
    system for (a_3, a_5) matches the u- and d_y b-traces.  The w-trace is
    not matched; the leftover sum_j (ik/l_j) a_j - frak_w is returned so the
    caller can hand it to a large-scale corrector.
    """
    if roots.regime is not Regime.NON_OSCILLATING:
        raise ValueError(
            f"lift_nonoscillating needs the non-oscillating regime, got {roots.regime}"
        )
    lams, vecs, mat = _lift_columns(spec, roots, (3, 5))
    sub = mat[[0, 2], :]  # u-row and b-row only
    rhs = np.array([traces.frak_u, traces.frak_b], dtype=complex)
    a = _equilibrated_solve(sub, rhs)
    modes = tuple(
        LiftMode(label=lab, a=complex(ai), lam=lam, vec=v)
        for lab, ai, lam, v in zip((3, 5), a, lams, vecs)
    )
    lift = BoundaryLift(spec=spec, modes=modes, kind=LiftKind.NON_OSCILLATING)
    leftover_w = complex(mat[1, :] @ a - traces.frak_w)
    return lift, leftover_w


def evaluate_lift(lift: BoundaryLift, t, x, y):
    """Physical-space field (u, w, b) of the lift, complex-valued.

    Broadcasts over array arguments.  Modes whose decay exponent Re(l) y
    exceeds 700 contribute exactly zero instead of underflowing.
    """
    w, k = lift.spec.omega, lift.spec.k
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    phase = np.exp(1j * (k * x - w * t))
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    u = np.zeros(shape, dtype=complex)
    ww = np.zeros(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    for m in lift.modes:
        term = m.a * phase * guarded_exp(-m.lam * y)
        u = u + m.vec.U * term
        ww = ww + m.vec.W * term
        b = b + m.vec.B * term
    return u, ww, b
