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

Traces are complex (3, n) arrays (u, w, d_y b), one column per node of
the spec (characteristic.ModalMatrixSpec; scalar fields make a batch of
one).  A lift takes the eigenvectors of all its roots elementwise and
solves the n equilibrated systems as one stack (one cond, one solve, one
residual check, with the 1e14 and 1e-10 bounds per node); its modes come
node-major and in label order within a node.  A failing check names the
first offending node by its (l, alpha).  A lift returns its modes as an
ExpModes set, the one type for sums of decaying modes (the packet W0 and
the corrector W1 are ExpModes too).  mode_profiles is their one kernel: it
sums the modes of each x-wavenumber into one y-profile, and synthesize
(hence evaluate_modes) and the corrector's norms read those profiles.
Sets with equal exponents and their own coefficients share one pass.
Modes born of a pair of W0 modes record the two parent rates whose sum is
their mu; the kernel exponentiates each distinct parent rate once and
builds such a mode's y-column as the product of its parents' two rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import (
    CRITICAL_REGIMES,
    ModalMatrixSpec,
    Regime,
    RootSet,
    _THIRDS,
    _cubic_labels,
    eigenvector,
    node_arrays,
)

#: modes whose exponent drops below exp(-700) contribute exactly zero
_UNDERFLOW_EXPONENT = 700.0


def guarded_exp(expo):
    """exp(expo), but exactly zero where Re(expo) < -700 instead of underflowing."""
    return np.where(expo.real < -_UNDERFLOW_EXPONENT, 0.0, np.exp(expo))


class IllConditionedLiftError(RuntimeError):
    """Equilibrated lift system condition number exceeded 1e14."""


@dataclass
class ExpModes:
    """Field sum_n (cu, cw, cb)_n exp(i l_n x - i alpha_n t - mu_n y) + c.c.

    The one mode-set type: a wall lift, the linear packet W0 and the
    corrector W1 are all sums of such modes, with any amplitude folded
    into the coefficients.  parents is (n, 2): the two rates whose sum is
    mu for a mode forced by a pair of modes, NaN for any other mode (the
    default when it is omitted).
    """

    l: np.ndarray
    alpha: np.ndarray
    mu: np.ndarray
    cu: np.ndarray
    cw: np.ndarray
    cb: np.ndarray
    parents: np.ndarray | None = None

    _FIELDS = ("l", "alpha", "mu", "cu", "cw", "cb", "parents")

    def __post_init__(self):
        if self.parents is None:
            self.parents = np.full((len(self.l), 2), np.nan, dtype=complex)

    @classmethod
    def empty(cls) -> "ExpModes":
        z = np.zeros(0)
        zc = np.zeros(0, dtype=complex)
        return cls(z.copy(), z.copy(), zc.copy(), zc.copy(), zc.copy(), zc.copy())

    @classmethod
    def concat(cls, parts) -> "ExpModes":
        parts = [p for p in parts if len(p.l)]
        if not parts:
            return cls.empty()
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in cls._FIELDS))

    def __len__(self):
        return len(self.l)

    def __getitem__(self, idx) -> "ExpModes":
        """The modes at an index, slice, mask or index array."""
        *vectors, parents = (getattr(self, f)[idx] for f in self._FIELDS)
        return ExpModes(*map(np.atleast_1d, vectors), parents.reshape(-1, 2))

    def scaled(self, fu, fw=None, fb=None) -> "ExpModes":
        """New mode set with per-mode component factors (e.g. derivatives)."""
        fw = fu if fw is None else fw
        fb = fu if fb is None else fb
        return ExpModes(self.l, self.alpha, self.mu, self.cu * fu, self.cw * fw,
                        self.cb * fb, self.parents)

    def conj(self) -> "ExpModes":
        """The conjugate modes, (l, alpha, mu, c) -> (-l, -alpha, mu*, c*)."""
        return ExpModes(-self.l, -self.alpha, self.mu.conj(), self.cu.conj(),
                        self.cw.conj(), self.cb.conj(), self.parents.conj())

    def d_dx(self) -> "ExpModes":
        return self.scaled(1j * self.l)

    def d_dy(self) -> "ExpModes":
        return self.scaled(-self.mu)

    def traces(self):
        """Wall coefficients of (u, w, d_y b): fields coeff * e^(ilx - i alpha t)."""
        return self.cu, self.cw, -self.mu * self.cb


def _l_tolerance(l: np.ndarray) -> float:
    """Wavenumbers closer than this are one x-frequency."""
    return 1e-12 * max(1.0, float(np.abs(l).max(initial=0.0)))


def _group_by_l(l: np.ndarray):
    """Index groups of modes whose sorted l differ by at most _l_tolerance in a
    row, in increasing l (none for no modes)."""
    order = np.argsort(l)
    groups = np.split(order, np.flatnonzero(np.diff(l[order]) > _l_tolerance(l)) + 1)
    return groups if len(l) else []


def _check_exponents(modes: ExpModes, also) -> None:
    """ValueError naming the field unless every set in also has the l, alpha,
    mu and parents of modes (NaN parents equal)."""
    for other in also:
        for f in ("l", "alpha", "mu", "parents"):
            if not np.array_equal(getattr(other, f), getattr(modes, f), equal_nan=True):
                raise ValueError(f"mode sets in one profile pass differ in {f}")


def mode_profiles(modes: ExpModes, t: float, y: np.ndarray, also=()):
    """(l, P): the field at time t as sum_g P[:, g](y) exp(i l_g x) + c.c.

    Modes sharing an x-wavenumber (the lattice produces thousands per l)
    are summed into one y-profile per component (u, w, b), one matrix
    product per group: P is (3, groups, len(y)) and l increasing.

    also holds further mode sets with the l, alpha, mu and parents of modes
    (NaN parents equal; else ValueError naming the field) and their own
    coefficients.  Their profiles come from the same pass, as P's further
    rows: P is (3 s, groups, len(y)) for s sets, and set i is P[3 i:3 i + 3].
    Only the matrix products grow.

    The y-columns e^(-mu y) of pair modes are products of two rows of one
    table over the distinct parent rates, e^(-mu_i y) e^(-mu_j y); a column
    is exactly zero where either parent's exponent is below -700.  Every
    other mode gets its column from guarded_exp(-mu y) in its group.
    """
    _check_exponents(modes, also)
    y = np.asarray(y, dtype=float)
    groups = _group_by_l(modes.l)
    coef = (np.concatenate([np.stack([m.cu, m.cw, m.cb]) for m in (modes, *also)])
            * np.exp(-1j * modes.alpha * t))
    pair = ~np.isnan(modes.parents).any(axis=1)
    rates, inv = np.unique(modes.parents[pair].ravel(), return_inverse=True)
    table = guarded_exp(np.outer(-rates, y))  # one row per distinct parent rate
    row = np.zeros((len(modes), 2), dtype=int)  # a pair mode's two table rows
    row[pair] = inv.reshape(-1, 2)
    P = np.empty((len(coef), len(groups), len(y)), dtype=complex)
    for g, idx in enumerate(groups):
        pi, di = idx[pair[idx]], idx[~pair[idx]]
        P[:, g] = coef[:, pi] @ (table[row[pi, 0]] * table[row[pi, 1]])
        if len(di):
            P[:, g] += coef[:, di] @ guarded_exp(np.outer(-modes.mu[di], y))
    return modes.l[[idx[0] for idx in groups]], P


def synthesize(l: np.ndarray, P: np.ndarray, x: np.ndarray):
    """Yield u, w, b on the (y, x) grid: 2 Re(P^T exp(i l x)), each one real
    matrix product [Re P; -Im P]^T [2 cos(l x); 2 sin(l x)], made only when
    asked for, so a caller reducing them in turn holds one grid at a time."""
    phase = np.outer(l, np.asarray(x, dtype=float))
    trig = 2.0 * np.concatenate([np.cos(phase), np.sin(phase)])
    return (np.concatenate([p.real, -p.imag]).T @ trig for p in P)


def evaluate_modes(modes: ExpModes, t: float, x: np.ndarray, y: np.ndarray):
    """(u, w, b) of a mode set on the tensor grid, conjugate part included."""
    return tuple(synthesize(*mode_profiles(modes, t, y), x))


def _equilibrated_solve(mat: np.ndarray, rhs: np.ndarray, l, alpha) -> np.ndarray:
    """Solve the stack of systems mat[i] @ x[i] = rhs[i] ((n, r, r) and
    (n, r)), each after scaling its columns to unit max-norm.

    Raises IllConditionedLiftError, naming the first offending node by its
    (l[i], alpha[i]), if an equilibrated matrix still has condition number
    above 1e14, and checks each solve residual afterwards; a non-finite
    residual (NaN or inf traces) fails it.  Both run on the right-hand side
    scaled to unit max-norm, so that the 1e-10 threshold holds for subnormal
    and huge traces alike; a zero right-hand side gives a zero solution.
    """
    col = np.abs(mat).max(axis=1)
    col[col == 0.0] = 1.0
    scaled = mat / col[:, None, :]
    cond = np.linalg.cond(scaled)
    bad = ~(cond <= 1e14)  # NaN and inf included
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IllConditionedLiftError(
            f"lift system at (l={l[i]:.6g}, alpha={alpha[i]:.6g}): condition "
            f"number {cond[i]:.3g} exceeds 1e14")
    size = np.abs(rhs).max(axis=1)
    unit = np.where(size == 0.0, 1.0, size)[:, None]
    # parts divided as floats: complex division by a subnormal gives inf/nan
    rhs = rhs.real / unit + 1j * (rhs.imag / unit)
    x = np.linalg.solve(scaled, rhs[..., None])[..., 0] / col
    resid = np.abs((mat @ x[..., None])[..., 0] - rhs).max(axis=1)
    scale = np.maximum(np.abs(rhs).max(axis=1),
                       (np.abs(mat) * np.abs(x)[:, None, :]).sum(axis=2).max(axis=1))
    bad = ~(resid <= 1e-10 * scale)  # NaN and inf included
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IllConditionedLiftError(
            f"lift residual {resid[i]:.3g} at (l={l[i]:.6g}, alpha={alpha[i]:.6g}) "
            f"exceeds 1e-10 relative to {scale[i]:.3g}")
    return x * size[:, None]


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
    (L2,), (L3,), _ = _cubic_labels((base * _THIRDS)[None])
    # the principal root: Re(L5) >= 0
    L5 = np.sqrt(-1j * w0 * (nu0 + kappa0) / (nu0 * kappa0))
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
        a = _equilibrated_solve(mat[None], rhs[None], [k], [w0])[0]
    except IllConditionedLiftError as exc:
        raise IllConditionedLiftError(f"singular limit system: {exc}") from exc
    return complex(a[0]), complex(a[1]), complex(a[2])


def _lift(spec: ModalMatrixSpec, roots: RootSet, traces, labels, rows) -> ExpModes:
    """Modes of the given root labels whose wall values match the traces.

    traces is (u, w, d_y b) at the wall, shape (3, n) for the n nodes of
    the spec; rows picks the trace equations (0: u, 1: w, 2: d_y b) that
    the amplitudes solve.  The modes come node-major and in label order
    within a node, with l = k, alpha = omega, mu = lambda and coefficients
    a (U, W, B).
    """
    _, _, w, k, _ = node_arrays(spec)
    traces = np.asarray(traces, dtype=complex)
    if traces.shape != (3, len(k)):
        raise ValueError(f"traces must be (u, w, d_y b) of shape {(3, len(k))}, "
                         f"got {traces.shape}")
    lams = np.stack([roots.by_label(lab) for lab in labels], axis=1)
    vec = eigenvector(spec, lams)
    mat = np.stack([vec.U, vec.W, -lams * vec.B], axis=1)
    a = _equilibrated_solve(mat[:, rows], traces.T[:, rows], k, w)
    m = len(labels)
    return ExpModes(np.repeat(k, m), np.repeat(w, m), lams.ravel(),
                    *((a * f).ravel() for f in (vec.U, vec.W, vec.B)))


def stray_nodes(roots: RootSet, allowed) -> np.ndarray:
    """Indices of the nodes whose regime is not one of the allowed ones."""
    return np.flatnonzero([r not in allowed for r in roots.regimes])


def _require(roots: RootSet, allowed, lift: str):
    """ValueError unless every node's regime is one of the allowed ones."""
    stray = stray_nodes(roots, allowed)
    if len(stray):
        raise ValueError(f"{lift} needs regime {'/'.join(r.value for r in allowed)}, "
                         f"got {roots.regimes[stray[0]]}")


def lift_critical(spec: ModalMatrixSpec, roots, traces) -> ExpModes:
    """Lift all three traces by the decaying modes lambda_2, lambda_3, lambda_5.

    Since U = 1, the cu of the returned modes are the amplitudes (a2, a3, a5)
    of each node in turn.
    """
    _require(roots, CRITICAL_REGIMES, "lift_critical")
    return _lift(spec, roots, traces, (2, 3, 5), [0, 1, 2])


def lift_noncritical(spec: ModalMatrixSpec, roots, traces) -> tuple[ExpModes, ExpModes]:
    """Split lift away from criticality: reflected wave + thin boundary layer.

    The lambda_2 mode is the O(1)-rate reflected/evanescent wave; lambda_3
    and lambda_5 are genuine boundary layers.  Their traces sum to the input.
    The reflected modes and the layer modes each come node-major.
    """
    _require(roots, (Regime.NON_CRITICAL,), "lift_noncritical")
    modes = _lift(spec, roots, traces, (2, 3, 5), [0, 1, 2])
    reflected = np.arange(len(modes)) % 3 == 0
    return modes[reflected], modes[~reflected]


def lift_nonoscillating(spec: ModalMatrixSpec, roots, traces) -> tuple[ExpModes, np.ndarray]:
    """Degenerate lift for |omega|, |k| small: match u and d_y b only.

    The slowly-decaying label-2 mode is discarded (a_2 = 0) and the 2x2
    system for (a_3, a_5) matches the u- and d_y b-traces.  The w-trace is
    not matched; the leftover sum_j (ik/l_j) a_j - frak_w is returned, one
    per node, so the caller can hand it to a large-scale corrector.
    """
    _require(roots, (Regime.NON_OSCILLATING,), "lift_nonoscillating")
    modes = _lift(spec, roots, traces, (3, 5), [0, 2])
    return modes, modes.cw.reshape(-1, 2).sum(axis=1) - np.asarray(traces[1])
