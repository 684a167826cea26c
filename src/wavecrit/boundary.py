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
one).  A lift is a function of its spec and its traces: it solves the
spec's roots itself (roots_for) and refuses, with one RegimeError, a batch
holding nodes whose classified regime it does not apply to.  It takes the
eigenvectors of the roots elementwise and solves the n equilibrated
systems as one stack (one cond, one solve, one residual check, with the
1e14 and 1e-10 bounds per node); its modes come node-major and in label
order within a node.  A failing check names the first offending node by
its (l, alpha).  A lift returns its modes as an
ExpModes set, the one type for sums of decaying modes (the packet W0 and
the corrector W1 are ExpModes too).  mode_profiles is their one kernel: it
sums the modes of each x-wavenumber into one y-profile.  The real (y, x)
field of such profiles has one synthesis, field_blocks: the x-basis
(_x_basis) product, in blocks of _LINF_ROWS y-rows.  synthesize (hence
evaluate_modes) joins the blocks into whole grids, and the grid norms
(packets.packet_norms, the corrector's _profile_norms) reduce them block by
block, so a norm holds one block, not a grid, and reads the grids' bits.  Coefficient
rows that are all zero are left out of a pass and read as exact zeros.
Sets with equal exponents and their own coefficients share one pass.
node_profiles runs the same pass at t = 0 with the modes grouped by their
(l, alpha) node (_nodes) instead of by l, and phase_sum reads such a table
at any t, one phase per node: how the DNS reads W_app at every save.
Every mode records two parent rates whose sum is its mu (a W0 pair's, or
its own and 0); a pass exponentiates each distinct rate once, in one
table, and a mode's y-column is the product of its two rows.  On a plain
y (the stretched DNS grid, a wall row, default_grid) the table is at the
points and a group sums in one matrix product.  The corrector's norm grid,
two merged linspaces whose ledger makes most passes, is a YLattice: there
e^(-mu y) factors into a coarse and a fine offset, so the table is at its
80 offsets instead of its 599 points and a group sums as two small matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import (
    CRITICAL_REGIMES,
    ModalMatrixSpec,
    Regime,
    _THIRDS,
    _cubic_labels,
    eigenvector,
    node_arrays,
    roots_for,
)

#: a table entry whose exponent drops below -700 is exactly zero; a product
#: of such entries whose exponents sum below -700 is below e^-700 or zero
_UNDERFLOW_EXPONENT = 700.0


def guarded_exp(expo):
    """exp(expo), but exactly zero where Re(expo) < -700 instead of underflowing.
    Only the entries above the guard are exponentiated, each as exp alone
    would: in a rate table over a sorted y each rate's live prefix (36 % of
    W1's modal table on the stability benchmark's DNS grid, where the rest
    took half the node build's time).  With no entry below it, this is exp."""
    dead = expo.real < -_UNDERFLOW_EXPONENT
    if not dead.any():
        return np.exp(expo)
    live = ~dead
    out = np.zeros(expo.shape, dtype=complex)
    out[live] = np.exp(expo[live])
    return out


class IllConditionedLiftError(RuntimeError):
    """Equilibrated lift system condition number exceeded 1e14."""


@dataclass
class ExpModes:
    """Field sum_n (cu, cw, cb)_n exp(i l_n x - i alpha_n t - mu_n y) + c.c.

    The one mode-set type: a wall lift, the linear packet W0 and the
    corrector W1 are all sums of such modes, with any amplitude folded
    into the coefficients.  parents is (n, 2): two rates whose sum is mu,
    a pair-forced mode's two parents' or (mu, 0) for any other mode (the
    default when it is omitted).  An assembly holds its modes once, as a
    store (stacked), and every mode set it exposes is a row range of it.
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
            self.parents = np.stack([self.mu, np.zeros_like(self.mu)], axis=1)

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

    @classmethod
    def stacked(cls, parts) -> tuple["ExpModes", list["ExpModes"]]:
        """(store, views): the parts concatenated once into a store whose
        arrays are read-only, and each part's rows as a slice view of it."""
        store = cls.concat(parts)
        for f in cls._FIELDS:
            getattr(store, f).flags.writeable = False
        ends = np.cumsum([0, *map(len, parts)])
        return store, [store[a:b] for a, b in zip(ends, ends[1:])]

    def __len__(self):
        return len(self.l)

    def __getitem__(self, idx) -> "ExpModes":
        """The modes at an index, slice, mask or index array; a slice is a
        view (read-only when taken of a store), anything else a copy."""
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


def _l_starts(l: np.ndarray) -> np.ndarray:
    """Where an increasing l starts each x-frequency: index 0 and every index
    whose l is more than _l_tolerance above the one before (none for no l)."""
    return np.flatnonzero(np.diff(l, prepend=-np.inf) > _l_tolerance(l))


def _group_by_l(l: np.ndarray):
    """Index groups of modes whose sorted l differ by at most _l_tolerance in a
    row, in increasing l (none for no modes)."""
    order = np.argsort(l)
    return np.split(order, _l_starts(l[order])[1:]) if len(l) else []


def _distinct(z: np.ndarray):
    """(values, inverse) of np.unique(z, return_inverse=True) for a 1-D
    complex z without NaN: the distinct values in (real, imag) order and
    each entry's index among them.  One exact lexsort on (real, imag) finds
    them, cheaper than numpy's sort of complex values.  Entries differing
    only in the sign of a zero part are one value, held with either sign,
    as np.unique holds it."""
    order = np.lexsort((z.imag, z.real))
    s = z[order]
    first = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    inverse = np.empty(len(z), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse


def _nodes(l: np.ndarray, alpha: np.ndarray):
    """(l, alpha, inverse) of the distinct exact (l, alpha) pairs: _distinct
    of l + i alpha, so the nodes increase in (l, alpha) and -0.0 is 0.0."""
    z, inverse = _distinct(np.stack([l, alpha], axis=1).view(complex).ravel())
    return z.real, z.imag, inverse


def _check_exponents(modes: ExpModes, also) -> None:
    """ValueError naming the field unless every set in also has the l, alpha,
    mu and parents of modes."""
    for other in also:
        for f in ("l", "alpha", "mu", "parents"):
            if not np.array_equal(getattr(other, f), getattr(modes, f)):
                raise ValueError(f"mode sets in one profile pass differ in {f}")


class YLattice:
    """The y-points np.unique(concatenate([linspace(0, stop, n) for stop in
    stops])), kept as the uniform grids they merge.

    On a grid of step h, point j = i m + r (0 <= r < m, 0 <= i < q) is
    y = i m h + r h, so e^(-mu y) = e^(-mu i m h) e^(-mu r h): a mode needs
    its exponential at the q + m offsets of each grid, not at all n points.
    q = ceil(sqrt(n / 3)), so m is about 3 q: sum_columns spreads the coarse
    factor over the coefficients elementwise, and the fine factor goes into
    a matrix product, which takes the wider side at less cost.  y holds the
    merged points, and mode_profiles takes a lattice in place of y.
    """

    def __init__(self, stops, n: int):
        # equal stops are one grid: a norm grid whose dense part reaches y_max
        grids, steps = zip(*(np.linspace(0.0, s, n, retstep=True)
                             for s in dict.fromkeys(stops)))
        self.y, self._take = np.unique(np.concatenate(grids), return_index=True)
        self.n, self.q = n, math.ceil(math.sqrt(n / 3))
        self.m = -(-n // self.q)
        #: per grid, the q coarse offsets i m h, then the m fine offsets r h
        self.offsets = np.concatenate([np.concatenate(
            [np.arange(self.q) * self.m, np.arange(self.m)]) * h for h in steps])

    def sum_columns(self, coef: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """coef @ e^(-mu y) for the (modes, offsets) columns e^(-mu offsets):
        per grid one matrix product (coef (x) e^(-mu i m h)) @ e^(-mu r h)."""
        k, q, m = len(coef), self.q, self.m
        parts = [((coef[:, None, :] * cols[:, s:s + q].T).reshape(k * q, -1)
                  @ cols[:, s + q:s + q + m]).reshape(k, q * m)[:, :self.n]
                 for s in range(0, len(self.offsets), q + m)]
        return np.concatenate(parts, axis=1)[:, self._take]


class YPoints:
    """A plain y as a grid whose offsets are its points: e^(-mu y) is the
    table row itself, and a group's columns sum in one matrix product."""

    def __init__(self, y):
        self.y = self.offsets = np.asarray(y, dtype=float)

    def sum_columns(self, coef: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return coef @ cols


def _profile_pass(modes: ExpModes, coef: np.ndarray, groups, y) -> np.ndarray:
    """The kernel body: per index group, coef's columns times the modes'
    e^(-mu y), summed; (len(coef), len(groups), len(y)) complex.

    A mode's column e^(-mu y) is the product of two rows of one table over
    the distinct parent rates (_distinct; a pair mode's parents, any other
    mode's mu and 0), exactly zero where either exponent is below -700.
    The table is over y's points, or over a YLattice's offsets, whose
    sum_columns sums a group as two small matrices.  Where a column's
    exponent passes -700 but none of its factors' does, their product is
    below e^-700 (about 1e-304) or underflows to zero, where a guarded
    e^(-mu y) would be exactly zero.  A coefficient row that is all zero
    stays out of the products and its profiles are exact zeros; the other
    rows are those of a pass without it, bit for bit.  A pass whose rows
    are all zero makes no table and no product.
    """
    grid = y if isinstance(y, YLattice) else YPoints(y)
    P = np.zeros((len(coef), len(groups), len(grid.y)), dtype=complex)
    live = np.flatnonzero(coef.any(axis=1))
    if len(live):
        rows = live if len(live) < len(coef) else slice(None)
        coef = coef[rows]
        rates, inv = _distinct(modes.parents.ravel())
        row = inv.reshape(-1, 2)  # a mode's two table rows
        table = guarded_exp(np.outer(-rates, grid.offsets))
        for g, idx in enumerate(groups):
            P[rows, g] = grid.sum_columns(coef[:, idx], table[row[idx, 0]] * table[row[idx, 1]])
    return P


def mode_profiles(modes: ExpModes, t: float, y, also=()):
    """(l, P): the field at time t as sum_g P[:, g](y) exp(i l_g x) + c.c.

    Modes sharing an x-wavenumber (the lattice produces thousands per l)
    are summed into one y-profile per component (u, w, b), one matrix
    product per group: P is (3, groups, len(y)) and l increasing.  The
    ledger and evaluate_modes read a mode set at one t this way; the DNS
    reads W_app at many t from node_profiles instead.

    also holds further mode sets with the l, alpha, mu and parents of modes
    (else ValueError naming the field) and their own coefficients.  Their
    profiles come from the same pass, as P's further rows: P is
    (3 s, groups, len(y)) for s sets, and set i is P[3 i:3 i + 3].  A
    coefficient row that is all zero (a set's zero component, such as the
    ledger's w-forcing's u and b) is an exact zero row (_profile_pass).
    """
    _check_exponents(modes, also)
    groups = _group_by_l(modes.l)
    base = np.concatenate([np.stack([m.cu, m.cw, m.cb]) for m in (modes, *also)])
    P = _profile_pass(modes, base * np.exp(-1j * modes.alpha * t), groups, y)
    return modes.l[[idx[0] for idx in groups]], P


def node_profiles(modes: ExpModes, y):
    """(l, alpha, Q): the field at any t as sum_n e^(-i alpha_n t) Q[:, n](y)
    exp(i l_n x) + c.c., one node n per distinct (l, alpha) pair (_nodes).

    The kernel pass of mode_profiles (_profile_pass) at t = 0, its modes
    grouped by node instead of by l, in index order: Q is (3, nodes, len(y)),
    the nodes in increasing (l, alpha), so an x-wavenumber's are contiguous.
    W0 and W1 at 5 nodes per lobe have 127 nodes against 2 099 modes, so a
    march reading W_app at every save builds Q once and reads it (phase_sum).
    """
    l, alpha, inverse = _nodes(modes.l, modes.alpha)
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse)))[:-1]
    return l, alpha, _profile_pass(modes, np.stack([modes.cu, modes.cw, modes.cb]), groups, y)


def phase_sum(l, alpha, Q, t: float):
    """(l, P) as mode_profiles returns them, of a node table (l, alpha, Q) at
    time t: e^(-i alpha t) @ Q over each x-group's nodes, contiguous in l.
    P is (len(Q), groups, len(y)), the rows Q holds."""
    starts = _l_starts(l)
    phase = np.exp(-1j * alpha * t)
    P = np.empty((len(Q), len(starts), Q.shape[-1]), dtype=complex)
    for g, (a, b) in enumerate(zip(starts, [*starts[1:], len(l)])):
        P[:, g] = phase[a:b] @ Q[:, a:b]
    return l[starts], P


#: y-rows per block of every synthesis (field_blocks): a (64, 512) block of
#: doubles is 256 KiB and stays in cache, where a 600-row grid does not
_LINF_ROWS = 64


def _x_basis(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[2 cos(l x); 2 sin(l x)], (2 groups, len(x)): [Re P; -Im P]^T times it
    is 2 Re(P^T exp(i l x))."""
    phase = np.outer(l, np.asarray(x, dtype=float))
    return 2.0 * np.concatenate([np.cos(phase), np.sin(phase)])


def field_blocks(p: np.ndarray, trig: np.ndarray):
    """Yield one component's real field 2 Re(p^T exp(i l x)) on the (y, x)
    grid, from its profiles p (groups, len(y)) and trig = _x_basis(l, x), in
    blocks of _LINF_ROWS y-rows from the wall up (the last one short): each
    block one real matrix product of the rows of [Re p; -Im p]^T with trig.
    A reader reducing the blocks in turn holds one block, not the grid, and
    the blocks a norm reduces are those synthesize joins, bit for bit."""
    a = np.concatenate([p.real, -p.imag]).T  # (y, 2 groups)
    for s in range(0, len(a), _LINF_ROWS):
        yield a[s:s + _LINF_ROWS] @ trig


def synthesize(l: np.ndarray, P: np.ndarray, x: np.ndarray):
    """Yield u, w, b on the (y, x) grid: 2 Re(P^T exp(i l x)), each its
    field_blocks joined, so a grid holds the bits the blocked norms reduce.
    Each is made only when asked for: a caller reading them in turn holds
    one grid at a time."""
    trig = _x_basis(l, x)
    return (np.concatenate(list(field_blocks(p, trig))) for p in P)


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


class RegimeError(RuntimeError):
    """A node's classified regime is not one its lift applies to."""


def _lift(spec: ModalMatrixSpec, traces, allowed, labels, rows, lift: str) -> ExpModes:
    """Modes of the given root labels whose wall values match the traces.

    traces is (u, w, d_y b) at the wall, shape (3, n) for the n nodes of
    the spec; rows picks the trace equations (0: u, 1: w, 2: d_y b) that
    the amplitudes solve.  The spec's roots are solved here, and every
    node's regime must be one of the allowed ones: a RegimeError counts the
    strays and names the first by (l, alpha) and its regime.  The modes
    come node-major and in label order within a node, with l = k,
    alpha = omega, mu = lambda and coefficients a (U, W, B).
    """
    _, _, w, k, _ = node_arrays(spec)
    traces = np.asarray(traces, dtype=complex)
    if traces.shape != (3, len(k)):
        raise ValueError(f"traces must be (u, w, d_y b) of shape {(3, len(k))}, "
                         f"got {traces.shape}")
    roots = roots_for(spec)
    stray = np.flatnonzero([r not in allowed for r in roots.regimes])
    if len(stray):
        i = stray[0]
        raise RegimeError(f"{lift} needs regime {'/'.join(r.value for r in allowed)}: "
                          f"{len(stray)} node(s) are not; the first, (l={k[i]:.4g}, "
                          f"alpha={w[i]:.4g}), classified {roots.regimes[i].value}")
    lams = np.stack([roots.by_label(lab) for lab in labels], axis=1)
    vec = eigenvector(spec, lams)
    mat = np.stack([vec.U, vec.W, -lams * vec.B], axis=1)
    a = _equilibrated_solve(mat[:, rows], traces.T[:, rows], k, w)
    m = len(labels)
    return ExpModes(np.repeat(k, m), np.repeat(w, m), lams.ravel(),
                    *((a * f).ravel() for f in (vec.U, vec.W, vec.B)))


def lift_critical(spec: ModalMatrixSpec, traces) -> ExpModes:
    """Lift all three traces by the decaying modes lambda_2, lambda_3, lambda_5.

    Since U = 1, the cu of the returned modes are the amplitudes (a2, a3, a5)
    of each node in turn.
    """
    return _lift(spec, traces, CRITICAL_REGIMES, (2, 3, 5), [0, 1, 2], "lift_critical")


def lift_noncritical(spec: ModalMatrixSpec, traces) -> tuple[ExpModes, ExpModes]:
    """Split lift of the second harmonic: reflected wave + thin boundary layer.

    The system is lift_critical's, and it applies to every oscillating
    regime: the non-critical one, and the near-critical ones that the
    corrector's double-lobe nodes reach at small gamma (at 0.45 and 0.4,
    where the second harmonic propagates, 4 sin^2(gamma) < 1).
    The lambda_2 mode is the reflected wave (evanescent at an O(1) rate, or
    propagating and barely decaying); lambda_3 and lambda_5 are boundary
    layers.  Their traces sum to the input.  The reflected modes and the layer modes each
    come node-major.
    """
    modes = _lift(spec, traces, (*CRITICAL_REGIMES, Regime.NON_CRITICAL), (2, 3, 5),
                  [0, 1, 2], "lift_noncritical")
    reflected = np.arange(len(modes)) % 3 == 0
    return modes[reflected], modes[~reflected]


def lift_nonoscillating(spec: ModalMatrixSpec, traces) -> tuple[ExpModes, np.ndarray]:
    """Degenerate lift for |omega|, |k| small: match u and d_y b only.

    The slowly-decaying label-2 mode is discarded (a_2 = 0) and the 2x2
    system for (a_3, a_5) matches the u- and d_y b-traces.  The w-trace is
    not matched; the leftover sum_j (ik/l_j) a_j - frak_w is returned, one
    per node, so the caller can hand it to a large-scale corrector.
    """
    modes = _lift(spec, traces, (Regime.NON_OSCILLATING,), (3, 5), [0, 2],
                  "lift_nonoscillating")
    return modes, modes.cw.reshape(-1, 2).sum(axis=1) - np.asarray(traces[1])
