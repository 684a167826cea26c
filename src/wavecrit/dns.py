"""Direct solver for the scaled rotating-stratified system on a half-plane slab.

The system marched here is

    dt u - sin(g) b + dx p = eps^6 nu0 (Dxx + Dyy) u - delta (u dx + w dy) u
    dt w - cos(g) b + dy p = eps^6 nu0 (Dxx + Dyy) w - delta (u dx + w dy) w
    dt b + sin(g) u + cos(g) w = eps^6 k0 (Dxx + Dyy) b - delta (u dx + w dy) b
    dx u + dy w = 0,   u = w = dy b = 0 at y = 0,

on a box periodic in x and bounded above by a stress-free, no-flux lid.
The discretization is pseudo-spectral in x and
compact (5-point) finite differences on a geometrically stretched y-grid,
whose weights Fornberg's recurrence gives for all rows in one array pass.

Discrete structure is chosen so that the semi-discrete invariants are exact,
not merely approximate:

* advection is applied in the split (skew) form
  (u dx f + w Dy f)/2 + (dx(u f) - Dy*(w f))/2, where Dy* is the adjoint of
  Dy in the trapezoid-weighted inner product; its energy contribution
  cancels identically for any difference matrix Dy;
* the pressure projection is the weighted least-squares projection onto the
  kernel of the adjoint divergence with the wall/lid constraints built into
  the space (u pinned at the wall, w pinned at wall and lid), making it
  idempotent and orthogonal, hence non-expansive;
* diffusion is trapezoidal (Crank-Nicolson) in y in variational form on the
  constrained space, so the discrete energy it removes per step equals the
  recorded dissipation integrand exactly, with exact integrating factors
  in x.

Each step is a Strang sandwich -- half an implicit diffusion step, one
explicit Heun step of rotation + advection, half a diffusion
step -- followed by a projection, and is second order in time.  The
rotation terms are added to the slopes, at every delta, and the slopes
to the Heun sums, in place by BLAS zaxpy (`_axpy`).

The state is carried as the rfft along x of (u, w, b).  Every y-operator is
x-independent and banded (bandwidth 4 or 5, set by the 5-point stencil), so
it acts on the rfft columns viewed as (real, imag) float pairs, or on the
complex columns themselves:

* Dy and its transpose are stored as sparse (CSR) matrices;
* each diffusion half step solves the banded Crank-Nicolson system
  (M + a Kq) q = (M - a Kq) f on the constrained space as
  q = (M + a Kq)^-1 2 M f - f, then multiplies by the exact x-damping.
  M + a Kq = U^T U is factored once per field, and a BlockSweep solves
  with U in blocks of 48 rows, about 3x faster than LAPACK's banded solve;
* the projection stacks the banded matrices of the kx with a nonzero
  derivative wavenumber (a contiguous slice) into one block-diagonal banded
  Cholesky factor U = D V (D its real diagonal, V unit upper), holds V
  complex and 1/d as a real vector, and solves the columns laid end to end
  as one complex right-hand side by two unit banded triangular sweeps
  (BLAS ztbsv with V^H, then with V, neither dividing) and two scalings by
  1/d between them, which carry the real and imaginary parts together
  (each kx has its own matrix, too many for stored block inverses); at
  kx_d = 0 (kx = 0 and Nyquist) w and phi are 0 with no solve, as
  G = Dy[1:-1] has full row rank.  It alone pins u and w to 0 on the wall
  and lid rows.  It returns the energy it removes, the step's proj_loss,
  from its own solve: |y|^2 for y = U^-H rhs after the first scaling,
  which is Re phi^H rhs, over the regular columns, plus the squares of
  what it zeroes outright, with no squaring of the fields;
* rotation is pointwise; energy and dissipation are Parseval sums from one
  squaring of each field's (real, imag) pairs, whose weighted sums give the
  energy and, weighted by kx_d^2 as well, the x-part of the dissipation.

Advection is the only physical-space stage: per Heun stage 6 irfft (u, w,
b and their x-derivatives) and 6 rfft (two products per field), so a step
makes 24 transforms, and none at delta = 0.  The CFL guard reads a bound
from the rfft columns first (`Solver.cfl_bound`, |f(x)| <= sum_k c_k |f_k|
/ nx), and makes the exact CFL's 2 irfft only when the bound reaches 0.5.

Without advection (delta = 0) nothing couples the rfft columns, so a State
may hold only some of them (`State.cols`; the others are zero): at
delta = 0 init_from_Wapp keeps the columns W_app reaches, 3 of 129 at
256 x 384 and 5 nodes per lobe, where a step takes about 0.66 ms instead
of 10 ms on one core (README gives the measurement).  One builder,
`Solver._hold`, makes the per-column data of every column set, the full
one included.  A solver with delta != 0 widens such a state to every column.

The march stores no saved states.  `Solver.run` hands the state of each
save step to a callback, and `compare_stability` reduces it to its
distance from W_app at once and records its t, so neither grows in memory
with the number of save times (a 256 x 384 state is 3.2 MB, a 512 x 768
one 12.6 MB).  W_app depends on t only through one phase e^(-i alpha t)
per (l, alpha) node, so one `WappNodes` per call holds it as node tables
(3.3 MB at 256 x 384 and 5 nodes per lobe), and `WappNodes.columns(t)`,
W_app's one reader, places their phase sums on the saved states' own
columns, where their own solver measures them (`Solver._on`);
init_from_Wapp reads W_app(0) by the same route.  `compare_stability`
reports one run's departure ||W - W_app|| and the theorem's envelope.
`stability_twin` marches a delta != 0 run and its delta = 0 twin in
lockstep, the twin on the columns W0 reaches over the run's own
y-operators and factorizations (`Solver.twin`), reads one `WappNodes`
for both, and reports both departures and the twin residual
||W - W_0 - W1|| at each save (the CLI's `stability` experiment).
"""

import copy
import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky_banded, solve_triangular
from scipy.linalg.blas import zaxpy, ztbsv
from scipy.sparse import csr_array, diags_array, eye_array

from .boundary import _l_starts, node_profiles, phase_sum
from .corrector import W1_MF, CorrectorAssembly
from .packets import Family, PacketAssembly
from .params import PhysParams


class DnsError(RuntimeError):
    """Configuration or runtime failure of the direct solver."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _fd_weights(nodes, z, m):
    """Finite-difference weights for the m-th derivative at z (Fornberg),
    for every row at once: nodes (..., n) and z (...) give weights (..., n),
    each row by the scalar recurrence's operations."""
    x = np.moveaxis(np.asarray(nodes, dtype=float), -1, 0)  # (n, ...)
    n = len(x)
    w = np.zeros((m + 1, *x.shape))
    w[0, 0] = 1.0
    c1, c4 = 1.0, x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((c4 * w[k, j] - k * w[k - 1, j])) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return np.moveaxis(w[m], 0, -1)


def stretched_grid(Ly: float, ny: int, dy0: float, dy_max: float = math.inf):
    """Geometric near-wall spacing dy0 growing by a ratio r <= 1.08, capped
    at dy_max; y[0] = 0 and y[-1] = Ly.

    r is the exact root: the smallest double in (1 + 1e-12, 1.08] whose grid
    reaches Ly, found by bisection to the last bit; setting the last point
    to Ly then only shortens the last spacing.  This holds near uniform too:
    for Ly a hair above dy0 (ny - 1), r is one ulp above the bracket's lower
    end.  For Ly at or below it, the grid is uniform.
    """
    if dy0 * (ny - 1) >= Ly:
        return np.linspace(0.0, Ly, ny)

    k = np.arange(ny - 1)

    def points(r):  # y[1:] at stretch ratio r
        return np.cumsum(np.minimum(dy0 * r**k, dy_max))

    if points(1.08)[-1] < Ly:
        raise DnsError(
            f"cannot reach Ly={Ly:.3g} with ny={ny}, dy0={dy0:.3g}, "
            f"dy_max={dy_max:.3g} at stretch ratio <= 1.08"
        )
    # the grid's length is increasing in r: halve the bracket until its
    # midpoint is one of its ends, keeping a grid that reaches Ly at hi
    lo, hi = 1.0 + 1e-12, 1.08
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if points(mid)[-1] < Ly:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    y = np.concatenate([[0.0], points(hi)])
    y[-1] = Ly
    return y


class Grid:
    """Periodic x, stretched y; difference matrices and quadrature weights."""

    def __init__(self, Lx: float, nx: int, y: np.ndarray):
        self.Lx, self.nx = Lx, nx
        self.x = np.linspace(0.0, Lx, nx, endpoint=False)
        self.dx = Lx / nx
        self.y = y
        self.ny = ny = len(y)
        # trapezoid weights in y
        tau = np.zeros(ny)
        tau[:-1] += 0.5 * np.diff(y)
        tau[1:] += 0.5 * np.diff(y)
        self.tau = tau
        # 5-point (4th-order) first-derivative matrix, stored sparse with
        # its transpose; the energy identities below hold for any difference
        # matrix, so the higher order only buys accuracy on the thin layers
        self.stencil = s = min(5, ny)
        cols = np.clip(np.arange(ny) - s // 2, 0, ny - s)[:, None] + np.arange(s)
        vals = _fd_weights(y[cols], y, 1)
        self.Dy = csr_array(
            (vals.ravel(), (np.repeat(np.arange(ny), s), cols.ravel())),
            shape=(ny, ny),
        )
        self.DyT = self.Dy.T.tocsr()

    def integral(self, f):
        """Integral over the box of a (ny, nx) field."""
        return float(self.tau @ f.sum(axis=1)) * self.dx


def _pairs(fh):
    """Complex columns viewed as (real, imag) float pairs."""
    return np.ascontiguousarray(fh).view(float)


def _complex(a):
    """(real, imag) float pairs viewed as complex columns."""
    return np.ascontiguousarray(a).view(complex)


def _ycols(A, fh):
    """A real y-operator applied to every complex column of fh."""
    return _complex(A @ _pairs(fh))


def _axpy(a, x, y):
    """y += a x in place, by BLAS zaxpy over both arrays' entries.  y must
    be a C-contiguous complex array: ravel() of any other would be a copy,
    and the update would be lost."""
    if not (y.flags.c_contiguous and y.dtype == complex and x.shape == y.shape):
        raise ValueError(f"axpy needs a C-contiguous complex target of x's shape "
                         f"{x.shape}, got {y.dtype} {y.shape}, "
                         f"C-contiguous {y.flags.c_contiguous}")
    zaxpy(x.ravel(), y.ravel(), a=a)


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass
class SimConfig:
    """One DNS run: box, grid and time step; the defaults are the `dns` and
    `stability` experiments' defaults.

    The eps^3 layer, the thinnest, must hold >= 8 grid points within 5
    widths.  Its rate is the leading-order Re lambda5 = sqrt(omega0 (nu +
    kappa) / (2 nu kappa)), omega0 = sin(gamma), which does not depend on
    the carrier's k0 (characteristic's label prediction; the exact root
    differs by under 0.4 % over gamma 0.45-0.75, eps 0.05-0.3, k0 0.5-2)."""

    params: PhysParams
    Lx: float
    Ly: float = 300.0
    nx: int = 256
    ny: int = 384
    dt: float = 0.01
    T: float = 1.0
    dy0: float = 1e-3
    dy_max: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (("dt", self.dt > 0.0, "> 0"),
                               ("T", 0.0 <= self.T < math.inf, ">= 0 and finite"),
                               ("Lx", 0.0 < self.Lx < math.inf, "> 0 and finite"),
                               ("Ly", self.Ly > 0.0, "> 0"), ("nx", self.nx >= 2, ">= 2"),
                               ("ny", self.ny >= 2, ">= 2"),
                               ("dy0", 0.0 < self.dy0 < math.inf, "> 0 and finite"),
                               ("dy_max", self.dy_max > 0.0, "> 0")):
            if not ok:
                raise DnsError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        p = self.params
        omega0 = math.sin(p.gamma)
        if self.dt > 0.1 / omega0:
            raise DnsError(f"dt={self.dt} exceeds rotational resolution "
                           f"0.1/omega0={0.1 / omega0:.3g}")
        lam5 = math.sqrt(omega0 * (p.nu + p.kappa) / (2.0 * p.nu * p.kappa))
        n_in_layer = int(np.sum(self.y <= 5.0 / lam5))
        if n_in_layer < 8:
            raise DnsError(
                f"only {n_in_layer} grid points within 5 widths of the "
                f"thin layer (rate {lam5:.3g}); refine dy0 or ny"
            )

    @cached_property
    def y(self) -> np.ndarray:
        """The stretched y-grid, built once per config; not a field, so it
        takes no part in ==."""
        return stretched_grid(self.Ly, self.ny, self.dy0, self.dy_max)


def box_matched_eps(eps: float, k0: float, nodes_per_lobe: int) -> float:
    """Nearest eps whose packet k-lattice contains the carrier k0.

    The n quadrature nodes sit at k0 + (j - (n - 1)/2) dk with dk = eps^2 *
    dxi; the box Lx = 2 pi / dk holds the field exactly periodically iff they
    are multiples of dk: k0 / dk an integer for odd n, an integer plus 1/2
    for even n.  Snapping eps (a fraction of a percent) achieves that.
    """
    dxi = 2.0 / (nodes_per_lobe - 1)
    half = 0.5 * (nodes_per_lobe % 2 == 0)
    r = round(k0 / (eps**2 * dxi) - half) + half
    if r < 1:
        raise DnsError("eps too large to match the box to the carrier")
    return math.sqrt(k0 / (r * dxi))


@dataclass
class State:
    """rfft along x (axis 1) of u, w, b and p on nx points, at time t.

    `cols` are the indices of the rfft columns held, sorted (every column
    by default); the columns left out are zero.
    """
    uh: np.ndarray
    wh: np.ndarray
    bh: np.ndarray
    ph: np.ndarray
    t: float
    nx: int
    cols: np.ndarray | None = None

    def __post_init__(self):
        if self.cols is None:
            self.cols = np.arange(self.nx // 2 + 1)

    @property
    def full(self) -> bool:
        """Whether every rfft column is held."""
        return len(self.cols) == self.nx // 2 + 1

    def _scatter(self, fh):
        """fh on every rfft column."""
        if self.full:
            return fh
        out = np.zeros((fh.shape[0], self.nx // 2 + 1), dtype=complex)
        out[:, self.cols] = fh
        return out

    # the physical fields, transformed on each access
    u = property(lambda self: np.fft.irfft(self._scatter(self.uh), n=self.nx, axis=1))
    w = property(lambda self: np.fft.irfft(self._scatter(self.wh), n=self.nx, axis=1))
    b = property(lambda self: np.fft.irfft(self._scatter(self.bh), n=self.nx, axis=1))
    p = property(lambda self: np.fft.irfft(self._scatter(self.ph), n=self.nx, axis=1))

    def widen(self) -> "State":
        """The same state on every rfft column (itself if it holds them)."""
        if self.full:
            return self
        return State(*map(self._scatter, (self.uh, self.wh, self.bh, self.ph)),
                     self.t, self.nx)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _upper_banded(A, bw):
    """Upper banded storage (LAPACK 'U') of a symmetric matrix of bandwidth
    bw; raises ValueError on an entry it would drop."""
    off = np.abs(np.subtract(*A.nonzero()))
    if off.max(initial=0) > bw:
        raise ValueError(f"entry at offset {off.max()} lies beyond bandwidth {bw}")
    ab = np.zeros((bw + 1, A.shape[0]))
    for i in range(bw + 1):
        ab[bw - i, i:] = A.diagonal(i)
    return ab


def _band_block(ab, rows, cols):
    """U[rows, cols] as a dense block, from upper banded storage (LAPACK 'U')."""
    bw = len(ab) - 1
    i, j = np.ogrid[rows, cols]
    k = j - i  # the diagonal each entry lies on
    return np.where((k >= 0) & (k <= bw), ab[np.clip(bw - k, 0, bw), j], 0.0)


#: rows per block of a BlockSweep (fastest at 256 x 384; 32 and 40 run
#: within 10 % of it, 64 about 30 % slower)
SWEEP_BLOCK = 48


class BlockSweep:
    """Solves U^T U q = r for a banded Cholesky factor U by blocks of rows.

    Per block it keeps the inverse of U's diagonal block (its transpose
    serves the forward pass) and the bw x bw block C_i coupling it to the
    previous block, so each pass is a few small dense matmuls acting on all
    right-hand sides at once:

        forward   y_i = U_ii^-T (r_i - C_i^T y_{i-1}[-bw:])
        backward  q_i = U_ii^-1 (y_i - C_{i+1} q_{i+1}[:bw])

    Blocks have SWEEP_BLOCK rows; a last block shorter than bw joins the one
    before, so only neighbouring blocks couple.
    """

    def __init__(self, ab):
        bw = len(ab) - 1
        n = ab.shape[1]
        edges = list(range(0, n, SWEEP_BLOCK)) + [n]
        if len(edges) > 2 and edges[-1] - edges[-2] < bw:
            del edges[-2]
        self.blocks = []
        for s, e in zip(edges[:-1], edges[1:]):
            inv = solve_triangular(_band_block(ab, slice(s, e), slice(s, e)),
                                   np.eye(e - s))
            # C_i couples the previous block's last bw rows to this one's first
            tail, head = slice(s - bw, s), slice(s, s + bw)
            link = (tail, head, _band_block(ab, tail, head)) if s else None
            self.blocks.append((slice(s, e), inv, link))

    def solve(self, r, y):
        """q, written over r; y (r's shape) holds the forward pass's result."""
        for rows, inv, link in self.blocks:
            if link:
                tail, head, c = link
                r[head] -= c.T @ y[tail]
            np.matmul(inv.T, r[rows], out=y[rows])
        for rows, inv, link in reversed(self.blocks):
            np.matmul(inv, y[rows], out=r[rows])
            if link:
                tail, head, c = link
                y[tail] -= c @ r[head]
        return r


class Solver:
    """Precomputed operators for one SimConfig."""

    def __init__(self, config: SimConfig):
        self.config = config
        p = config.params
        y = config.y
        self.grid = g = Grid(config.Lx, config.nx, y)
        ny = g.ny
        # trapezoid weights of the free rows (u: all but the wall; w: the interior)
        self._tau_u = np.r_[0.0, g.tau[1:]][:, None]
        self._tau_w = np.r_[0.0, g.tau[1:-1], 0.0][:, None]

        # projection: A_k = kx^2 diag(tau_u) + Dy^T diag(tau_w) Dy
        s = g.stencil
        bw = s - 1  # matrix bandwidth set by the stencil width
        # Dy^T diag(tau_w), the y-part of every projection's right-hand side
        self._dyt_tau_w = (g.DyT @ diags_array(self._tau_w[:, 0])).tocsr()
        K = self._dyt_tau_w @ g.Dy
        self._proj_band = _upper_banded(K, bw)

        # one-sided first-derivative stencil at the wall
        self.neumann_wall = _fd_weights(y[:s], y[0], 1)

        # variational (summation-by-parts) y-diffusion.  On the subspace
        # with the strong constraints eliminated (u = 0 at the wall, w = 0
        # at wall and lid, the no-flux stencil for b at the wall), the
        # trapezoidal update with L = -T^{-1} Dy^T T Dy removes exactly
        # 2 c dt ||Dy f_mid||^2_tau of energy per step -- the same quadratic
        # form the dissipation diagnostic integrates -- and imposes natural
        # (no-flux) conditions on the remaining boundary rows.
        e6 = p.eps**6
        self._diff_coef = {"u": e6 * p.nu0, "w": e6 * p.nu0, "b": e6 * p.kappa0}
        nb = np.zeros(ny)
        nb[:s] = self.neumann_wall
        v = nb / g.tau
        # tau-orthogonal projector onto the no-flux constraint for b; both
        # vectors vanish below the wall stencil's s rows, so only those are kept
        self._bproj_v = (v / (nb @ v))[:s, None]
        self._bproj_n = nb[:s]
        # Each field's update is f -> Z ((M + a Kq)^-1 2 M f[rows] - f[rows]),
        # Crank-Nicolson's Z (M + a Kq)^-1 (M - a Kq) f[rows].  Z embeds the
        # free rows (zero elsewhere but b's wall row, set by the no-flux
        # stencil); M and Kq are the tau-weighted mass and stiffness forms on
        # them, of bandwidth <= bw, and M + a Kq is factored once for a sweep.
        tau = diags_array(g.tau)
        self._b_wall = -self.neumann_wall[1:] / self.neumann_wall[0]
        self._diff = {}
        for name, c in self._diff_coef.items():
            nq = ny - 2 if name == "w" else ny - 1
            Z = eye_array(ny, nq, k=-1, format="lil")
            if name == "b":
                Z[0, : s - 1] = self._b_wall
            Z = Z.tocsr()
            DyZ = g.Dy @ Z
            M = Z.T @ tau @ Z
            Kq = DyZ.T @ tau @ DyZ
            # half-step factors: diffusion is applied in Strang fashion
            # around the explicit stage, keeping the march (and the energy
            # ledger) second order in dt
            a = 0.25 * config.dt * c
            self._diff[name] = (slice(1, 1 + nq), (2.0 * M).tocsr(),
                                BlockSweep(cholesky_banded(_upper_banded(M + a * Kq, bw))))
        # Dy* = T^-1 Dy^T T, the adjoint of Dy in the trapezoid inner product
        self._dy_adj = (diags_array(1.0 / g.tau) @ g.DyT @ diags_array(g.tau)).tocsr()
        dy = np.diff(y)
        self._inv_dy = 1.0 / np.minimum(np.r_[dy[0], dy], np.r_[dy, dy[-1]])[:, None]
        cols = np.arange(g.nx // 2 + 1)
        self._hold(cols)
        self._views = {cols.tobytes(): self}  # column set -> its solver

    # -- per-column data ---------------------------------------------------

    def _hold(self, cols):
        """Build the data of the sorted rfft columns `cols` on this solver:
        the only producer of per-column data, for every column set alike.
        The grid and the y-operators do not depend on the column."""
        g = self.grid
        self.kx = 2.0 * math.pi * np.fft.rfftfreq(g.nx, d=g.dx)[cols]
        # odd-derivative wavenumbers: the Nyquist mode of a real transform
        # has no well-defined first derivative and is zeroed
        self.kx_d = np.where(2 * cols == g.nx, 0.0, self.kx)
        # Parseval weights of the rfft columns as (real, imag) pairs: kx = 0
        # and Nyquist (kx_d = 0) count once, the others twice (conjugates)
        self._parseval = np.repeat((2.0 - (self.kx_d == 0.0)) * g.dx / g.nx, 2)
        # and times kx_d^2: the x-part of the dissipation from the same squares
        self._parseval_kx2 = self._parseval * np.repeat(self.kx_d**2, 2)
        self._ikx = 1j * self.kx_d[None, :]
        self._xdamp = {name: np.exp(-0.5 * c * self.kx**2 * self.config.dt)[None, :]
                       for name, c in self._diff_coef.items()}
        # kx = 0 (column 0) and Nyquist (the last column) need no solve, so
        # the regular columns between them are a slice
        start = np.count_nonzero(self.kx == 0.0)
        self._proj_regular = slice(start, start + np.count_nonzero(self.kx_d))
        kx = self.kx_d[self._proj_regular]
        # one block-diagonal banded matrix, one A_k per block.  Upper banded
        # storage of a tiled band leaves the couplings across block edges
        # zero, so one Cholesky factors all blocks.
        ab = np.tile(self._proj_band, len(kx))
        ab[-1] += np.outer(kx * kx, self._tau_u[:, 0]).ravel()  # the diagonal
        # U = D V with V = D^-1 U unit upper: each row of U's band divided by
        # its diagonal entry d, so neither sweep divides.  V is held complex
        # and Fortran-ordered, as ztbsv takes it, and 1/d as a real vector
        chol = cholesky_banded(ab)
        self._proj_inv_d = 1.0 / chol[-1]
        bw = len(chol) - 1
        for k in range(1, bw + 1):  # row bw - k holds U[j - k, j] at column j
            chol[bw - k, k:] *= self._proj_inv_d[:-k]
        chol[-1] = 1.0
        self._proj_unit = np.asfortranarray(chol, dtype=complex)

    def _on(self, state: State):
        """The solver acting on the state's columns, and the state.

        Advection couples the columns, so with delta != 0 a state holding a
        subset is widened (the columns it lacks are zero); otherwise the
        state keeps its columns and gets a solver built for them.
        """
        if self.config.params.delta != 0.0:
            return self, state.widen()
        key = state.cols.tobytes()
        if key not in self._views:
            self._views[key] = view = copy.copy(self)  # shares the y-operators
            view._hold(state.cols)
        return self._views[key], state

    def twin(self) -> "Solver":
        """This solver at delta = 0: the same y-operators, factorizations and
        column data (none is rebuilt or copied; none depends on delta), with
        its own cache of column views, which are delta = 0 views."""
        twin = copy.copy(self)
        params = dataclasses.replace(self.config.params, delta=0.0)
        twin.config = dataclasses.replace(self.config, params=params)
        twin._views = {np.arange(self.grid.nx // 2 + 1).tobytes(): twin}
        return twin

    def _width(self, *fhs):
        """Raise unless every array holds this solver's column count."""
        n = len(self.kx)
        if any(fh.shape[1] != n for fh in fhs):
            raise DnsError(f"arrays of {[fh.shape[1] for fh in fhs]} rfft columns "
                           f"given to a solver holding {n}")

    def _squares(self, fh):
        """tau @ v**2 for the (real, imag) pairs v of fh: each pair column's
        weighted sum of squares, which the Parseval weights turn into box
        integrals."""
        v = _pairs(fh)
        return self.grid.tau @ (v * v)

    def norm2(self, *fhs):
        """Sum of the box integrals of f**2 over fields given by their rfft on
        this solver's columns, each column over y in order (einsum, not BLAS,
        whose blocking depends on the width) and the columns exactly rounded:
        zero columns change no bit, so a subset's norm is its widened norm."""
        return sum(math.fsum(np.einsum("ij,ij,i->j", v, v, self.grid.tau) * self._parseval)
                   for v in map(_pairs, fhs))

    # -- spatial operators (on rfft columns) ------------------------------

    def _adjoint_div(self, uh, wh):  # the projection's right-hand side
        rhs = self._tau_u * uh
        rhs *= -self._ikx
        rhs += _ycols(self._dyt_tau_w, wh)
        return rhs

    def project(self, uh, wh):
        """Weighted least-squares projection onto the velocity constraint space.

        Returns (u', w', phi, loss), all but loss rfft columns: u' = u - dx phi
        and w' = w - Dy phi, but the pinned rows u'[0], w'[0] and w'[-1] are 0
        for any input.  At kx_d = 0 (kx = 0 and Nyquist) G = Dy[1:-1] has full
        row rank, so w' = 0 and phi = 0 there, with no solve.  The regular
        columns are solved together over the block-diagonal factor
        A = U^H U = V^H D^2 V (V unit upper, D real diagonal) by two unit
        triangular sweeps, V^H z = rhs and V phi = D^-1 y, with y = D^-1 z
        = U^-H rhs between them.

        loss is the energy removed, ||v||^2 - ||Pv||^2, from the solve's own
        numbers: on the free rows of the regular columns P is orthogonal, so
        their part is ||G phi||^2 = Re phi^H rhs = rhs^H A^-1 rhs = |y|^2
        (rhs = G* v, the adjoint divergence), and what is zeroed outright
        (the pinned rows and w at kx_d = 0) counts whole.  It needs no
        squaring of the fields."""
        self._width(uh, wh)
        g = self.grid
        phih = self._adjoint_div(uh, wh)
        # regular kx: the columns laid end to end as one complex right-hand
        # side of the block-diagonal system, solved in place by its two
        # sweeps and two scalings by 1/d; the right-hand side's array then
        # takes phi, 0 at kx_d = 0.  Between the scalings |y|^2 is the
        # energy removed on the free rows of the regular columns, all of
        # Parseval weight 2 dx / nx
        reg = self._proj_regular
        unit, inv_d = self._proj_unit, self._proj_inv_d
        bw = len(unit) - 1
        y = ztbsv(bw, unit, phih[:, reg].T.ravel(), trans=2, diag=1, overwrite_x=1)
        y *= inv_d
        loss = 2.0 * g.dx / g.nx * np.vdot(y, y).real
        y *= inv_d
        phih[:, reg] = ztbsv(bw, unit, y, diag=1, overwrite_x=1).reshape(-1, g.ny).T
        del y  # phi's buffer, before the velocities are made
        phih[:, :reg.start] = phih[:, reg.stop:] = 0.0
        u = self._ikx * phih
        np.subtract(uh, u, out=u)
        w = _ycols(g.Dy, phih)
        np.subtract(wh, w, out=w)
        # what is zeroed outright counts whole: the input's pinned rows, and
        # w at kx_d = 0, where w is still the input's (phi = 0 there)
        pinned = np.stack([uh[0], wh[0], wh[-1]]).view(float)
        edge = np.concatenate([w[1:-1, :reg.start], w[1:-1, reg.stop:]], axis=1).view(float)
        loss += (g.tau[[0, 0, -1]] @ (pinned * pinned) @ self._parseval
                 + g.dx / g.nx * (g.tau[1:-1] @ (edge * edge)).sum())
        u[0] = w[0] = w[-1] = 0.0
        w[:, :reg.start] = w[:, reg.stop:] = 0.0
        return u, w, phih, float(loss)

    def div_residual(self, uh, wh):
        """Relative residual of the adjoint divergence (projection target)."""
        self._width(uh, wh)
        scale = (np.abs(self._ikx * (self._tau_u * uh)).max()
                 + np.abs(self._dyt_tau_w @ np.abs(wh)).max())
        return float(np.abs(self._adjoint_div(uh, wh)).max() / max(scale, 1e-300))

    def advect(self, uh, wh, bh):
        """rfft of the skew-form advection (u dx + w Dy) f, f = u, w, b; exactly
        energy-neutral.  The step's one physical-space stage: 6 irfft (the
        fields, their x-derivatives) and 6 rfft (dx(u f) is i kx rfft(u f))."""
        self._width(uh, wh, bh)
        u, w, b = (np.fft.irfft(fh, n=self.grid.nx, axis=1) for fh in (uh, wh, bh))
        # b's term first: no other term reads b, so its array goes before
        # the other two terms are made
        adv_b = self._skew(u, w, b, bh)
        del b
        return [self._skew(u, w, u, uh), self._skew(u, w, w, wh), adv_b]

    def _skew(self, u, w, f, fh):
        """One field's skew form, rfft columns: f physical, fh its rfft."""
        # u dx f + w Dy f - Dy*(w f), accumulated in dx f's array
        a = np.fft.irfft(self._ikx * fh, n=self.grid.nx, axis=1)
        a *= u
        t = self.grid.Dy @ f
        t *= w
        a += t
        a -= self._dy_adj @ np.multiply(w, f, out=t)
        s = np.fft.rfft(a, axis=1)
        del a
        # + dx(u f) = i kx rfft(u f), then the 1/2
        q = np.fft.rfft(np.multiply(u, f, out=t), axis=1)
        del t
        q *= self._ikx
        s += q
        s *= 0.5
        return s

    def _noflux(self, bh):
        """b on the no-flux constraint manifold; the projection is orthogonal
        in tau, so the skew-advection energy identity stays exact."""
        s = len(self._bproj_n)
        out = bh.copy()
        out[:s] -= self._bproj_v * (self._bproj_n @ bh[:s])
        return out

    def _tendency(self, uh, wh, bh):
        """Rotation and advection slopes, on the constraint spaces of project
        and _noflux: advect's arrays scaled by -delta (zero arrays at
        delta = 0, with no transform), plus the rotation terms."""
        p = self.config.params
        sg, cg = math.sin(p.gamma), math.cos(p.gamma)
        if p.delta == 0.0:
            fu, fw, fb = (np.zeros(bh.shape, complex) for _ in range(3))
        else:
            fu, fw, fb = self.advect(uh, wh, bh)
            for f in (fu, fw, fb):
                f *= -p.delta
        _axpy(sg, bh, fu)
        _axpy(cg, bh, fw)
        _axpy(-sg, uh, fb)
        _axpy(-cg, wh, fb)
        fu, fw = self.project(fu, fw)[:2]
        return fu, fw, self._noflux(fb)

    def _diffuse(self, fh, name):
        rows, M2, sweep = self._diff[name]
        out = np.empty(fh.shape, complex)
        f = _pairs(fh)[rows]
        # out's free rows hold the sweep's forward pass, then the damped result
        q = sweep.solve(M2 @ f, _pairs(out)[rows])
        q -= f
        np.multiply(_complex(q), self._xdamp[name], out=out[rows])
        out[:rows.start] = out[rows.stop:] = 0.0
        if name == "b":  # the wall row, from the no-flux stencil
            out[0] = self._b_wall @ out[1:len(self._b_wall) + 1]
        return out

    # -- time marching -----------------------------------------------------

    def cfl_bound(self, state: State) -> float:
        """An upper bound on cfl(state) from the rfft columns alone, with no
        transform: |f(x, y)| <= sum_k c_k |f_k(y)| / nx by the triangle
        inequality on the inverse rfft (c_k = 1 at kx_d = 0, 2 elsewhere),
        so delta dt max_y of that sum for u over dx plus that for w over dy
        bounds the exact CFL.  0 without advection."""
        delta = self.config.params.delta
        if delta == 0.0:
            return 0.0
        weight = (2.0 - (self.kx_d == 0.0)) / self.grid.nx  # c_k / nx
        rate = np.abs(state.uh) @ weight
        rate /= self.grid.dx
        rate += (np.abs(state.wh) @ weight) * self._inv_dy[:, 0]
        return float(delta * rate.max() * self.config.dt)

    def cfl(self, state: State) -> float:
        """Advective CFL number of the state; 0 without advection."""
        delta = self.config.params.delta
        if delta == 0.0:
            return 0.0
        # |u| / dx + |w| / dy, in the arrays the transforms of u and w make
        rate, w = state.u, state.w
        np.abs(rate, out=rate)
        rate /= self.grid.dx
        np.abs(w, out=w)
        w *= self._inv_dy
        rate += w
        return float(delta * rate.max() * self.config.dt)

    def step(self, state: State) -> tuple[State, float]:
        """One Strang step: the new state and the energy its projections
        removed with the divergence the y-diffusion created (for the ledger)."""
        dt = self.config.dt
        op, state = self._on(state)
        if not all(np.isfinite(f).all() for f in (state.uh, state.wh, state.bh)):
            raise DnsError(f"NaN/Inf detected at t={state.t:.4g}")
        # the exact CFL's 2 irfft only when the bound does not settle it; the
        # margin covers the bound's rounding
        if op.cfl_bound(state) > 0.5 * (1.0 - 1e-12):
            c = op.cfl(state)
            if c > 0.5:
                raise DnsError(
                    f"advective CFL {c:.3g} > 0.5 at t={state.t:.4g} "
                    f"(dt={dt}, max|u|={np.abs(state.u).max():.3g})"
                )
        u = op._diffuse(state.uh, "u")
        w = op._diffuse(state.wh, "w")
        b = op._diffuse(state.bh, "b")
        # re-project between diffusion and the explicit stage: the rotation
        # energy identity needs an exactly divergence-free state
        u, w, phi, loss = op.project(u, w)
        # Heun; each slope's half is added at once, so k1 is not kept
        stage = []
        for f, k in zip((u, w, b), op._tendency(u, w, b)):
            stage.append(f.copy())
            _axpy(dt, k, stage[-1])
            _axpy(0.5 * dt, k, f)
        del k  # the last slope goes before the second stage's temporaries
        # phi is not held through the step.  Its array goes here, where the
        # second stage's temporaries reuse it: freed right after the
        # projection, glibc gave the heap top back and faulted it in again
        # every step (177 000 minor faults per 100 steps at 256 x 384
        # against about 16 000, and a 5 % slower march)
        del phi
        for f, k in zip((u, w, b), op._tendency(*stage)):
            _axpy(0.5 * dt, k, f)
        u = op._diffuse(u, "u")
        w = op._diffuse(w, "w")
        b = op._diffuse(b, "b")
        u, w, phi, removed = op.project(u, w)
        loss += removed
        return State(u, w, b, phi / dt, state.t + dt, state.nx, state.cols), loss

    def _energy_and_dissipation(self, state: State) -> tuple[float, float]:
        """(energy, dissipation) of the state, each field's (real, imag)
        pairs squared once: their tau-weighted sums (`_squares`) give the
        energy with the Parseval weights and the x-part of the dissipation
        with the Parseval weights times kx_d^2."""
        op, state = self._on(state)
        energy, diss = [], []
        for fh, name in ((state.uh, "u"), (state.wh, "w"), (state.bh, "b")):
            sq = op._squares(fh)
            energy.append(float(sq @ op._parseval))
            dy = float(op._squares(_ycols(op.grid.Dy, fh)) @ op._parseval)
            diss.append(self._diff_coef[name] * (float(sq @ op._parseval_kx2) + dy))
        return sum(energy), sum(diss)

    def energy(self, state: State) -> float:
        return self._energy_and_dissipation(state)[0]

    def dissipation(self, state: State) -> float:
        """Instantaneous eps^6 (nu0 |grad u|^2 + nu0 |grad w|^2 + k0 |grad b|^2)."""
        return self._energy_and_dissipation(state)[1]

    def run(self, state: State, n_steps: int, save_every: int = 0,
            on_save=None) -> "Trajectory":
        """March `n_steps` steps, recording the energy series of every step.

        `on_save(state)` is called with the state of step 0 (the one given),
        of every save_every-th step (none with 0) and of the last; the run
        keeps no state but the final one.  A step never changes the state
        it is given, so `on_save` may keep what it receives.
        """
        saves = _save_steps(n_steps, save_every) if on_save is not None else set()
        rows = [(state.t, *self._energy_and_dissipation(state), 0.0)]
        if 0 in saves:
            on_save(state)
        for n in range(1, n_steps + 1):
            state, loss = self.step(state)
            rows.append((state.t, *self._energy_and_dissipation(state), loss))
            if n in saves:
                on_save(state)
        times, energy, diss, proj_loss = map(np.array, zip(*rows))
        return Trajectory(times=times, energy=energy, dissipation=diss,
                          proj_loss=proj_loss, final=state)


def _save_steps(n_steps: int, save_every: int) -> set:
    """The steps a march of n_steps saves: 0, every save_every-th (none
    with 0) and the last."""
    every = range(save_every, n_steps, save_every) if save_every else ()
    return {0, *every, n_steps}


@dataclass
class Trajectory:
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    proj_loss: np.ndarray
    final: State


# ---------------------------------------------------------------------------
# initialization and verification
# ---------------------------------------------------------------------------


class WappNodes:
    """W_app = W0 (+ W1) on the grid, held for reading at many times t.

    `tables` are node tables (l, alpha, Q) at t = 0, W0's, W1's modal
    families' and W1_MF's: W1 alone is every table but the first, and W0
    alone the first, whose x-groups come first wherever groups are listed
    (`groups` counts each table's).  A group sits at the column c =
    l Lx / (2 pi) and at -c (mod nx); one more than 1e-9 of a column off
    the lattice (eps not box-matched) is refused when the tables are built."""

    def __init__(self, w0: PacketAssembly, w1: CorrectorAssembly | None, grid: Grid):
        self.grid = grid
        self.tables = [node_profiles(w0.bundle(Family.SUM), grid.y)]
        if w1 is not None:
            self.tables += [node_profiles(w1.modal(), grid.y),
                            w1.families[W1_MF].node_profiles(grid.y)]
        ls = [l[_l_starts(l)] for l, *_ in self.tables]
        self.groups = [len(l) for l in ls]
        c = np.concatenate(ls) * grid.Lx / (2.0 * math.pi)
        col = np.rint(c).astype(int)
        off = np.abs(c - col).max(initial=0.0)
        if off > 1e-9:
            raise DnsError(f"W_app wavenumbers lie up to {off:.3g} of a column off the "
                           f"rfft lattice of Lx = {grid.Lx:.6g}; box-match eps")
        self._at = np.stack([col % grid.nx, -col % grid.nx], axis=1)

    def slots(self, cols: np.ndarray, tables: int | None = None) -> np.ndarray:
        """The places of the x-groups of the first `tables` tables (all by
        default) among the sorted rfft columns `cols`: (groups, 2), at c and
        at -c, -1 off the rfft half.  A group at a column `cols` lacks is
        refused."""
        j, half = self._at[:sum(self.groups[:tables])], self.grid.nx // 2
        lacked = (j <= half) & ~np.isin(j, cols)
        if lacked.any():
            raise DnsError(f"W_app reaches rfft column {j[lacked].min()}, which the "
                           f"columns it is placed in lack")
        return np.where(j <= half, np.searchsorted(cols, j), -1)

    def profiles(self, t: float) -> np.ndarray:
        """(3, groups, ny): every table read at t (boundary.phase_sum), its
        groups in table order, as `slots` places them."""
        return np.concatenate([phase_sum(*table, t)[1] for table in self.tables], axis=1)

    def columns(self, t: float) -> np.ndarray:
        """W_app(t) on every rfft column, (3, ny, nx // 2 + 1) of (u, w, b):
        `profiles` placed through `slots` (place_profiles)."""
        cols = np.arange(self.grid.nx // 2 + 1)
        return place_profiles(self.slots(cols), self.profiles(t), self.grid, len(cols))


def place_profiles(slots: np.ndarray, P: np.ndarray, grid: Grid, width: int) -> np.ndarray:
    """Profiles P (3, groups, ny) as rfft columns (3, ny, width) of (u, w, b):
    group g's P goes to place slots[g, 0] as nx P and its conjugate to
    slots[g, 1] (WappNodes.slots(); none at -1), every other column exactly 0.
    Groups that fold to one column add up there; a loop over the groups
    takes half the time of one np.add.at (0.16 against 0.35 ms at 256 x 384)."""
    nx, out = grid.nx, np.zeros((3, grid.ny, width), dtype=complex)
    for (a, b), v in zip(slots, P.transpose(1, 0, 2)):
        for k, f in ((a, v), (b, v.conj())):
            if k >= 0:
                out[..., k] += nx * f
    return out


def _check_wapp(config: SimConfig, w0: PacketAssembly, w1: CorrectorAssembly | None):
    """DnsError naming the field unless W_app was built for this run, as
    init_from_Wapp states; W0 does not depend on delta, so a delta = 0 twin
    may share it."""
    if w1 is not None and w1.w0 is not w0:
        raise DnsError("W1 was built from another W0")
    built = [("W0", w0.params, ("delta",))]
    if w1 is not None:
        built.append(("W1", w1.params, ()))
    for name, params, free in built:
        for f in dataclasses.fields(params):
            got, want = getattr(params, f.name), getattr(config.params, f.name)
            if f.name not in free and got != want:
                raise DnsError(f"{name} was built at {f.name}={got!r}, "
                               f"the run is at {f.name}={want!r}")


def init_from_Wapp(w0: PacketAssembly, w1: CorrectorAssembly | None,
                   config: SimConfig, solver: Solver) -> State:
    """W_app(0) in the solver's rfft columns (WappNodes.columns), projected;
    at delta = 0 the state holds only the columns W_app touches.

    A W0 wavenumber at or above the grid's Nyquist column would alias and is
    refused.  W1's second harmonic may sit above Nyquist (it does at
    256 x 384 in the energy-budget check, which does not depend on it),
    where it folds as sampling folds it.  With delta != 0 the march's
    advection makes 3 k0 out of W0 and W1's second harmonic; a UserWarning
    says when 3 times W0's top column is at or above Nyquist, where that
    harmonic folds.  WappNodes refuses a W_app off the box's lattice.

    W_app must be built for this run, else DnsError names the field: W0 at
    config's parameters but for delta, W1 from this W0 and at all of them.
    """
    if config != solver.config:
        raise DnsError("the solver was built for another SimConfig")
    _check_wapp(config, w0, w1)
    _check_resolved(config, w0, solver.grid)
    return _initial(solver, WappNodes(w0, w1, solver.grid).columns(0.0))


def _check_resolved(config: SimConfig, w0: PacketAssembly, g: Grid):
    """init_from_Wapp's rules on W0's top wavenumber: DnsError at or above
    the Nyquist column, and with delta != 0 a UserWarning where advection's
    3 k0 harmonic folds."""
    k_max = max(np.abs(m.l).max(initial=0.0) for m in w0.families.values())
    col = round(k_max * g.Lx / (2.0 * math.pi))
    if 2 * col >= g.nx:
        raise DnsError(f"W0 wavenumber {k_max:.4g} sits at rfft column {col}, at or "
                       f"above the Nyquist column nx/2 = {g.nx / 2:g}; raise nx")
    if config.params.delta != 0.0 and 6 * col >= g.nx:
        warnings.warn(
            f"advection's 3 k0 harmonic sits at rfft column {3 * col}, at or above "
            f"the Nyquist column nx/2 = {g.nx / 2:g}, and folds; nx > {6 * col} resolves it",
            stacklevel=3,
        )


def _initial(solver: Solver, placed: np.ndarray) -> State:
    """W_app(0) placed on every rfft column as the solver's initial state:
    projected, and at delta = 0 holding only the columns it touches.  A
    UserWarning says when the packet reaches the lid."""
    g = solver.grid
    uh, wh, bh = placed
    held = np.flatnonzero(placed.any(axis=(0, 1)))
    field = np.fft.irfft(placed, n=g.nx, axis=2)
    peak, edge = np.abs(field).max(), np.abs(field[:, -1]).max()
    if edge > 1e-6 * peak:
        warnings.warn(
            f"packet reaches the domain top: edge amplitude {edge / peak:.2e} "
            "of peak (discrete-lattice packets recur in y; the lid reflects "
            "the residual tail)",
            stacklevel=3,
        )
    uh, wh, phih, _ = solver.project(uh, wh)
    fields = (uh, wh, solver._noflux(bh), phih)
    if solver.config.params.delta != 0.0:
        return State(*fields, 0.0, g.nx)
    return State(*(f[:, held] for f in fields), 0.0, g.nx, held)


def energy_budget(traj: Trajectory) -> dict:
    """Defect of ||W(t)||^2 + 2 int_0^t dissipation = ||W(0)||^2.

    The dissipation integral is accumulated by the trapezoid rule over the
    recorded per-step series, plus the (recorded, tiny) energy the final
    projection removes each step; `defect_rate` is max |defect| / elapsed
    time and vanishes like O(dt^2).
    """
    t = traj.times
    diss_cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (traj.dissipation[1:] + traj.dissipation[:-1])
                          * np.diff(t))]
    ) + 0.5 * np.cumsum(traj.proj_loss)
    defect = traj.energy + 2.0 * diss_cum - traj.energy[0]
    elapsed = max(t[-1] - t[0], 1e-300)
    steps = np.diff(traj.energy + 2.0 * diss_cum)
    return {
        "defect": defect,
        "defect_rate": float(np.abs(defect).max() / elapsed),
        "max_step_increase": float(steps.max(initial=0.0) / traj.energy[0]),
    }


def compare_stability(solver: Solver, state: State, n_steps: int, save_every: int,
                      w0: PacketAssembly,
                      w1: CorrectorAssembly | None = None) -> tuple[Trajectory, dict]:
    """March `state` and follow ||W_app(t) - W(t)||_{L^2} against the
    theorem's envelope: the trajectory and the report.

    The march is `solver.run(state, n_steps, save_every, ...)`, whose
    parameters give eps and delta.  Each saved state is compared with
    W_app = w0 (+ w1) at its own t (the report's `t`), on its own rfft
    columns (Parseval sums, `_departure`), as the march reaches it, and
    then dropped; one `WappNodes`, built before the march, holds W_app.

    The difference is reported relative to ||W_app(0)||_{L^2}, the norm of
    the first save's placement (at the state's own t, 0 from init_from_Wapp):
    the stability envelope is stated for an O(1)-normalized wave field,
    while the packet itself carries an O(1/eps) lattice-sum amplitude.
    The report holds arrays over the save times: `t`, `diff_L2` and the
    envelope `bound_thm` = delta eps^2 exp((delta/eps^2 + 1) t).  `diff_L2`
    is this run's whole departure; `stability_twin` marches a run with its
    delta = 0 twin and reports both.

    W_app must be built for the solver's run, as in init_from_Wapp: a
    mismatch raises DnsError naming the field.
    """
    _check_wapp(solver.config, w0, w1)
    nodes = WappNodes(w0, w1, solver.grid)
    slots = nodes.slots(solver._on(state)[1].cols)
    t, diffs, norm0 = [], [], None

    def compare(st):
        nonlocal norm0
        view, st = solver._on(st)
        wapp = place_profiles(slots, nodes.profiles(st.t), view.grid, len(st.cols))
        if not t:
            norm0 = math.sqrt(view.norm2(*wapp))
        t.append(st.t)
        diffs.append(_departure(view, st, wapp))

    traj = solver.run(state, n_steps, save_every, on_save=compare)
    t = np.array(t)
    return traj, {
        "t": t,
        "diff_L2": np.array(diffs) / norm0,
        "bound_thm": _envelope(solver.config.params, t),
    }


def stability_twin(solver: Solver, n_steps: int, save_every: int, w0: PacketAssembly,
                   w1: CorrectorAssembly | None = None) -> dict:
    """March W_app(0) = w0 (+ w1) by `solver` and W0(0) by its delta = 0
    twin (`Solver.twin`, on the columns W0 reaches) in lockstep, one
    Solver.step each per step, and follow both against W_app: the report.

    One `WappNodes` holds W_app for both runs and gives both initial states
    (as init_from_Wapp does, whose rules and warnings hold).  At each save
    (Solver.run's schedule) its profiles are read once, at the saved t, and
    placed on each state's own columns, W_app for the run and W0 for the
    twin; both states are reduced as compare_stability reduces one
    (`_departure`), and dropped.  No energy series is kept.

    The report holds arrays over the save times: `t`, `diff_L2` and
    `bound_thm`, compare_stability's report of the run; `floor`, the twin's
    diff_L2 (||W0 - W_0|| relative to ||W0(0)||); and `twin_resid`, the
    twin residual ||W - W_0 - W1|| relative to ||W_app(0)||, formed from
    the two differences, (W_app - W) - (W0 - W_0) on the twin's columns.
    """
    _check_wapp(solver.config, w0, w1)
    _check_resolved(solver.config, w0, solver.grid)
    g, twin = solver.grid, solver.twin()
    nodes = WappNodes(w0, w1, g)
    P, every = nodes.profiles(0.0), np.arange(g.nx // 2 + 1)
    n0 = nodes.groups[0]  # W0's x-groups, the first
    # the twin first: its full-width placement and projection are then
    # made before the full state exists, not beside it
    state0 = _initial(twin, place_profiles(nodes.slots(every, 1), P[:, :n0], g, len(every)))
    state = _initial(solver, place_profiles(nodes.slots(every), P, g, len(every)))
    slots, slots0 = nodes.slots(state.cols), nodes.slots(state0.cols, 1)
    at = np.searchsorted(state.cols, state0.cols)  # the twin's columns in the run's
    rows, norms = [], []

    # a function, so that a save's placements and states go when it
    # returns: held through the next steps they raised the peak by 6 MB
    def save(st, st0):
        (view, st), (view0, st0) = solver._on(st), twin._on(st0)
        P = nodes.profiles(st.t)
        wapp = place_profiles(slots, P, g, len(st.cols))
        wapp0 = place_profiles(slots0, P[:, :n0], g, len(st0.cols))
        if not norms:
            norms[:] = math.sqrt(view.norm2(*wapp)), math.sqrt(view0.norm2(*wapp0))
        diff, floor = _departure(view, st, wapp), _departure(view0, st0, wapp0)
        wapp[:, :, at] -= wapp0
        rows.append((st.t, diff, floor, math.sqrt(view.norm2(*wapp))))

    saves = _save_steps(n_steps, save_every)
    for n in range(n_steps + 1):
        if n:
            state = solver.step(state)[0]
            state0 = twin.step(state0)[0]
        if n in saves:
            save(state, state0)
    t, diff, floor, resid = map(np.array, zip(*rows))
    norm0, norm00 = norms
    return {"t": t, "diff_L2": diff / norm0, "floor": floor / norm00,
            "twin_resid": resid / norm0, "bound_thm": _envelope(solver.config.params, t)}


def _departure(view: Solver, state: State, wapp: np.ndarray) -> float:
    """||W_app - W|| of a saved state on its own columns, by their solver
    `view`; wapp, W_app on those columns, becomes W_app - W."""
    for a, f in zip(wapp, (state.uh, state.wh, state.bh)):
        a -= f
    return math.sqrt(view.norm2(*wapp))


def _envelope(params: PhysParams, t: np.ndarray) -> np.ndarray:
    """The theorem's envelope delta eps^2 exp((delta/eps^2 + 1) t)."""
    eps, delta = params.eps, params.delta
    return delta * eps**2 * np.exp((delta / eps**2 + 1.0) * t)


# ---------------------------------------------------------------------------
# doubly periodic spectral variant (modal oracle for the time stepper)
# ---------------------------------------------------------------------------


class PeriodicBox:
    """Inviscid, linear, doubly periodic pseudo-spectral twin of the time stepper.

    Shares the tendency composition (rotation + spectral projection + Heun)
    but with exact spectral derivatives in both directions, so interior
    plane waves are exact eigenmodes and the only error is the Heun phase
    slip; used as an oracle for `Solver.step`.
    """

    def __init__(self, params: PhysParams, Lx, Ly, nx, ny):
        self.params = params
        self.KX, self.KY = np.meshgrid(2.0 * math.pi * np.fft.fftfreq(nx, d=Lx / nx),
                                       2.0 * math.pi * np.fft.fftfreq(ny, d=Ly / ny))
        self.k2 = self.KX**2 + self.KY**2
        self.k2[0, 0] = 1.0

    def project(self, u, w):
        uh, wh = np.fft.fft2(u), np.fft.fft2(w)
        s = (self.KX * uh + self.KY * wh) / self.k2
        return (np.fft.ifft2(uh - self.KX * s).real,
                np.fft.ifft2(wh - self.KY * s).real)

    def _tendency(self, u, w, b):
        sg, cg = math.sin(self.params.gamma), math.cos(self.params.gamma)
        return (*self.project(sg * b, cg * b), -sg * u - cg * w)

    def step(self, fields, dt):
        k1 = self._tendency(*fields)
        k2 = self._tendency(*(f + dt * k for f, k in zip(fields, k1)))
        return tuple(f + 0.5 * dt * (a + b) for f, a, b in zip(fields, k1, k2))
