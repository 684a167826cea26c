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
step -- followed by a projection, and is second order in time.

The state is carried as the rfft along x of (u, w, b).  Every y-operator is
x-independent and banded (bandwidth 4 or 5, set by the 5-point stencil), so
it acts on the rfft columns viewed as (real, imag) float pairs:

* Dy and its transpose are stored as sparse (CSR) matrices;
* each diffusion half step solves the banded Crank-Nicolson system
  (M + a Kq) q = (M - a Kq) f on the constrained space as
  q = (M + a Kq)^-1 2 M f - f, then multiplies by the exact x-damping.
  M + a Kq = U^T U is factored once per field, and a BlockSweep solves
  with U in blocks of 48 rows, about 3x faster than LAPACK's banded solve;
* the projection stacks the banded matrices of the kx with a nonzero
  derivative wavenumber (a contiguous slice) into one block-diagonal banded
  Cholesky factor, solved in one LAPACK call (each kx has its own matrix,
  too many for stored block inverses); at kx_d = 0 (kx = 0 and Nyquist) w
  and phi are 0 with no solve, as G = Dy[1:-1] has full row rank.  It
  alone pins u and w to 0 on the wall and lid rows;
* rotation is pointwise; energy and dissipation are Parseval sums.

Advection is the only physical-space stage: per Heun stage 6 irfft (u, w,
b and their x-derivatives) and 6 rfft (two products per field); with the
CFL check's 2 irfft a step makes 26 transforms, and none at delta = 0.

Without advection (delta = 0) nothing couples the rfft columns, so a State
may hold only some of them (`State.cols`; the others are zero).  W_app is
placed in its columns from its y-profiles (`wapp_columns`), every other
column exactly 0, and at delta = 0 init_from_Wapp keeps those alone: 3 of
129 columns at 256 x 384 and 5 nodes per lobe, where a delta = 0 step takes
about 1.8 ms instead of 32 ms on one core.  One builder, `Solver._hold`,
makes the per-column data of every column set, the full one included.  A
solver with delta != 0 widens such a state to every column.

The march stores no saved states.  `Solver.run` hands the state of each
save time to a callback, and `compare_stability` reduces it to its distance
from W_app at once, so neither grows in memory with the number of save
times (a 256 x 384 state is 3.2 MB, a 512 x 768 one 12.6 MB).
"""

import copy
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_triangular
from scipy.sparse import csr_array, diags_array, eye_array

from .boundary import mode_profiles
from .characteristic import ModalMatrixSpec, roots_for
from .corrector import CorrectorAssembly
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


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass
class SimConfig:
    """One DNS run: box, grid and time step; the defaults are the `dns` and
    `stability` experiments' defaults."""

    params: PhysParams
    Lx: float
    Ly: float = 300.0
    nx: int = 256
    ny: int = 384
    dt: float = 0.01
    T: float = 1.0
    k0: float = 1.0
    dy0: float = 1e-3
    dy_max: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (("dt", self.dt > 0.0, "> 0"),
                               ("T", 0.0 <= self.T < math.inf, ">= 0 and finite"),
                               ("Ly", self.Ly > 0.0, "> 0"), ("nx", self.nx >= 2, ">= 2"),
                               ("ny", self.ny >= 2, ">= 2")):
            if not ok:
                raise DnsError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        p = self.params
        omega0 = math.sin(p.gamma)
        if self.dt > 0.1 / omega0:
            raise DnsError(f"dt={self.dt} exceeds rotational resolution "
                           f"0.1/omega0={0.1 / omega0:.3g}")
        # the thinnest layer must be resolved: >= 8 points within 5 widths
        spec = ModalMatrixSpec(p.nu, p.kappa, omega0, self.k0, p.gamma)
        lam5 = roots_for(spec).by_label(5)[0].real
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
        K = g.DyT @ diags_array(self._tau_w[:, 0]) @ g.Dy
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
        # tau-orthogonal projector onto the no-flux constraint for b
        self._bproj_v = v / (nb @ v)
        self._bproj_n = nb
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
        self._proj_chol = cholesky_banded(ab)

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

    def _width(self, *fhs):
        """Raise unless every array holds this solver's column count."""
        n = len(self.kx)
        if any(fh.shape[1] != n for fh in fhs):
            raise DnsError(f"arrays of {[fh.shape[1] for fh in fhs]} rfft columns "
                           f"given to a solver holding {n}")

    def norm2(self, *fhs):
        """Sum of the box integrals of f**2 over fields given by their rfft
        on this solver's columns."""
        return sum(float(self.grid.tau @ (v * v) @ self._parseval)
                   for v in map(_pairs, fhs))

    # -- spatial operators (on rfft columns) ------------------------------

    def _adjoint_div(self, uh, wh):  # the projection's right-hand side
        return -self._ikx * (self._tau_u * uh) + _ycols(self.grid.DyT, self._tau_w * wh)

    def project(self, uh, wh):
        """Weighted least-squares projection onto the velocity constraint space.

        Returns (u', w', phi), all rfft columns: u' = u - dx phi and
        w' = w - Dy phi, but the pinned rows u'[0], w'[0] and w'[-1] are 0 for
        any input.  At kx_d = 0 (kx = 0 and Nyquist) G = Dy[1:-1] has full
        row rank, so w' = 0 and phi = 0 there, with no solve."""
        self._width(uh, wh)
        g = self.grid
        rhs = self._adjoint_div(uh, wh)
        phih = np.zeros_like(rhs)
        # regular kx: the columns laid end to end as one (real, imag) pair
        # of right-hand sides of the block-diagonal system
        reg = self._proj_regular
        sol = cho_solve_banded((self._proj_chol, False),
                               _pairs(rhs[:, reg].T).reshape(-1, 2),
                               check_finite=False)
        phih[:, reg] = _complex(sol).reshape(-1, g.ny).T
        u, w = uh - self._ikx * phih, wh - _ycols(g.Dy, phih)
        u[0] = w[0] = w[-1] = 0.0
        w[:, :reg.start] = w[:, reg.stop:] = 0.0
        return u, w, phih

    def div_residual(self, uh, wh):
        """Relative residual of the adjoint divergence (projection target)."""
        self._width(uh, wh)
        scale = (np.abs(self._ikx * (self._tau_u * uh)).max()
                 + np.abs(self.grid.DyT @ (self._tau_w * np.abs(wh))).max())
        return float(np.abs(self._adjoint_div(uh, wh)).max() / max(scale, 1e-300))

    def advect(self, uh, wh, bh):
        """rfft of the skew-form advection (u dx + w Dy) f, f = u, w, b; exactly
        energy-neutral.  The step's one physical-space stage: 6 irfft (the
        fields, their x-derivatives) and 6 rfft (dx(u f) is i kx rfft(u f))."""
        self._width(uh, wh, bh)
        nx = self.grid.nx
        fields = [np.fft.irfft(fh, n=nx, axis=1) for fh in (uh, wh, bh)]
        u, w = fields[:2]
        out = []
        for f, fh in zip(fields, (uh, wh, bh)):
            # dx f is consumed at once: one full-grid array fewer at the peak
            a = (u * np.fft.irfft(self._ikx * fh, n=nx, axis=1)
                 + w * (self.grid.Dy @ f) - self._dy_adj @ (w * f))
            out.append(0.5 * (np.fft.rfft(a, axis=1)
                              + self._ikx * np.fft.rfft(u * f, axis=1)))
        return out

    def _noflux(self, bh):
        """b on the no-flux constraint manifold; the projection is orthogonal
        in tau, so the skew-advection energy identity stays exact."""
        return bh - self._bproj_v[:, None] * (self._bproj_n @ bh)

    def _tendency(self, uh, wh, bh):
        """Rotation and advection slopes, on the constraint spaces of project
        and _noflux."""
        p = self.config.params
        sg, cg = math.sin(p.gamma), math.cos(p.gamma)
        adv = self.advect(uh, wh, bh) if p.delta != 0.0 else (0.0, 0.0, 0.0)
        fu = sg * bh - p.delta * adv[0]
        fw = cg * bh - p.delta * adv[1]
        fb = -sg * uh - cg * wh - p.delta * adv[2]
        del adv  # before the projection's temporaries
        fu, fw, _ = self.project(fu, fw)
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

    def cfl(self, state: State) -> float:
        """Advective CFL number of the state; 0 without advection."""
        delta = self.config.params.delta
        if delta == 0.0:
            return 0.0
        rate = (np.abs(state.u) / self.grid.dx + np.abs(state.w) * self._inv_dy).max()
        return float(delta * rate * self.config.dt)

    def step(self, state: State) -> tuple[State, float]:
        """One Strang step: the new state and the energy its projections
        removed with the divergence the y-diffusion created (for the ledger)."""
        dt = self.config.dt
        op, state = self._on(state)
        if not all(np.isfinite(f).all() for f in (state.uh, state.wh, state.bh)):
            raise DnsError(f"NaN/Inf detected at t={state.t:.4g}")
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
        before = op.norm2(u, w)
        u, w, _ = op.project(u, w)
        loss = before - op.norm2(u, w)
        # Heun; each slope's half is added at once, so k1 is not kept
        k1 = op._tendency(u, w, b)
        stage = [f + dt * k for f, k in zip((u, w, b), k1)]
        for f, k in zip((u, w, b), k1):
            f += 0.5 * dt * k
        del k1
        for f, k in zip((u, w, b), op._tendency(*stage)):
            f += 0.5 * dt * k
        u = op._diffuse(u, "u")
        w = op._diffuse(w, "w")
        b = op._diffuse(b, "b")
        before = op.norm2(u, w)
        u, w, phi = op.project(u, w)
        loss = loss + before - op.norm2(u, w)
        return State(u, w, b, phi / dt, state.t + dt, state.nx, state.cols), loss

    def energy(self, state: State) -> float:
        op, state = self._on(state)
        return op.norm2(state.uh, state.wh, state.bh)

    def dissipation(self, state: State) -> float:
        """Instantaneous eps^6 (nu0 |grad u|^2 + nu0 |grad w|^2 + k0 |grad b|^2)."""
        op, state = self._on(state)
        return sum(self._diff_coef[name] * op.norm2(op._ikx * fh, _ycols(op.grid.Dy, fh))
                   for fh, name in ((state.uh, "u"), (state.wh, "w"), (state.bh, "b")))

    def run(self, state: State, n_steps: int, save_every: int = 0,
            on_save=None) -> "Trajectory":
        """March `n_steps` steps, recording the energy series of every step.

        `on_save(state)` is called with the initial state, after every
        `save_every`-th step (none with 0) and after the last step; the
        run keeps no state but the final one.  A step never changes the
        state it is given, so `on_save` may keep what it receives.
        """
        rows = [(state.t, self.energy(state), self.dissipation(state), 0.0)]
        if on_save is not None:
            on_save(state)
        for n in range(1, n_steps + 1):
            state, loss = self.step(state)
            rows.append((state.t, self.energy(state), self.dissipation(state), loss))
            if on_save is not None and (n == n_steps
                                        or save_every and n % save_every == 0):
                on_save(state)
        times, energy, diss, proj_loss = map(np.array, zip(*rows))
        return Trajectory(times=times, energy=energy, dissipation=diss,
                          proj_loss=proj_loss, final=state)


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


def wapp_columns(w0: PacketAssembly, w1: CorrectorAssembly | None, t: float,
                 grid: Grid) -> np.ndarray:
    """W_app(t) = W0 (+ W1) as rfft columns (3, ny, nx/2 + 1) of (u, w, b),
    placed from its y-profiles: a group's P at l = 2 pi c / Lx goes to
    column c as nx P, its conjugate to column -c, both modulo nx as sampling
    folds them.  Every other column is exactly 0.  A wavenumber more than
    1e-9 of a column off the lattice (eps not box-matched) is refused."""
    l, P = mode_profiles(w0.bundle(Family.SUM), t, grid.y)
    if w1 is not None:
        l1, P1 = w1.profiles(t, grid.y)
        l, P = np.concatenate([l, l1]), np.concatenate([P, P1], axis=1)
    c = l * grid.Lx / (2.0 * math.pi)
    col = np.rint(c).astype(int)
    off = np.abs(c - col).max()
    if off > 1e-9:
        raise DnsError(f"W_app wavenumbers lie up to {off:.3g} of a column off the "
                       f"rfft lattice of Lx = {grid.Lx:.6g}; box-match eps")
    nx, out = grid.nx, np.zeros((3, grid.ny, grid.nx // 2 + 1), dtype=complex)
    for idx, v in ((col % nx, P), (-col % nx, P.conj())):
        keep = idx < out.shape[2]
        np.add.at(out, (..., idx[keep]), nx * v[:, keep].transpose(0, 2, 1))
    return out


def init_from_Wapp(w0: PacketAssembly, w1: CorrectorAssembly | None,
                   config: SimConfig, solver: Solver) -> State:
    """W_app(0) in the solver's rfft columns (wapp_columns), projected; at
    delta = 0 the state holds only the columns W_app touches.

    A W0 wavenumber at or above the grid's Nyquist column would alias and is
    refused.  W1's second harmonic may sit above Nyquist (it does at
    256 x 384 in the energy-budget check, which does not depend on it),
    where it folds as sampling folds it.
    """
    if config != solver.config:
        raise DnsError("the solver was built for another SimConfig")
    g = solver.grid
    k_max = max(np.abs(m.l).max(initial=0.0) for m in w0.families.values())
    col = round(k_max * g.Lx / (2.0 * math.pi))
    if 2 * col >= g.nx:
        raise DnsError(f"W0 wavenumber {k_max:.4g} sits at rfft column {col}, at or "
                       f"above the Nyquist column nx/2 = {g.nx / 2:g}; raise nx")
    uh, wh, bh = placed = wapp_columns(w0, w1, 0.0, g)
    held = np.flatnonzero(placed.any(axis=(0, 1)))
    field = np.fft.irfft(placed, n=g.nx, axis=2)
    peak, edge = np.abs(field).max(), np.abs(field[:, -1]).max()
    if edge > 1e-6 * peak:
        warnings.warn(
            f"packet reaches the domain top: edge amplitude {edge / peak:.2e} "
            "of peak (discrete-lattice packets recur in y; the lid reflects "
            "the residual tail)",
            stacklevel=2,
        )
    uh, wh, phih = solver.project(uh, wh)
    fields = (uh, wh, solver._noflux(bh), phih)
    if config.params.delta != 0.0:
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
                      w0: PacketAssembly, w1: CorrectorAssembly | None = None,
                      floor: np.ndarray | None = None) -> tuple[Trajectory, dict]:
    """March `state` and follow ||W_app(t) - W(t)||_{L^2} against the two
    envelopes: the trajectory and the report.

    The march is `solver.run(state, n_steps, save_every, ...)`, whose
    parameters give eps and delta; each saved state is compared with
    W_app = w0 (+ w1) in the solver's rfft columns (wapp_columns; Parseval
    sums) as the march reaches it and then dropped, so the memory does not
    grow with the number of save times.  `floor` is an optional
    per-save-time error floor (typically the same quantity from a delta = 0
    twin run, whose exact departure is O(eps^6 t)) that is subtracted
    before the bound comparison.  Such a floor holds whatever the grid and
    box do to W0, not only discretization: at 5 nodes per lobe it is the lid
    cutting the packet's recurrence in y (0.0825 at gamma = 0.7, eps = 0.2,
    Ly = 300, at any resolution).

    The difference is reported relative to ||W_app(0)||_{L^2}: the stability
    envelopes are stated for an O(1)-normalized wave field, while the packet
    itself carries an O(1/eps) lattice-sum amplitude.
    """
    eps, delta = solver.config.params.eps, solver.config.params.delta
    wapp0 = wapp_columns(w0, w1, 0.0, solver.grid)
    norm0 = math.sqrt(solver.norm2(*wapp0))
    times, diffs = [], []

    def compare(st):
        # a state is zero off the columns it holds, so only those are subtracted
        wapp = wapp0 if st.t == 0.0 else wapp_columns(w0, w1, st.t, solver.grid)
        for a, f in zip(wapp, (st.uh, st.wh, st.bh)):
            a[:, st.cols] -= f
        times.append(st.t)
        diffs.append(math.sqrt(solver.norm2(*wapp)))

    traj = solver.run(state, n_steps, save_every, on_save=compare)
    diffs = np.array(diffs) / norm0
    t = np.array(times)
    if floor is None:
        floor = np.zeros_like(diffs)
    elif len(floor) != len(diffs):
        raise DnsError(f"floor of {len(floor)} values for {len(diffs)} save times")
    bound_thm = delta * eps**2 * np.exp((delta / eps**2 + 1.0) * t)
    bound_alt = math.sqrt(max(delta, 0.0)) * eps**3 * np.exp(delta / eps**2 * t)
    net = np.maximum(diffs - floor, 0.0)
    return traj, {
        "t": t,
        "diff_L2": diffs,
        "floor": floor,
        "net": net,
        "bound_thm": bound_thm,
        "bound_alt": bound_alt,
    }


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
