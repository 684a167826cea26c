"""Direct solver for the scaled rotating-stratified system on a half-plane slab.

The system marched here is

    dt u - sin(g) b + dx p = eps^6 nu0 (Dxx + Dyy) u - delta (u dx + w dy) u
    dt w - cos(g) b + dy p = eps^6 nu0 (Dxx + Dyy) w - delta (u dx + w dy) w
    dt b + sin(g) u + cos(g) w = eps^6 k0 (Dxx + Dyy) b - delta (u dx + w dy) b
    dx u + dy w = 0,   u = w = dy b = 0 at y = 0,

on a box periodic in x and bounded above by a stress-free, no-flux lid.
The discretization is pseudo-spectral in x and
compact (5-point) finite differences on a geometrically stretched y-grid.

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

Every y-operator is banded (bandwidth 4, set by the 5-point stencil), so a
step costs O(nx ny) plus the FFTs:

* Dy and its transpose are stored as sparse (CSR) matrices;
* each diffusion half step solves the banded Crank-Nicolson system
  (M + a Kq) q = (M - a Kq) f on the constrained space, with M + a Kq
  factored once per field by a banded Cholesky;
* the projection stacks the banded matrices of every kx with a nonzero
  derivative wavenumber into one block-diagonal banded Cholesky factor and
  solves all of them in one call on (real, imag) columns; kx = 0 and the
  Nyquist column, where the matrix is singular, use a dense eigen
  pseudo-inverse.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh
from scipy.optimize import brentq
from scipy.sparse import csr_array, diags_array, eye_array

from .characteristic import ModalMatrixSpec, roots_for
from .corrector import CorrectorAssembly, evaluate_W1
from .packets import Family, PacketAssembly, evaluate_packet
from .params import PhysParams


class DnsError(RuntimeError):
    """Configuration or runtime failure of the direct solver."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _fd_weights(nodes, z, m):
    """Finite-difference weights for the m-th derivative at z (Fornberg)."""
    n = len(nodes)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((c4 * w[k, j] - k * w[k - 1, j])) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[m]


def stretched_grid(Ly: float, ny: int, dy0: float, dy_max: float = math.inf):
    """Geometric near-wall spacing dy0 growing by <= 1.08, capped at dy_max."""
    if dy0 * (ny - 1) >= Ly:
        return np.linspace(0.0, Ly, ny)

    def length(r):
        d = np.minimum(dy0 * r ** np.arange(ny - 1), dy_max)
        return d.sum() - Ly

    if length(1.08) < 0.0:
        raise DnsError(
            f"cannot reach Ly={Ly:.3g} with ny={ny}, dy0={dy0:.3g}, "
            f"dy_max={dy_max:.3g} at stretch ratio <= 1.08"
        )
    r = brentq(length, 1.0 + 1e-12, 1.08)
    d = np.minimum(dy0 * r ** np.arange(ny - 1), dy_max)
    y = np.concatenate([[0.0], np.cumsum(d)])
    y[-1] = Ly
    return y


class Grid:
    """Periodic x, stretched y; difference matrices and quadrature weights."""

    def __init__(self, Lx: float, nx: int, y: np.ndarray):
        self.Lx, self.nx = Lx, nx
        self.x = np.linspace(0.0, Lx, nx, endpoint=False)
        self.dx = Lx / nx
        self.kx = 2.0 * math.pi * np.fft.rfftfreq(nx, d=self.dx)
        # odd-derivative wavenumbers: the Nyquist mode of a real transform
        # has no well-defined first derivative and is zeroed
        self.kx_d = self.kx.copy()
        if nx % 2 == 0:
            self.kx_d[-1] = 0.0
        self.y = y
        ny = len(y)
        self.ny = ny
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
        vals = np.array([_fd_weights(y[c], y[j], 1) for j, c in enumerate(cols)])
        self.Dy = csr_array(
            (vals.ravel(), (np.repeat(np.arange(ny), s), cols.ravel())),
            shape=(ny, ny),
        )
        self.DyT = self.Dy.T.tocsr()

    def ddx(self, f):
        return np.fft.irfft(1j * self.kx_d[None, :] * np.fft.rfft(f, axis=1),
                            n=self.nx, axis=1)

    def integral(self, f):
        """Integral over the box of a (ny, nx) field."""
        return float(self.tau @ f.sum(axis=1)) * self.dx


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass
class SimConfig:
    params: PhysParams
    Lx: float
    Ly: float
    nx: int
    ny: int
    dt: float
    T: float
    k0: float = 1.0
    dy0: float = 1e-3
    dy_max: float = math.inf

    def __post_init__(self):
        p = self.params
        omega0 = math.sin(p.gamma)
        if self.dt > 0.1 / omega0:
            raise DnsError(f"dt={self.dt} exceeds rotational resolution "
                           f"0.1/omega0={0.1 / omega0:.3g}")
        # the thinnest layer must be resolved: >= 8 points within 5 widths
        spec = ModalMatrixSpec(p.nu, p.kappa, omega0, self.k0, p.gamma)
        lam5 = roots_for(spec).by_label(5).real
        y = stretched_grid(self.Ly, self.ny, self.dy0, self.dy_max)
        n_in_layer = int(np.sum(y <= 5.0 / lam5))
        if n_in_layer < 8:
            raise DnsError(
                f"only {n_in_layer} grid points within 5 widths of the "
                f"thin layer (rate {lam5:.3g}); refine dy0 or ny"
            )


def box_matched_eps(eps: float, k0: float, nodes_per_lobe: int) -> float:
    """Nearest eps whose packet k-lattice contains the carrier k0.

    The quadrature nodes sit at k0 + j * dk with dk = eps^2 * dxi; the box
    Lx = 2 pi / dk holds the field exactly periodically iff k0 / dk is an
    integer.  Snapping eps (a fraction of a percent) achieves that.
    """
    dxi = 2.0 / (nodes_per_lobe - 1)
    r = round(k0 / (eps**2 * dxi))
    if r < 1:
        raise DnsError("eps too large to match the box to the carrier")
    return math.sqrt(k0 / (r * dxi))


@dataclass
class State:
    u: np.ndarray
    w: np.ndarray
    b: np.ndarray
    p: np.ndarray
    t: float

    def copy(self) -> "State":
        return State(self.u.copy(), self.w.copy(), self.b.copy(),
                     self.p.copy(), self.t)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _upper_banded(A, bw):
    """Upper banded storage (LAPACK 'U') of a symmetric matrix of bandwidth bw."""
    n = A.shape[0]
    ab = np.zeros((bw + 1, n))
    for i in range(bw + 1):
        ab[bw - i, i:] = A.diagonal(i)
    return ab


class Solver:
    """Precomputed operators for one SimConfig."""

    def __init__(self, config: SimConfig):
        self.config = config
        p = config.params
        y = stretched_grid(config.Ly, config.ny, config.dy0, config.dy_max)
        self.grid = g = Grid(config.Lx, config.nx, y)
        ny = g.ny
        self.mask_u = np.ones(ny)
        self.mask_u[0] = 0.0
        self.mask_w = np.ones(ny)
        self.mask_w[0] = self.mask_w[-1] = 0.0

        # projection: A_k = kx^2 diag(tau m_u) + Dy^T diag(tau m_w) Dy
        bw = g.stencil - 1  # matrix bandwidth set by the stencil width
        K = g.DyT @ diags_array(g.tau * self.mask_w) @ g.Dy
        du = g.tau * self.mask_u
        # at kx = 0 the matrix is singular (constants and a second solution
        # of the interior recurrence Dy v = 0 have zero discrete gradient);
        # the right-hand side is orthogonal to that null space by
        # construction, so the pseudo-inverse on the range is exact.  The
        # Nyquist column (kx_d = 0 too) shares it.
        lam, V = eigh(K.toarray())
        keep = lam > 1e-10 * lam[-1]
        self._proj_zero = (V[:, keep], 1.0 / lam[keep])
        self._proj_singular = np.flatnonzero(g.kx_d == 0.0)
        self._proj_regular = np.flatnonzero(g.kx_d != 0.0)
        kx = g.kx_d[self._proj_regular]
        # every other kx: one block-diagonal banded matrix, one A_k per
        # block.  Upper banded storage of a tiled band leaves the couplings
        # across block edges zero, so one Cholesky factors all blocks.
        ab = np.tile(_upper_banded(K, bw), len(kx))
        ab[bw] += np.outer(kx * kx, du).ravel()
        self._proj_chol = cholesky_banded(ab)

        # one-sided first-derivative stencil at the wall
        s = g.stencil
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
        # Each field's update is f -> Z (M + a Kq)^{-1} (M - a Kq) f[rows]:
        # Z embeds the free rows (for b, the wall row follows from the
        # no-flux stencil), M and Kq are the tau-weighted mass and stiffness
        # forms on them, both of bandwidth <= bw, so M + a Kq is factored
        # once as a banded Cholesky.
        tau = diags_array(g.tau)
        self._diff = {}
        for name, c in self._diff_coef.items():
            nq = ny - 2 if name == "w" else ny - 1
            Z = eye_array(ny, nq, k=-1, format="lil")
            if name == "b":
                Z[0, : s - 1] = -self.neumann_wall[1:] / self.neumann_wall[0]
            Z = Z.tocsr()
            DyZ = g.Dy @ Z
            M = Z.T @ tau @ Z
            Kq = DyZ.T @ tau @ DyZ
            # half-step factors: diffusion is applied in Strang fashion
            # around the explicit stage, keeping the march (and the energy
            # ledger) second order in dt
            a = 0.25 * config.dt * c
            self._diff[name] = (slice(1, 1 + nq), Z, (M - a * Kq).tocsr(),
                                cholesky_banded(_upper_banded(M + a * Kq, bw)))
        self._xdamp = {
            name: np.exp(-0.5 * c * g.kx**2 * config.dt)
            for name, c in self._diff_coef.items()
        }

    # -- spatial operators -------------------------------------------------

    def project(self, u, w):
        """Weighted least-squares projection onto the discrete div-free space.

        Returns (u', w', phi) with u' = u - dx phi on unpinned rows and
        w' = w - Dy phi on unpinned rows; the pinned wall/lid rows are left
        untouched (they are part of the constraint space).
        """
        g = self.grid
        uh = np.fft.rfft(u, axis=1)
        wh = np.fft.rfft(w, axis=1)
        rhs = (-1j * g.kx_d[None, :] * (g.tau * self.mask_u)[:, None] * uh
               + g.DyT @ ((g.tau * self.mask_w)[:, None] * wh))
        phih = np.empty_like(uh)
        # regular kx: the columns laid end to end as one (real, imag) pair
        # of right-hand sides of the block-diagonal system
        reg = self._proj_regular
        cols = rhs.T[reg].view(float).reshape(-1, 2)
        sol = cho_solve_banded((self._proj_chol, False), cols,
                               check_finite=False)
        phih[:, reg] = (np.ascontiguousarray(sol).view(complex)
                        .reshape(len(reg), g.ny).T)
        # kx = 0 and Nyquist: the pseudo-inverse, in real arithmetic
        V, inv_lam = self._proj_zero
        sing = self._proj_singular
        cols = np.concatenate([rhs[:, sing].real, rhs[:, sing].imag], axis=1)
        sol = V @ (inv_lam[:, None] * (V.T @ cols))
        phih[:, sing] = sol[:, : len(sing)] + 1j * sol[:, len(sing):]
        uh -= 1j * g.kx_d[None, :] * phih * self.mask_u[:, None]
        wh -= (g.Dy @ phih) * self.mask_w[:, None]
        return (np.fft.irfft(uh, n=g.nx, axis=1),
                np.fft.irfft(wh, n=g.nx, axis=1),
                np.fft.irfft(phih, n=g.nx, axis=1))

    def div_residual(self, u, w):
        """Relative residual of the adjoint divergence (projection target)."""
        g = self.grid
        uh = np.fft.rfft(u, axis=1)
        wh = np.fft.rfft(w, axis=1)
        r = (-1j * g.kx_d[None, :] * (g.tau * self.mask_u)[:, None] * uh
             + g.DyT @ ((g.tau * self.mask_w)[:, None] * wh))
        scale = (np.abs(g.kx_d[None, :] * (g.tau * self.mask_u)[:, None] * uh).max()
                 + np.abs(g.DyT @ ((g.tau * self.mask_w)[:, None] * np.abs(wh))).max())
        return float(np.abs(r).max() / max(scale, 1e-300))

    def advect(self, u, w, f):
        """Skew-form advection (u dx + w Dy) f; exactly energy-neutral."""
        g = self.grid
        fy = g.Dy @ f
        conv = u * g.ddx(f) + w * fy
        cons = g.ddx(u * f) - (g.DyT @ (g.tau[:, None] * (w * f))) / g.tau[:, None]
        return 0.5 * (conv + cons)

    def _tendency(self, u, w, b):
        p = self.config.params
        sg, cg = math.sin(p.gamma), math.cos(p.gamma)
        fu = sg * b
        fw = cg * b
        fb = -sg * u - cg * w
        if p.delta != 0.0:
            fu -= p.delta * self.advect(u, w, u)
            fw -= p.delta * self.advect(u, w, w)
            fb -= p.delta * self.advect(u, w, b)
        fu *= self.mask_u[:, None]
        fw *= self.mask_w[:, None]
        fu, fw, _ = self.project(fu, fw)
        # keep b on the no-flux constraint manifold (orthogonal in tau,
        # so the skew-advection energy identity is preserved exactly)
        fb -= self._bproj_v[:, None] * (self._bproj_n @ fb)
        return fu, fw, fb

    def _diffuse(self, f, name):
        rows, Z, B, chol = self._diff[name]
        out = Z @ cho_solve_banded((chol, False), B @ f[rows],
                                   check_finite=False)
        fh = np.fft.rfft(out, axis=1)
        fh *= self._xdamp[name][None, :]
        return np.fft.irfft(fh, n=self.grid.nx, axis=1)

    # -- time marching -----------------------------------------------------

    def cfl(self, state: State) -> float:
        g = self.grid
        delta = self.config.params.delta
        dy_loc = np.minimum.reduce([
            np.concatenate([[np.diff(g.y)[0]], np.diff(g.y)]),
            np.concatenate([np.diff(g.y), [np.diff(g.y)[-1]]]),
        ])
        rate = np.abs(state.u) / g.dx + np.abs(state.w) / dy_loc[:, None]
        return float(delta * rate.max() * self.config.dt)

    def step(self, state: State) -> State:
        dt = self.config.dt
        if not all(np.isfinite(f).all() for f in (state.u, state.w, state.b)):
            raise DnsError(f"NaN/Inf detected at t={state.t:.4g}")
        c = self.cfl(state)
        if c > 0.5:
            raise DnsError(
                f"advective CFL {c:.3g} > 0.5 at t={state.t:.4g} "
                f"(dt={dt}, max|u|={np.abs(state.u).max():.3g})"
            )
        u = self._diffuse(state.u, "u")
        w = self._diffuse(state.w, "w")
        b = self._diffuse(state.b, "b")
        # re-project between diffusion and the explicit stage: the rotation
        # energy identity needs an exactly divergence-free state
        before = self.grid.integral(u**2 + w**2)
        u, w, _ = self.project(u, w)
        loss = before - self.grid.integral(u**2 + w**2)
        k1 = self._tendency(u, w, b)
        u1, w1, b1 = u + dt * k1[0], w + dt * k1[1], b + dt * k1[2]
        k2 = self._tendency(u1, w1, b1)
        u = u + 0.5 * dt * (k1[0] + k2[0])
        w = w + 0.5 * dt * (k1[1] + k2[1])
        b = b + 0.5 * dt * (k1[2] + k2[2])
        u = self._diffuse(u, "u")
        w = self._diffuse(w, "w")
        b = self._diffuse(b, "b")
        before = self.grid.integral(u**2 + w**2)
        u, w, phi = self.project(u, w)
        # energy removed with the divergence the y-diffusion created;
        # recorded so the discrete energy ledger stays exact
        self.last_proj_loss = loss + before - self.grid.integral(u**2 + w**2)
        # reimpose the wall and lid conditions exactly
        u[0] = 0.0
        w[0] = 0.0
        w[-1] = 0.0
        return State(u, w, b, phi / dt, state.t + dt)

    def energy(self, state: State) -> float:
        return self.grid.integral(state.u**2 + state.w**2 + state.b**2)

    def dissipation(self, state: State) -> float:
        """Instantaneous eps^6 (nu0 |grad u|^2 + nu0 |grad w|^2 + k0 |grad b|^2)."""
        g = self.grid
        out = 0.0
        for f, name in ((state.u, "u"), (state.w, "w"), (state.b, "b")):
            out += self._diff_coef[name] * g.integral(g.ddx(f) ** 2 + (g.Dy @ f) ** 2)
        return out

    def run(self, state: State, n_steps: int, save_every: int = 0) -> "Trajectory":
        times = [state.t]
        energy = [self.energy(state)]
        diss = [self.dissipation(state)]
        proj_loss = [0.0]
        states = [state.copy()] if save_every else []
        save_times = [state.t] if save_every else []
        for n in range(1, n_steps + 1):
            state = self.step(state)
            times.append(state.t)
            energy.append(self.energy(state))
            diss.append(self.dissipation(state))
            proj_loss.append(self.last_proj_loss)
            if save_every and (n % save_every == 0 or n == n_steps):
                states.append(state.copy())
                save_times.append(state.t)
        return Trajectory(
            config=self.config,
            times=np.array(times),
            energy=np.array(energy),
            dissipation=np.array(diss),
            proj_loss=np.array(proj_loss),
            save_times=np.array(save_times),
            states=states,
            final=state,
        )


@dataclass
class Trajectory:
    config: SimConfig
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    proj_loss: np.ndarray
    save_times: np.ndarray
    states: list
    final: State


# ---------------------------------------------------------------------------
# initialization and verification
# ---------------------------------------------------------------------------


def wapp_evaluator(w0: PacketAssembly, w1: CorrectorAssembly | None = None):
    """Callable (t, x, y) -> (u, w, b) of the approximate solution."""

    def ev(t, x, y):
        u, w, b = evaluate_packet(w0, Family.SUM, t, (x, y))
        if w1 is not None:
            du, dw, db = evaluate_W1(w1, t, x, y)
            u, w, b = u + du, w + dw, b + db
        return u, w, b

    return ev


def init_from_Wapp(
    w0: PacketAssembly,
    w1: CorrectorAssembly | None,
    config: SimConfig,
    solver: Solver | None = None,
) -> State:
    """Grid evaluation of W_app(0) with a final discrete projection."""
    solver = solver or Solver(config)
    g = solver.grid
    u, w, b = wapp_evaluator(w0, w1)(0.0, g.x, g.y)
    peak = max(np.abs(u).max(), np.abs(w).max(), np.abs(b).max())
    edge = max(np.abs(u[-1]).max(), np.abs(w[-1]).max(), np.abs(b[-1]).max())
    if edge > 1e-6 * peak:
        warnings.warn(
            f"packet reaches the domain top: edge amplitude {edge / peak:.2e} "
            "of peak (discrete-lattice packets recur in y; the lid reflects "
            "the residual tail)",
            stacklevel=2,
        )
    u[0] = 0.0
    w[0] = 0.0
    w[-1] = 0.0
    u, w, phi = solver.project(u, w)
    u[0] = 0.0
    w[0] = 0.0
    w[-1] = 0.0
    b = b - solver._bproj_v[:, None] * (solver._bproj_n @ b)
    return State(u, w, b, phi, 0.0)


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
        "energy": traj.energy,
        "dissipation_integral": diss_cum,
    }


def compare_stability(
    traj: Trajectory,
    wapp,
    params: PhysParams,
    solver: Solver,
    floor: np.ndarray | None = None,
) -> dict:
    """Time series of ||W_app(t) - W(t)||_{L^2} against the two envelopes.

    `wapp` is a (t, x, y) -> (u, w, b) evaluator, measured on the grid of
    `solver`, the solver that ran `traj`; `floor` is an optional
    per-save-time discretization-error estimate (typically the same quantity
    from a delta = 0 twin run, where the exact departure is O(eps^6 t)) that
    is subtracted before the bound comparison.

    The difference is reported relative to ||W_app(0)||_{L^2}: the stability
    envelopes are stated for an O(1)-normalized wave field, while the packet
    itself carries an O(1/eps) lattice-sum amplitude.
    """
    g = solver.grid
    eps, delta = params.eps, params.delta
    wapp0 = wapp(0.0, g.x, g.y)
    norm0 = math.sqrt(g.integral(sum(f**2 for f in wapp0)))
    diffs = []
    for t, st in zip(traj.save_times, traj.states):
        ua, wa, ba = wapp0 if t == 0.0 else wapp(t, g.x, g.y)
        diffs.append(math.sqrt(g.integral(
            (ua - st.u) ** 2 + (wa - st.w) ** 2 + (ba - st.b) ** 2)))
    diffs = np.array(diffs) / norm0
    t = traj.save_times
    bound_thm = delta * eps**2 * np.exp((delta / eps**2 + 1.0) * t)
    bound_alt = math.sqrt(max(delta, 0.0)) * eps**3 * np.exp(delta / eps**2 * t)
    if floor is None:
        floor = np.zeros_like(diffs)
    net = np.maximum(diffs - floor, 0.0)
    return {
        "t": t,
        "norm_ref": norm0,
        "diff_L2": diffs,
        "floor": floor,
        "net": net,
        "bound_thm": bound_thm,
        "bound_alt": bound_alt,
        "within_thm": bool(np.all(net <= bound_thm)),
        "within_alt": bool(np.all(net <= bound_alt)),
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
        self.Lx, self.Ly, self.nx, self.ny = Lx, Ly, nx, ny
        self.kx = 2.0 * math.pi * np.fft.fftfreq(nx, d=Lx / nx)
        self.ky = 2.0 * math.pi * np.fft.fftfreq(ny, d=Ly / ny)
        self.KX, self.KY = np.meshgrid(self.kx, self.ky)
        self.k2 = self.KX**2 + self.KY**2
        self.k2[0, 0] = 1.0

    def project(self, u, w):
        uh, wh = np.fft.fft2(u), np.fft.fft2(w)
        s = (self.KX * uh + self.KY * wh) / self.k2
        return (np.fft.ifft2(uh - self.KX * s).real,
                np.fft.ifft2(wh - self.KY * s).real)

    def _tendency(self, u, w, b):
        sg, cg = math.sin(self.params.gamma), math.cos(self.params.gamma)
        fu, fw = sg * b, cg * b
        fb = -sg * u - cg * w
        fu, fw = self.project(fu, fw)
        return fu, fw, fb

    def step(self, fields, dt):
        u, w, b = fields
        k1 = self._tendency(u, w, b)
        k2 = self._tendency(u + dt * k1[0], w + dt * k1[1], b + dt * k1[2])
        return (u + 0.5 * dt * (k1[0] + k2[0]),
                w + 0.5 * dt * (k1[1] + k2[1]),
                b + 0.5 * dt * (k1[2] + k2[2]))
